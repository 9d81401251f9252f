"""Command-line front end: classify, construct, verify, oracle, sperner.

Exit codes: 0 success, 1 principled refusal (orientation number 5, open
case, enumeration, spec-size, edge or edge-list budget, or a center
multiplicity or `sperner` n above MAX_CENTER), 2 bad input or arguments,
3 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import islice
from math import comb

from . import build, digraph, oracle, sperner, tree
from .classify import UNKNOWN_GAP, classify as classify_spec
from .errors import ConstructionError, Refusal, UsageError

EXIT_OK = 0
EXIT_REFUSAL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

# multiplied edges `construct` and `verify` accept; 18x the largest
# benchmark instance
MAX_EDGES = 100_000
# bytes of edge list `verify` reads: 8x the largest text `construct`
# prints, an `--explain` at s = 5,000 (under 8 MiB)
MAX_EDGE_LIST_BYTES = 64 << 20
# center multiplicity every spec command accepts, and the largest n of a
# `sperner` level: threshold notes print C(s, ceil(s/2)), which stays under
# Python's 4,300-digit int-to-str limit
MAX_CENTER = 10_000
# bytes of spec file every spec command reads.  Every multiplicity is at
# least 2, so each branch and each leaf adds at least 4 multiplied edges:
# a spec within MAX_EDGES has at most 25,000 of them together, with every
# multiplicity at most 50,000 and the center at most MAX_CENTER, 5 digits
# each.  Pretty-printed by `json.dumps` with indent 8, such a spec takes
# at most 3.35 MB, when all 25,000 are leafless branches of 134 bytes each
# (a leaf takes 39); with indent 2, as `--json` prints, 1.85 MB
MAX_SPEC_BYTES = 4 << 20
# sets a `sperner` tool enumerates
MAX_SETS = 100_000
# members of whole sets `--explain` prints per schedule sequence (every
# level up to s = 19 fits), and that a `sperner` tool prints
MAX_MEMBERS = 1_000_000


def _print_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _read_bounded(path, limit, what):
    """The bytes of `path`, refused as `what` if there are more than `limit`.
    At most `limit` + 1 are read, in 64 KiB chunks: one read of `limit`
    would allocate a buffer that large for any file."""
    chunks, left = [], limit + 1
    with open(path, "rb") as fh:
        while left and (chunk := fh.read(min(left, 1 << 16))):
            chunks.append(chunk)
            left -= len(chunk)
    if not left:
        raise Refusal(f"{what} exceeds the bound {limit} bytes")
    return b"".join(chunks)


def _load(path):
    """A valid spec of at most MAX_SPEC_BYTES bytes whose center
    multiplicity is at most MAX_CENTER; a larger file is refused before it
    is decoded or parsed."""
    spec = tree.load_spec(_read_bounded(path, MAX_SPEC_BYTES, "spec"))
    tree.require_valid(spec)
    if spec.s > MAX_CENTER:
        raise Refusal(f"center multiplicity {spec.s} exceeds the bound "
                      f"{MAX_CENTER}")
    return spec


def _load_within_budget(path):
    """`_load`, and the multiplied graph has at most MAX_EDGES edges,
    checked before anything is allocated per edge."""
    spec = _load(path)
    m = tree.edge_count(spec)
    if m > MAX_EDGES:
        raise Refusal(f"edge budget exceeded: {m} edges > {MAX_EDGES}")
    return spec


# ============================================================================
# classify
# ============================================================================

def _classification_doc(cls):
    doc = {
        "verdict": cls.verdict,
        "orientation_number": cls.orientation_number,
        "rule": cls.rule,
        "threshold": cls.threshold_note,
    }
    if cls.k_witness is not None:
        doc["k_witness"] = cls.k_witness
    if cls.verdict == UNKNOWN_GAP:
        # the open regime: the necessary bound holds, no split qualifies
        doc["gap_detail"] = {"necessary_bound_holds": True,
                             "sufficient_bound_holds": False,
                             "k_witness": None}
    return doc


def cmd_classify(args):
    cls = classify_spec(_load(args.spec))
    if args.json:
        _print_json(_classification_doc(cls))
    else:
        number = ("open case" if cls.orientation_number is None
                  else f"orientation number {cls.orientation_number}")
        print(f"{cls.verdict} ({number}), rule {cls.rule}")
        print(f"threshold: {cls.threshold_note}")
    return EXIT_OK


# ============================================================================
# construct
# ============================================================================

def cmd_construct(args):
    if args.json and args.format == "dot":
        raise UsageError("give --json or --format dot, not both")
    spec = _load_within_budget(args.spec)
    result = build.construct_optimal(spec)
    d = result.orientation
    report = {
        "verdict": result.classification.verdict,
        "rule": result.classification.rule,
        "case": result.case,
        "diameter": digraph.diameter(d),
        "strong": digraph.is_strong(d),
    }
    if args.json:
        doc = dict(report)
        doc["arcs"] = digraph.to_edge_list(d).splitlines()
        if args.explain:
            doc["explain"] = _explain_doc(result)
        _print_json(doc)
        return EXIT_OK
    if args.format == "dot":
        sys.stdout.write(digraph.to_dot(d))
    else:
        sys.stdout.write(digraph.to_edge_list(d))
    if args.verify:
        print(f"# verified: diameter {report['diameter']}, "
              f"strong={report['strong']}")
    if args.explain:
        _print_explain(result)
    return EXIT_OK


def _fmt_set(f):
    return "{" + ",".join(map(str, sperner.members(f))) + "}"


# --explain keys of the schedule sequences, each read by name
EXPLAINED = (("half_sets", "lam"), ("up_sets", "psi"), ("mu_sets", "mu"),
             ("gamma_sets", "gamma"))


def _explain_doc(result):
    sched = result.schedule
    doc = {
        "case": result.case,
        "slot_to_user_branch": list(result.reduced.slot_to_user),
        "core_multiplicities": {
            "center": result.reduced.h_spec.center_multiplicity,
            "branches": [b.multiplicity
                         for b in result.reduced.h_spec.branches],
        },
        "block_sizes": dict(result.reduced.block_sizes),
        "k": result.reduced.k,
    }
    for key, name in EXPLAINED:
        # each sequence orders a whole level: C(s, r) sets of r members
        level = getattr(sched, name)()
        head = list(islice(level, 1))
        if head:
            r = head[0].bit_count()
            head += islice(level, MAX_MEMBERS // r - 1)
            if len(head) < comb(sched.s, r):
                doc[f"{key}_more"] = comb(sched.s, r) - len(head)
        doc[key] = [_fmt_set(f) for f in head]
    return doc


def _print_explain(result):
    doc = _explain_doc(result)
    print(f"# case: {doc['case']}")
    print(f"# slot -> user branch: {doc['slot_to_user_branch']}")
    print(f"# core multiplicities: center "
          f"{doc['core_multiplicities']['center']}, branches "
          f"{doc['core_multiplicities']['branches']}")
    print(f"# blocks: {doc['block_sizes']}")
    if doc["k"] is not None:
        print(f"# split k: {doc['k']}")
    for key, _ in EXPLAINED:
        if doc[key]:
            more = doc.get(f"{key}_more")
            tail = f" ... and {more} more" if more else ""
            print(f"# {key}: {' '.join(doc[key])}{tail}")


# ============================================================================
# verify
# ============================================================================

def cmd_verify(args):
    spec = _load_within_budget(args.spec)
    raw = _read_bounded(args.edges, MAX_EDGE_LIST_BYTES, "edge list")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"edge list is not valid UTF-8: {exc}") from exc
    d = digraph.from_edge_list(spec, text)  # raises if edges do not match
    dia = digraph.diameter(d)
    strong = digraph.is_strong(d)
    doc = {"diameter": None if dia == digraph.UNREACHABLE else int(dia),
           "strong": strong, "edges_match": True}
    if args.json:
        _print_json(doc)
    else:
        dia_text = "unreachable pair" if doc["diameter"] is None \
            else f"diameter {doc['diameter']}"
        print(f"{dia_text}, {'strong' if strong else 'not strong'}, "
              f"edges match")
    return EXIT_OK


# ============================================================================
# oracle
# ============================================================================

def cmd_oracle(args):
    t0 = time.perf_counter()
    if args.bipartite and args.spec is not None:
        raise UsageError("give a spec file or --bipartite P Q, not both")
    if args.bipartite:
        p, q = args.bipartite
        res = oracle.bipartite_orientation_number(
            p, q, max_edges=args.max_edges, symmetry=args.symmetry)
    else:
        if args.spec is None:
            raise UsageError("need a spec file or --bipartite P Q")
        res = oracle.orientation_number(
            _load(args.spec), max_edges=args.max_edges,
            symmetry=args.symmetry)
    elapsed = time.perf_counter() - t0
    if args.json:
        _print_json({
            "orientation_number": res.orientation_number,
            "orientations_examined": res.orientations_examined,
            "strong_count": res.strong_count,
            "witness_arcs": [f"{t} -> {h}" for t, h in res.witness_arcs],
            "seconds": round(elapsed, 3),
        })
    else:
        print(f"orientation number: {res.orientation_number}")
        print(f"examined {res.orientations_examined} assignments, "
              f"{res.strong_count} strong, {elapsed:.2f}s")
        print("witness:")
        for t, h in res.witness_arcs:
            print(f"  {t} -> {h}")
    return EXIT_OK


# ============================================================================
# sperner
# ============================================================================

def _digits(f):
    return "".join(map(str, sperner.members(f)))


def _enumerable(count, size=0, text=None):
    """Refuse, before anything is enumerated, more than MAX_SETS sets, or
    sets of `size` members that would print more than MAX_MEMBERS members.
    `text` names the count in the message (default: its digits)."""
    text = text or str(count)
    if count > MAX_SETS:
        raise Refusal(f"{text} sets exceed the bound {MAX_SETS}")
    if count * size > MAX_MEMBERS:
        raise Refusal(f"{text} sets of {size} members exceed the bound "
                      f"{MAX_MEMBERS} members")


def cmd_sperner(args):
    # before any C(n, k) is computed: at n = 10^6 one takes seconds
    if args.n > MAX_CENTER:
        raise Refusal(f"n={args.n} exceeds the bound {MAX_CENTER}")
    if args.tool == "kappa":
        sperner.level_size(args.n, args.r, args.m)
        _enumerable(args.m)
        value = sperner.kappa(args.n, args.r, args.m)
        if args.json:
            _print_json({"kappa": value,
                         "kappa_star": sperner.kappa_star(args.n, args.r,
                                                          args.m)})
        else:
            print(value)
    elif args.tool == "shadow":
        sperner.level_size(args.n, args.k, args.m)
        _enumerable(args.m)
        # the cascade size is exact: the shadow of the first m sets
        cascade = sperner.shadow_size_kkt(args.n, args.k, args.m)
        _enumerable(cascade, args.k - 1)
        sh = sperner.shadow(sperner.first_m(args.n, args.k, args.m))
        if args.json:
            _print_json({"shadow_size": len(sh), "cascade_size": cascade,
                         "shadow": [list(sperner.members(s)) for s in sh]})
        else:
            print(f"|shadow| = {len(sh)} (cascade formula: {cascade})")
            print(" ".join(map(_digits, sh)))
    elif args.tool == "squashed":
        _enumerable(sperner.level_size(args.n, args.k), args.k,
                    f"C({args.n},{args.k})")
        level = sperner.squashed_level(args.n, args.k)
        if args.json:
            _print_json({"level": [list(sperner.members(s)) for s in level]})
        else:
            print(" ".join(map(_digits, level)))
    return EXIT_OK


# ============================================================================
# argument parsing
# ============================================================================

@functools.cache
def _parser():
    """Built once; `main` looks up `cmd_<command>` at call time, so a
    rebinding of a command function takes effect."""
    ap = argparse.ArgumentParser(
        prog="orient4",
        description="Orientation numbers of diameter-4 tree "
                    "vertex-multiplications")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide orientation number 4 vs 5")
    p.add_argument("spec", help="tree spec JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="emit a diameter-4 orientation")
    p.add_argument("spec")
    p.add_argument("--format", choices=("edgelist", "dot"),
                   default="edgelist")
    p.add_argument("--verify", action="store_true",
                   help="print the verification that construct always runs")
    p.add_argument("--explain", action="store_true",
                   help="print case id, schedules and the slot permutation")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check an edge-list file against a spec")
    p.add_argument("spec")
    p.add_argument("edges", help="edge-list file, one 'tail -> head' per line")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="exhaustive orientation search")
    p.add_argument("spec", nargs="?")
    p.add_argument("--max-edges", type=int, default=oracle.DEFAULT_MAX_EDGES)
    p.add_argument("--symmetry", action="store_true",
                   help="report one assignment per reversal pair as examined")
    p.add_argument("--bipartite", nargs=2, type=int, metavar=("P", "Q"),
                   help="run on the complete bipartite graph K(P,Q) instead")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sperner", help="squashed-order toolkit")
    tools = p.add_subparsers(dest="tool", required=True)
    t = tools.add_parser("kappa", help="shadow deficiency of an initial segment")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--json", action="store_true")
    t = tools.add_parser("shadow", help="shadow of the first m k-subsets")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--json", action="store_true")
    t = tools.add_parser("squashed", help="print a level in squashed order")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ConstructionError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
