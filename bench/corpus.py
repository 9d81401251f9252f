"""Seeded workload inputs, made without calling orient4.

Every verdict, recipe, witness and expected orientation number the
benchmark relies on is pinned in `pinned.json` (written once by
`make_data.py`), so for a given seed the inputs are the same on every
commit, whatever that commit's classifier or constructions do.

* construct: the pinned shapes (s, |A2|, |A3|, |A4+|, |E|) decide the
  verdict and the recipe; the seed draws the details that do not change
  them (branch order, leaf counts, leaf multiplicities, multiplicities of
  4+-copy and leafless branches) and scales a few shapes up to a target
  edge count.
* verify: the pinned witnesses are written out as edge lists with the lines
  shuffled, once as they are and once with one seeded arc flipped among the
  center edges and once among the leaf edges.
* oracle: fixed slots of (edges, verdict, --symmetry); the seed relabels
  each slot's spec and orders the requests.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import checker

PINNED = Path(__file__).with_name("pinned.json")

# construct: natural shapes scaled to these multiplied-edge targets
MID_TARGETS = (1000, 1400, 1800, 2200, 2600, 3000)
LARGE_TARGETS = (5000, 5500)

# oracle: (multiplied edges, verdict, vertices, --symmetry) per spec slot
# and (p, q, --symmetry) per complete-bipartite slot.  The search cost
# differs between specs of one size, so each slot keeps its spec and the
# seed relabels it, which moves the witness but not the cost.
ORACLE_SLOTS = ((20, "C0", 12, False), (20, "C1", 12, True),
                (22, "C0", 13, True), (22, "C1", 13, True),
                (24, "C1", 14, True))
BIPARTITE_SLOTS = ((4, 5, False), (3, 7, True))

E_MULTS = (2, 2, 2, 3, 3, 4, 5, 6)   # natural multiplicity draw
A4_MULTS = (4, 5, 6)


@dataclass
class Request:
    """One CLI call: `argv` names files from `files`, which the runner
    writes before timing; `check(stdout)` returns None or a reason."""

    name: str
    argv: list
    files: dict
    edges: int
    check: Callable
    info: dict = field(default_factory=dict)


def load_pinned():
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def edge_count(spec):
    s = spec["center_multiplicity"]
    return sum(b["multiplicity"] * (s + sum(b["leaf_multiplicities"]))
               for b in spec["branches"])


def make_spec(shape, rng, target_edges=None):
    """A spec with the shape's center multiplicity and class counts; with
    `target_edges`, leaf multiplicities grow until the edge count is near
    the target."""
    s, n2, n3, n4, ne = shape
    branches = []
    for mult, count in ((2, n2), (3, n3), (None, n4)):
        for _ in range(count):
            m = mult or rng.choice(A4_MULTS)
            nl = rng.choice((1, 1, 1, 2))
            branches.append([m, [rng.randint(2, 4) for _ in range(nl)]])
    branches += [[rng.choice(E_MULTS), []] for _ in range(ne)]
    rng.shuffle(branches)
    if target_edges:
        spare = target_edges - s * sum(m for m, _ in branches)
        for _, leaves in branches:
            leaves[:] = [rng.uniform(0.8, 1.2) for _ in leaves]
        unit = spare / sum(m * sum(leaves) for m, leaves in branches)
        for _, leaves in branches:
            leaves[:] = [max(2, round(f * unit)) for f in leaves]
    return {"center_multiplicity": s,
            "branches": [{"multiplicity": m, "leaf_multiplicities": leaves}
                         for m, leaves in branches]}


def _spread(small, big):
    """`big` placed at even intervals through `small`, so that a run cut
    short part-way through a pass still sees the pass's mix."""
    out = list(small)
    for j, item in enumerate(big):
        out.insert(round((j + 0.5) * len(small) / len(big)) + j, item)
    return out


def construct_corpus(seed, pinned=None):
    pinned = pinned or load_pinned()
    rng = random.Random(f"construct:{seed}")
    natural = pinned["construct_shapes"]
    small = [(sh, None) for sh in natural + pinned["reference_shapes"]]
    big = [(natural[j], t) for j, t in enumerate(MID_TARGETS + LARGE_TARGETS)]
    rng.shuffle(small)
    rng.shuffle(big)
    out = []
    for j, (shape, target) in enumerate(_spread(small, big)):
        spec = make_spec(shape[:5], rng, target)
        out.append(Request(
            f"construct-{j}", ["construct", "spec.json", "--verify"],
            {"spec.json": json.dumps(spec)}, edge_count(spec),
            lambda out, spec=spec: checker.check_construct(spec, out),
            {"recipe": shape[5], "verdict": "C0", "s": shape[0]}))
    return out


def _edge_list(arcs):
    return "".join(f"{t} -> {h}\n" for t, h in arcs)


def verify_corpus(seed, pinned=None):
    pinned = pinned or load_pinned()
    rng = random.Random(f"verify:{seed}")
    out = []
    for w in pinned["verify_witnesses"]:
        spec = w["spec"]
        names, edges = checker.multiplied_graph(spec)
        bits = int(w["bits"], 16)
        arcs = [(v, u) if (bits >> j) & 1 else (u, v)
                for j, (u, v) in enumerate(edges)]
        n_center = sum(spec["center_multiplicity"] * b["multiplicity"]
                       for b in spec["branches"])
        variants = [("witness", None),
                    ("center_flip", rng.randrange(n_center)),
                    ("leaf_flip", rng.randrange(n_center, len(edges)))]
        for kind, flip in variants:
            lines = list(arcs)
            if flip is not None:
                lines[flip] = lines[flip][::-1]
            out_adj = checker.out_lists(names, edges, lines)
            dia = checker.diameter(out_adj)
            rng.shuffle(lines)
            out.append(Request(
                f"verify-{len(out)}", ["verify", "spec.json", "edges.txt"],
                {"spec.json": json.dumps(spec), "edges.txt": _edge_list(lines)},
                len(edges),
                lambda o, dia=dia: checker.check_verify(dia, o),
                {"recipe": w["recipe"], "verdict": "C0", "kind": kind,
                 "diameter": dia, "s": spec["center_multiplicity"]}))
    rng.shuffle(out)
    return out


def bipartite_number(p, q):
    """Orientation number of K(p,q), 2 <= p <= q: 3 when q <= C(p, p//2)."""
    return 3 if q <= comb(p, p // 2) else 4


def relabel(spec, rng):
    """The same tree with its branches, and each branch's leaves, in a
    seeded order."""
    branches = [dict(b, leaf_multiplicities=rng.sample(
        b["leaf_multiplicities"], len(b["leaf_multiplicities"])))
        for b in spec["branches"]]
    rng.shuffle(branches)
    return dict(spec, branches=branches)


def oracle_corpus(seed, pinned=None):
    pinned = pinned or load_pinned()
    rng = random.Random(f"oracle:{seed}")
    out = []
    for m, verdict, n, sym in ORACLE_SLOTS:
        o = next(o for o in pinned["oracle_specs"] if o["edges"] == m
                 and o["verdict"] == verdict
                 and len(checker.multiplied_graph(o["spec"])[0]) == n)
        spec = relabel(o["spec"], rng)
        names, edges = checker.multiplied_graph(spec)
        want = o["orientation_number"]
        out.append(Request(
            "", ["oracle", "spec.json"] + ["--symmetry"] * sym,
            {"spec.json": json.dumps(spec)}, m,
            lambda s, g=(names, edges), w=want: checker.check_oracle(*g, w, s),
            {"verdict": verdict, "symmetry": sym,
             "s": o["spec"]["center_multiplicity"]}))
    for p, q, sym in BIPARTITE_SLOTS:
        names, edges = checker.bipartite_graph(p, q)
        want = bipartite_number(p, q)
        out.append(Request(
            "", ["oracle", "--bipartite", str(p), str(q)]
            + ["--symmetry"] * sym, {}, p * q,
            lambda s, g=(names, edges), w=want: checker.check_oracle(*g, w, s),
            {"verdict": f"K({p},{q})", "symmetry": sym}))
    rng.shuffle(out)
    for j, r in enumerate(out):
        r.name = f"oracle-{j}"
    return out


CORPORA = {"construct": construct_corpus, "verify": verify_corpus,
           "oracle": oracle_corpus}


def summary(requests):
    """Instance count, edge-count min/median/max, recipes and verdicts."""
    edges = [r.edges for r in requests]
    verdicts = Counter(r.info["verdict"] for r in requests)
    doc = {"instances": len(requests), "edges_min": min(edges),
           "edges_median": statistics.median(edges), "edges_max": max(edges),
           "recipes": sorted({r.info["recipe"] for r in requests
                              if "recipe" in r.info}),
           "verdicts": dict(sorted(verdicts.items())),
           "s_parities": sorted({"even" if r.info["s"] % 2 == 0 else "odd"
                                 for r in requests if "s" in r.info})}
    kinds = Counter(r.info["kind"] for r in requests if "kind" in r.info)
    if kinds:
        doc["kinds"] = dict(sorted(kinds.items()))
        dias = [r.info["diameter"] for r in requests if "diameter" in r.info]
        doc["not_strong"] = dias.count(None)
        doc["strong_diameter_over_4"] = sum(1 for d in dias
                                            if d is not None and d > 4)
    return doc
