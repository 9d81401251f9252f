"""Independent output checks for the benchmark.

Nothing here imports orient4: the multiplied graph is rebuilt from the spec
document, edge lists are parsed from text, and distances come from
reach sets held as Python-int bitsets, R_k(v) = R_{k-1}(v) | OR over the
out-neighbours w of v of R_{k-1}(w).  Each check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import re


def multiplied_graph(spec):
    """Vertex names and undirected edges of the multiplied tree, edges in
    the canonical order: center-branch blocks by branch, then branch-leaf
    blocks by branch and leaf."""
    s = spec["center_multiplicity"]
    branches = spec["branches"]
    names = [f"c.{x}" for x in range(1, s + 1)]
    edges = []
    for i, b in enumerate(branches, start=1):
        names += [f"b{i}.{y}" for y in range(1, b["multiplicity"] + 1)]
        edges += [(f"c.{x}", f"b{i}.{y}") for x in range(1, s + 1)
                  for y in range(1, b["multiplicity"] + 1)]
    for i, b in enumerate(branches, start=1):
        for a, lm in enumerate(b["leaf_multiplicities"], start=1):
            names += [f"l{i}.{a}.{z}" for z in range(1, lm + 1)]
            edges += [(f"b{i}.{y}", f"l{i}.{a}.{z}")
                      for y in range(1, b["multiplicity"] + 1)
                      for z in range(1, lm + 1)]
    return names, edges


def bipartite_graph(p, q):
    names = [f"a{i}" for i in range(1, p + 1)] + \
        [f"b{j}" for j in range(1, q + 1)]
    return names, [(f"a{i}", f"b{j}") for i in range(1, p + 1)
                   for j in range(1, q + 1)]


def parse_arcs(lines):
    """(tail, head) pairs from 'tail -> head' lines; blank and '#' lines
    are skipped."""
    arcs = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tail, sep, head = line.partition("->")
        if not sep:
            raise ValueError(f"not an arc: {line!r}")
        arcs.append((tail.strip(), head.strip()))
    return arcs


def out_lists(names, edges, arcs):
    """Out-neighbour index lists when `arcs` orients every edge exactly once;
    otherwise a reason string."""
    index = {v: j for j, v in enumerate(names)}
    todo = {frozenset(e) for e in edges}
    out = [[] for _ in names]
    for t, h in arcs:
        key = frozenset((t, h))
        if key not in todo:
            return f"arc {t} -> {h} is not an edge, or repeats one"
        todo.remove(key)
        out[index[t]].append(index[h])
    if todo:
        return f"{len(todo)} edge(s) not oriented"
    return out


def diameter(out):
    """Exact diameter of the digraph, or None when some pair is unreachable."""
    n = len(out)
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    k = 0
    while not all(r == full for r in reach):
        grown = []
        for v, r in enumerate(reach):
            for w in out[v]:
                r |= reach[w]
            grown.append(r)
        if grown == reach:
            return None
        reach = grown
        k += 1
    return k


def _witness_diameter(names, edges, arcs):
    out = out_lists(names, edges, arcs)
    if isinstance(out, str):
        return None, out
    return diameter(out), None


def check_construct(spec, stdout):
    """`orient4 construct --verify`: the arcs orient every multiplied edge
    once, the orientation has diameter exactly 4, and the summary says so."""
    lines = stdout.splitlines()
    if "# verified: diameter 4, strong=True" not in lines:
        return "missing or wrong '# verified' summary line"
    names, edges = multiplied_graph(spec)
    try:
        arcs = parse_arcs(lines)
    except ValueError as exc:
        return str(exc)
    dia, why = _witness_diameter(names, edges, arcs)
    if why:
        return why
    if dia != 4:
        return f"diameter is {dia}, not 4"
    return None


def verify_line(dia):
    """The line `orient4 verify` prints for an orientation of this diameter
    (None: some pair unreachable, hence not strong)."""
    if dia is None:
        return "unreachable pair, not strong, edges match"
    return f"diameter {dia}, strong, edges match"


def check_verify(expected_dia, stdout):
    want = verify_line(expected_dia)
    got = stdout.strip()
    return None if got == want else f"reported {got!r}, expected {want!r}"


_NUMBER = re.compile(r"^orientation number: (\d+)$", re.M)


def check_oracle(names, edges, expected, stdout):
    """`orient4 oracle`: the orientation number is the expected one and the
    printed witness orients every edge once with exactly that diameter."""
    m = _NUMBER.search(stdout)
    if not m:
        return "no orientation number printed"
    number = int(m.group(1))
    if number != expected:
        return f"orientation number {number}, expected {expected}"
    _, sep, tail = stdout.partition("witness:\n")
    if not sep:
        return "no witness printed"
    try:
        arcs = parse_arcs(tail.splitlines())
    except ValueError as exc:
        return str(exc)
    dia, why = _witness_diameter(names, edges, arcs)
    if why:
        return why
    if dia != expected:
        return f"witness diameter {dia}, expected {expected}"
    return None
