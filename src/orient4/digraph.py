"""Orientations of multiplied trees: storage, metrics, extension, text formats.

An `Orientation` stores one direction bit per canonical edge of the
multiplied graph, in the order the layout table `tree._blocks` states
(bit 0: parent end to child end, bit 1: reversed), plus adjacency built
from those integer index pairs.  A caller names a vertex exactly as the
program prints it (`tree.vertex_names`), and nothing else.  Arcs given by
name (`from_arcs`, `from_edge_list`) are resolved to edges in one
pure-Python loop: one dict lookup per name, then per-vertex rows read off
the table give each arc's edge index and direction bit, and the arcs, put
in canonical order, become the new orientation's adjacency without a
second pass over `tree.edge_pairs`.  Distances count arcs, from
int-bitset reach sets.  Each orientation is swept once, on its twin
quotient: vertices with equal out- and in-sets, read from its own arcs,
collapse to one, and the answers expand back exactly.  Every copy a mimic
extension adds is a false twin of its donor (Koh and Tay's lemma): the
lift (`pull_back`) tiles each block's bits from its image block's, and a
lifted witness sweeps about as many classes as its core has vertices.
`diameter` returns the distinguished value `UNREACHABLE` (math.inf) when
some ordered pair has no path, so non-strong orientations can be ranked.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat

from .errors import UsageError
from .tree import (TreeSpec, _blocks, _prefix, edge_count, edge_pairs,
                   require_valid, vertex_names)

UNREACHABLE = math.inf


class ExtensionError(UsageError):
    """The short-cycle hypothesis of the copy-mimicking extension fails."""


class Orientation:
    """A direction for every multiplied edge of `spec`."""

    def __init__(self, spec: TreeSpec, bits: tuple):
        bits = tuple(bits)
        require_valid(spec)
        m = edge_count(spec)
        if len(bits) != m:
            raise UsageError(f"need {m} direction bits, got {len(bits)}")
        if bits.count(0) + bits.count(1) != m:   # before int() truncates
            raise UsageError("direction bits must be 0 or 1")
        self.spec, self.bits = spec, tuple(map(int, bits))

    # -- derived structure, cached lazily ------------------------------------

    @cached_property
    def _layout(self):
        pairs, n = edge_pairs(self.spec)
        return _adjacency([(v, u) if b else (u, v)
                           for (u, v), b in zip(pairs, self.bits)], n)

    @cached_property
    def _distances(self):
        """(eccentricity, shortest-cycle length) lists over the vertices,
        from one sweep of the twin quotient."""
        _, out, inn = self._layout
        return _twin_sweep(out, inn)

    @property
    def vertices(self):
        return vertex_names(self.spec)

    def arcs(self):
        """Directed arcs as (tail, head) name pairs, canonical edge order."""
        names = self.vertices
        return [(names[t], names[h]) for t, h in self._layout[0]]


def _adjacency(arcs, n):
    """(arcs, out-, in-neighbour tuples) of `n` vertices, from the (tail,
    head) arcs in canonical edge order; so every tuple is ascending, as the
    twin classes of `_twin_sweep` need."""
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for t, h in arcs:
        out[t].append(h)
        inn[h].append(t)
    return arcs, tuple(map(tuple, out)), tuple(map(tuple, inn))


def from_arcs(spec: TreeSpec, arcs) -> Orientation:
    """Build an orientation from (tail, head) name pairs covering every
    edge once; a name must be exactly as `tree.vertex_names` prints it.
    The names are resolved to edges by `_resolve`'s block arithmetic."""
    return _resolve(spec, [v for t, h in arcs for v in (t, h)])


def _resolve(spec: TreeSpec, ends) -> Orientation:
    """The orientation whose k-th arc runs ends[2k] -> ends[2k + 1], names
    as `tree.vertex_names` prints them.

    One dict lookup turns each name into its vertex index, and one loop
    over the arcs does the rest.  A parent block comes before its children
    in `tree._blocks`, so an edge's smaller index lo is its parent end and
    the larger, hi, its child end.  Each vertex's row, read off its
    block's entry, holds its block's start, the parent's start up (-1 for
    the center), the block's size w and c = first edge - up * w - start:
    the arc is an edge only if lo's block starts at up, and its index is
    then c + hi + lo * w.  The arc goes to that slot of a list in
    canonical order, and its direction bit is tail > head.  The first arc
    in order that is not an edge or repeats one is reported, else the
    count of missing edges and the first of them.  The new orientation's
    layout is built from that list, without `tree.edge_pairs`."""
    require_valid(spec)
    block, row = [], []
    for start, w, up, _, first in _blocks(spec).values():
        block += [start] * w
        row += [(up, w, first - up * w - start)] * w
    m = edge_count(spec)
    names = vertex_names(spec)
    index = dict(zip(names, range(len(names))))
    arcs = [None] * m
    ids = iter(map(index.get, ends, repeat(-1)))
    for t, h in zip(ids, ids):
        if t < h:
            lo, hi = t, h
        else:
            lo, hi = h, t
        up, w, c = row[hi]
        if lo < 0 or block[lo] != up:
            # every arc before this one filled one slot
            k = m - arcs.count(None)
            raise UsageError(f"arc {ends[2 * k]}->{ends[2 * k + 1]} is not "
                             f"an edge of the multiplied graph")
        j = c + hi + lo * w
        if arcs[j] is not None:
            raise UsageError(f"edge {names[lo]} -- {names[hi]} "
                             f"assigned twice")
        arcs[j] = (t, h)
    if None in arcs:
        u, v = edge_pairs(spec)[0][arcs.index(None)]
        raise UsageError(f"{arcs.count(None)} edge(s) left unoriented, e.g. "
                         f"{names[u]} -- {names[v]}")
    d = Orientation(spec, tuple([t > h for t, h in arcs]))
    d._layout = _adjacency(arcs, len(names))
    return d


# ============================================================================
# Metrics
# ============================================================================

def _sweep(adj):
    """Eccentricity and shortest-cycle length of every vertex of `adj`.

    reach[v] = {v} | S_k(v) as an int bitset, where S_k(v) = U_{w in N+(v)}
    ({w} | S_{k-1}(w)) is what a walk of length 1..k from v reaches; ecc(v)
    is the first k with reach[v] full, the shortest cycle the first k with
    v in S_k(v).  What is unknown once no set grows is UNREACHABLE."""
    n = len(adj)
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    ecc, cyc = [UNREACHABLE] * n, [UNREACHABLE] * n
    todo, k = range(n), 0
    while todo:
        k += 1
        prev, left = reach[:], []
        for v in todo:
            walk = 0
            for w in adj[v]:
                walk |= prev[w]
            if cyc[v] == UNREACHABLE and walk >> v & 1:
                cyc[v] = k
            reach[v] = walk | 1 << v
            if ecc[v] == UNREACHABLE and reach[v] == full:
                ecc[v] = k
            if ecc[v] == UNREACHABLE or cyc[v] == UNREACHABLE:
                left.append(v)
        todo = left if reach != prev else ()
    return ecc, cyc


def _twin_sweep(out, inn):
    """`_sweep`'s answers for every vertex, from a sweep of the quotient Q
    whose classes are the vertices with equal (ascending) out- and in-sets.

    No arc joins two twins, and two classes are joined by all arcs one way
    or none, so x in X is d_Q(X, Y) from every y in another class Y and
    cyc_Q(X) from its twins:  ecc(x) = max(ecc_Q(X), cyc_Q(X) if |X| >= 2),
    and cyc(x) = cyc_Q(X)."""
    classes = {}
    of = [classes.setdefault(key, len(classes)) for key in zip(out, inn)]
    size, adj = [0] * len(classes), [None] * len(classes)
    for v, x in enumerate(of):
        size[x] += 1
        if adj[x] is None:
            adj[x] = {of[w] for w in out[v]}
    ecc_q, cyc_q = _sweep(adj)
    ecc_x = [max(e, c) if k > 1 else e for e, c, k in zip(ecc_q, cyc_q, size)]
    return [ecc_x[x] for x in of], [cyc_q[x] for x in of]


def eccentricities(d: Orientation):
    """Out-eccentricity per vertex; UNREACHABLE where some vertex is missed."""
    return list(d._distances[0])


def diameter(d: Orientation):
    """Max distance over all ordered pairs; UNREACHABLE if one has no path."""
    return max(eccentricities(d), default=0)


def is_strong(d: Orientation) -> bool:
    """Every vertex reaches every other: no eccentricity is UNREACHABLE."""
    return UNREACHABLE not in d._distances[0]


def shortest_cycle_lengths(d: Orientation):
    """For each vertex, the length of a shortest directed cycle through it
    (UNREACHABLE if none)."""
    return list(d._distances[1])


# ============================================================================
# Extension: new copies mimic existing ones
# ============================================================================

def extend_orientation(d: Orientation, target: TreeSpec, m: int) -> Orientation:
    """Lift `d` to larger multiplicities; every new copy mimics a donor copy.

    `target` must have the blocks of `d.spec` (`tree._blocks`), none
    smaller; the first block in one tree only, or shrinking, is named.
    Valid when every vertex of `d` lies on a directed cycle of length <= m
    and `d` is strong; the result's diameter is then at most
    max(m, diameter(d)).  Donors rotate round-robin over the original copies
    of the same tree vertex.  The returned `Orientation` validates `target`.
    """
    image, blocks = _blocks(d.spec), _blocks(target)
    for key in [*blocks, *image]:
        if key not in image or key not in blocks:
            raise UsageError(f"block {_prefix(*key)} is not in both trees")
        if blocks[key][1] < image[key][1]:
            raise UsageError(f"block {_prefix(*key)} would shrink")
    if not is_strong(d):
        raise ExtensionError("extension lemma inapplicable: base not strong")
    cyc = shortest_cycle_lengths(d)
    worst = max(cyc)
    if worst == UNREACHABLE or worst > m:
        raise ExtensionError(
            f"extension lemma inapplicable: a vertex's shortest cycle is "
            f"{worst}, exceeds {m}")
    return pull_back(d, target, lambda key: key)


def pull_back(d: Orientation, target: TreeSpec, block_of) -> Orientation:
    """Orient each edge of `target` like its image in `d`.  `block_of` maps
    each `tree._blocks` key of `target` to one of `d.spec`, and must map
    parents to parents; copy x (from 0) goes to copy x mod the image's
    size.  So the lift tiles: each row of a block, its edges from one
    parent copy x, is the image's row of parent copy x mod the image
    parent's size, repeated to the block's size."""
    image = _blocks(d.spec)
    bits = []
    for key, (_, size, _, up_size, _) in _blocks(target).items():
        _, w, _, q, first = image[block_of(key)]
        for x in range(up_size):
            j = first + x % q * w
            bits += (d.bits[j:j + w] * (size // w + 1))[:size]
    return Orientation(target, tuple(bits))


# ============================================================================
# Text formats
# ============================================================================

def to_edge_list(d: Orientation) -> str:
    """One arc per line, `tail -> head`, canonical edge order."""
    names = vertex_names(d.spec)
    return "\n".join(f"{names[t]} -> {names[h]}"
                     for t, h in d._layout[0]) + "\n"


def from_edge_list(spec: TreeSpec, text: str) -> Orientation:
    """`from_arcs` on the `tail -> head` lines of `text`.

    Lines are split as `str.splitlines` does and stripped of `str.isspace`
    whitespace; blank lines and lines starting with `#` are skipped.  Every
    other line holds exactly one `->`, and the two names around it are
    stripped too.  A malformed line is reported first, by its number
    (skipped lines count), before any name is resolved; then the names go
    through `_resolve`'s block arithmetic, as in `from_arcs`."""
    lines = list(map(str.strip, text.splitlines()))
    kept = [line for line in lines if line and line[0] != "#"]
    if list(map(str.count, kept, repeat("->"))).count(1) != len(kept):
        lineno = next(n for n, line in enumerate(lines, start=1)
                      if line and line[0] != "#" and line.count("->") != 1)
        raise UsageError(f"line {lineno}: expected 'tail -> head'")
    # no kept line holds a line break, so each line's one `->` becomes the
    # one break between its tail and head; taking " -> " first leaves the
    # names of a printed edge list already stripped
    ends = "\n".join(kept).replace(" -> ", "\n").replace("->", "\n")
    ends = list(map(str.strip, ends.split("\n"))) if kept else []
    return _resolve(spec, ends)


def to_dot(d: Orientation) -> str:
    names = vertex_names(d.spec)
    lines = ["digraph orientation {"]
    lines += [f'  "{v}";' for v in names]
    lines += [f'  "{names[t]}" -> "{names[h]}";' for t, h in d._layout[0]]
    lines.append("}")
    return "\n".join(lines) + "\n"
