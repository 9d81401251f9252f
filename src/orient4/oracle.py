"""Ground-truth orientation numbers for small instances by exhaustion.

Every one of the 2^|E| direction assignments is ranked by an integer whose
bit j gives edge j's direction (0: as listed canonically, 1: reversed).
The ranks below 2^(|E|-1), one per reversal pair (`_search`), are processed
in rank order, vectorized with numpy, so the reported witness is the
numerically smallest optimal rank; numpy loads on the first search, not on
import.

A strong orientation has no source or sink, and no branch subtree with
its center edges all pointing one way, so a filter drops such ranks block
by block before any is built (`_survivors`).  The survivors' distances
are found by a vectorized reach push over the graph's two sides
(`_batch_diameters`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# numpy is imported inside the search functions that use it, the only
# numpy users in the package, so `import orient4` and every command but
# the oracle start without it

from .errors import Refusal, UsageError
from .tree import (TreeSpec, _blocks, edge_count, edge_pairs, require_valid,
                   vertex_names)

DEFAULT_MAX_EDGES = 24
_BATCH = 1 << 16    # ranks per block of the source/sink filter
_PUSH = 1 << 15     # most survivors per reach push, unless one block has more


@dataclass(frozen=True)
class EnumGraph:
    """An undirected bipartite graph prepared for orientation enumeration."""

    names: tuple   # printable vertex names
    edges: tuple   # (u, v) index pairs in canonical order
    sides: tuple   # each vertex's side, 0 or 1; every edge joins the two
    # vertex sets that the source/sink filter judges like single vertices
    cuts: tuple = ()

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class RangeResult:
    """Outcome of scanning one contiguous rank range."""

    examined: int
    strong_count: int
    best_diameter: float       # math.inf when nothing strong in range
    best_rank: int | None


@dataclass(frozen=True)
class OracleResult:
    orientation_number: int
    witness_arcs: tuple          # (tail, head) names, smallest optimal rank
    orientations_examined: int   # ranks decided: 2^m, 2^(m-1) with symmetry
    strong_count: int


def graph_from_spec(spec: TreeSpec) -> EnumGraph:
    """The multiplied graph: the branch copies on side 1, the center and
    leaf copies on side 0, and one cut per branch: its subtree, the
    branch's copies and their leaf copies, joined to the rest by the
    branch's center edges alone."""
    sides, cuts = [], [[] for _ in spec.branches]
    for (role, i, _), (start, size, *_) in _blocks(spec).items():
        sides += [int(role == "b")] * size
        if role != "c":
            cuts[i - 1] += range(start, start + size)
    return EnumGraph(tuple(vertex_names(spec)), tuple(edge_pairs(spec)[0]),
                     tuple(sides), tuple(map(tuple, cuts)))


def bipartite_graph(p: int, q: int) -> EnumGraph:
    names = tuple(f"a{i}" for i in range(1, p + 1)) + \
        tuple(f"b{j}" for j in range(1, q + 1))
    edges = tuple((i, p + j) for i in range(p) for j in range(q))
    return EnumGraph(names, edges, (0,) * p + (1,) * q)


# ============================================================================
# Bridges
# ============================================================================

# no search calls this (see `_search`); it stays only because
# `bench/tracing.TARGETS` wraps it, until ROADMAP item 4
def find_bridge(n: int, edges):
    """Some bridge edge index, or None: the first edge whose two ends the
    other edges leave in different components."""
    for j, (u, v) in enumerate(edges):
        comp = list(range(n))   # a component label per vertex
        for a, b in edges[:j] + edges[j + 1:]:
            old, new = comp[a], comp[b]
            comp = [new if c == old else c for c in comp]
        if comp[u] != comp[v]:
            return j
    return None


# ============================================================================
# Source/sink filter per block of ranks, then the reach push
# ============================================================================

def _survivors(graph: EnumGraph, lo: int, hi: int):
    """Ranks in [lo, hi) that leave no vertex a source or a sink, and no cut
    of `graph.cuts` with its crossing edges all pointing in or all out,
    ascending, gathered across blocks of 2^L ranks into arrays of at most
    _PUSH ranks (or one block's survivors, if more).

    A cut is judged as one more vertex.  Set X is a sink iff its crossing
    edges' rank bits (mask M_X) equal S_X, every crossing edge into X, and a
    source iff they equal S_X ^ M_X; M_X = 0 counts as both.  Split M_X and
    S_X at bit L = min(m, log2(_BATCH)): the low halves are judged once per
    call for all 2^L low values, and the high halves once per block.  The
    last array is yielded once the low tables are released, so they do not
    stay alive through the reach push of a search that fits one array."""
    import numpy as np
    low = min(graph.m, _BATCH.bit_length() - 1)
    size = 1 << low
    values = np.arange(size, dtype=np.min_scalar_type(size - 1))
    base = np.ones(size, dtype=bool)
    bits, mask = np.empty_like(values), np.empty_like(base)   # scratch
    split = []    # (high M_X, high S_X, low "not a sink", low "not a source")
    for part in [(x,) for x in range(graph.n)] + list(graph.cuts):
        m_x = s_x = 0
        for j, (u, v) in enumerate(graph.edges):
            if (u in part) != (v in part):
                m_x |= 1 << j
                s_x |= (u in part) << j
        m_lo, s_lo = m_x & (size - 1), s_x & (size - 1)
        np.bitwise_and(values, m_lo, out=bits)
        if m_x >> low == 0:
            base &= np.not_equal(bits, s_lo, out=mask)
            base &= np.not_equal(bits, s_lo ^ m_lo, out=mask)
        elif m_lo:
            split.append((m_x >> low, s_x >> low,
                          bits != s_lo, bits != s_lo ^ m_lo))
        else:
            # X has no low edges, so a block that points its high edges
            # all into X or all out of X is rejected whole; such parts go
            # first, so that a block they reject costs no AND
            split.insert(0, (m_x >> low, s_x >> low, None, None))
    pending, count = [], 0
    for h in range(lo >> low, (hi + size - 1) >> low):
        alive = base
        for m_hi, s_hi, no_sink, no_source in split:
            b = h & m_hi
            if b != s_hi and b != s_hi ^ m_hi:
                continue
            if no_sink is None:
                break
            alive = np.logical_and(alive, no_sink if b == s_hi else no_source,
                                   out=mask)
        else:
            start = h << low
            first, last = max(lo - start, 0), min(hi - start, size)
            kept = np.flatnonzero(alive[first:last]) + (start + first)
            if count and count + kept.size > _PUSH:
                yield np.concatenate(pending)
                pending, count = [], 0
            pending.append(kept)
            count += kept.size
    values = base = bits = mask = split = alive = no_sink = no_source = None
    if count:
        yield np.concatenate(pending)


def _batch_diameters(graph: EnumGraph, ranks: np.ndarray) -> np.ndarray:
    """Exact diameter (math.inf if not strong) for each assignment rank.

    One column per rank; fwd[j] is all ones where edge j points u -> v
    (bit 0).  After round t, v's reach row holds the vertices within t
    steps of v, kept as two halves, reach[0][v] over v's own side and
    reach[1][v] over the other side, one bit per vertex of that side in the
    narrowest unsigned type that holds the larger side.  The graph is
    bipartite, so a vertex at distance exactly t from v lies on v's side
    iff t is even: round t grows only the halves reach[t % 2], from the
    out-neighbours' other halves.  No half is both read and written in a
    round, so the push is in place.  The bits past a side's size are set
    from the start, so a half is full when it is all ones.  A rank with a
    source or a sink stops growing before its rows are full and reads inf.

    sums[p] holds each column's sum of its halves reach[p] as integers.  A
    half only gains bits, so its value only grows: a column's rows are all
    full exactly when both sums reach n times all ones, and the rows a
    round writes grew exactly when their sum changed.  A column stays live
    until its rows are all full, when its diameter is written (once: `live`
    masks the write), or until a round grows none of its rows, when it is
    at its fixed point and keeps inf.  A retired column rides along to the
    end of the batch, and pushing it changes nothing, since a full column
    stays full and a stagnant one is at its fixed point."""
    import numpy as np
    n, edges, side = graph.n, graph.edges, graph.sides
    if any(side[u] == side[v] for u, v in edges):
        raise UsageError("graph is not bipartite: the reach push needs two "
                         "sides")
    size = (side.count(0), side.count(1))
    half = np.min_scalar_type((1 << max(size)) - 1)
    ones = int(np.iinfo(half).max)
    full = n * ones   # a column's sum over n full halves
    wide = np.min_scalar_type(full)
    diam = np.full(len(ranks), math.inf)
    live = np.ones(len(ranks), dtype=bool)
    # the ranks' bytes as 8 rows, unpacked to one row of 0/1 per edge
    octets = np.ascontiguousarray(ranks, dtype="<i8").view(np.uint8)
    fwd = np.unpackbits(octets.reshape(-1, 8).T.copy(), axis=0,
                        count=len(edges), bitorder="little")
    fwd = fwd.astype(half, copy=False)
    fwd -= half.type(1)
    pad = [ones ^ ((1 << k) - 1) for k in size]
    start = np.array([[pad[s] | 1 << side[:v].count(s)
                       for v, s in enumerate(side)],
                      [pad[1 - s] for s in side]], dtype=half)
    reach = np.repeat(start, len(ranks)).reshape(2, n, len(ranks))
    sums = np.repeat(start.sum(axis=1, dtype=wide),
                     len(ranks)).reshape(2, len(ranks))
    step = np.empty(len(ranks), dtype=half)   # scratch row for every push
    t = 0
    while live.any():
        t += 1
        p = t % 2
        write, read = reach[p], reach[1 - p]
        for (u, v), f in zip(edges, fwd):
            to_u, to_v = write[u], write[v]
            np.bitwise_or(to_u, np.bitwise_and(read[v], f, out=step), out=to_u)
            np.invert(f, out=step)
            np.bitwise_or(to_v, np.bitwise_and(read[u], step, out=step),
                          out=to_v)
        grown = write.sum(axis=0, dtype=wide)
        done = live & (grown == full) & (sums[1 - p] == full)
        diam[done] = t
        live &= ~done & (grown != sums[p])
        sums[p] = grown
    return diam


def search_rank_range(graph: EnumGraph, lo: int, hi: int) -> RangeResult:
    """Count the strong ranks in [lo, hi); find the smallest-rank optimum."""
    import numpy as np
    if not 0 <= lo <= hi <= 1 << graph.m:
        raise UsageError(f"rank range [{lo},{hi}) outside 0..2^{graph.m}")
    best = math.inf
    best_rank = None
    strong = 0
    for ranks in _survivors(graph, lo, hi):
        diams = _batch_diameters(graph, ranks)
        strong += int(np.isfinite(diams).sum())
        # batches are never empty and ascend, so argmin's first minimum is
        # the smallest optimal rank; a later batch must be strictly better
        i = int(diams.argmin())
        if diams[i] < best:
            best = float(diams[i])
            best_rank = int(ranks[i])
    return RangeResult(hi - lo, strong, best, best_rank)


# ============================================================================
# Public entry points
# ============================================================================

def _refuse_oversized(n: int, m: int, max_edges: int) -> None:
    """Refuse, from the vertex and edge counts before any graph is built,
    what the engine cannot search: more than `max_edges` edges, more than
    32 vertices (so a side fits a uint32 reach half), more than 63 edges
    (an int64 rank)."""
    if m > max_edges:
        raise Refusal(f"edge budget exceeded: {m} edges > "
                      f"max_edges={max_edges}")
    if n > 32:
        raise Refusal(f"too many vertices for the bitmask engine: {n}")
    if m > 63:
        raise Refusal(f"too many edges for int64 ranks: {m}")


def _search(graph: EnumGraph, symmetry: bool) -> OracleResult:
    """Decide each reversal pair once: reversing every arc keeps strong
    connectivity and the diameter, and maps rank r to its bit complement,
    so the ranks below 2^(m-1) hold one of each pair, half the strong
    ranks, and the smallest optimal rank.  `examined` counts the ranks
    decided, 2^m, or with `symmetry` one per pair.  Some rank is strong:
    every edge of a valid multiplied tree, and of K(p,q) with p, q >= 2,
    joins two blocks of at least two copies, so lies on a 4-cycle, and by
    Robbins' theorem (1939) a connected bridgeless graph has a strong
    orientation; conversely a strong orientation crosses every cut both
    ways, so the filter may drop a rank that points a branch subtree's
    center edges all one way.  Both graphs are bipartite, as the reach push
    requires.  The witness is the smallest optimal rank's arcs, as
    (tail, head) names of `graph`."""
    res = search_rank_range(graph, 0, 1 << (graph.m - 1))
    bits = tuple((res.best_rank >> j) & 1 for j in range(graph.m))
    names = graph.names
    arcs = tuple((names[v], names[u]) if b else (names[u], names[v])
                 for (u, v), b in zip(graph.edges, bits))
    return OracleResult(int(res.best_diameter), arcs,
                        res.examined * (1 if symmetry else 2),
                        2 * res.strong_count)


def orientation_number(spec: TreeSpec,
                       max_edges: int = DEFAULT_MAX_EDGES,
                       symmetry: bool = False) -> OracleResult:
    """Minimum diameter over all strong orientations of the multiplied tree,
    with the smallest-rank optimal assignment as witness."""
    require_valid(spec)
    n = sum(size for _, size, *_ in _blocks(spec).values())
    _refuse_oversized(n, edge_count(spec), max_edges)
    return _search(graph_from_spec(spec), symmetry)


def bipartite_orientation_number(p: int, q: int,
                                 max_edges: int = DEFAULT_MAX_EDGES,
                                 symmetry: bool = False) -> OracleResult:
    """Same enumeration over the complete bipartite graph; a cross-check of
    the harness against a known closed form."""
    if p < 2 or q < 2:
        raise UsageError("both sides need at least 2 vertices")
    _refuse_oversized(p + q, p * q, max_edges)
    return _search(bipartite_graph(p, q), symmetry)
