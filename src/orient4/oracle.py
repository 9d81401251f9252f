"""Ground-truth orientation numbers for small instances by exhaustion.

Every one of the 2^|E| direction assignments is ranked by an integer whose
bit j gives edge j's direction (0: as listed canonically, 1: reversed).
Assignments are processed in rank order, vectorized with numpy, so the
reported witness is the numerically smallest optimal rank; numpy loads on
the first search, not on import.

A strong orientation has no source and no sink.  Each rank splits into
its low log2(_BATCH) bits and its high bits; whether a vertex is a source
or a sink on its low edges is judged once per search for every low value,
held in the narrowest unsigned type (uint16 at 16 low bits), and on its
high edges once per block of ranks that share their high bits.  So a block
costs a few boolean ANDs, or nothing when a vertex with only high edges
rejects it whole, and no rank with a source or a sink is ever built.
The survivors get reach sets, one row per vertex in the narrowest unsigned
type that holds n bits (uint8, uint16 or uint32, so at most 32 vertices),
grown one step per round by pushing along each edge in its direction.
Survivors are gathered across blocks so that each push is wide.  A column
retires when its rows are full or stop growing; retired columns are
compacted out only once at most half the columns are live, and until then
they ride along unchanged, since pushing a full or a stagnant column is a
no-op.  On the 24-edge C1 spec (2; (2,[]), (2,[2]), (2,[2,2])) all 2^24
ranks take about 0.02 s, and on the 28-edge (4; (2,[2]), (2,[2,2])) all
2^28 take 0.75-0.88 s (2 cores, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# numpy is imported inside the three functions of the search that use it,
# the only numpy users in the package, so `import orient4` and every
# command but the oracle start without it

from .digraph import Orientation
from .errors import Refusal, UsageError
from .tree import (TreeSpec, _blocks, edge_count, edge_pairs, require_valid,
                   vertex_names)

DEFAULT_MAX_EDGES = 24
_BATCH = 1 << 16    # ranks per block of the source/sink filter
_PUSH = 1 << 15     # most survivors per reach push, unless one block has more


@dataclass(frozen=True)
class EnumGraph:
    """An undirected graph prepared for orientation enumeration."""

    names: tuple   # printable vertex names
    edges: tuple   # (u, v) index pairs in canonical order

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)

    def arcs_of_rank(self, rank: int):
        out = []
        for j, (u, v) in enumerate(self.edges):
            if (rank >> j) & 1:
                u, v = v, u
            out.append((self.names[u], self.names[v]))
        return tuple(out)


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
    witness: Orientation | None
    witness_arcs: tuple
    orientations_examined: int
    strong_count: int


def graph_from_spec(spec: TreeSpec) -> EnumGraph:
    return EnumGraph(tuple(vertex_names(spec)), tuple(edge_pairs(spec)[0]))


def bipartite_graph(p: int, q: int) -> EnumGraph:
    names = tuple(f"a{i}" for i in range(1, p + 1)) + \
        tuple(f"b{j}" for j in range(1, q + 1))
    edges = tuple((i, p + j) for i in range(p) for j in range(q))
    return EnumGraph(names, edges)


# ============================================================================
# Bridges
# ============================================================================

def find_bridge(n: int, edges):
    """Some bridge edge index, or None.  Iterative lowlink."""
    adj = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges):
        adj[u].append((v, j))
        adj[v].append((u, j))
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, pedge, it = stack[-1]
            advanced = False
            for (w, j) in it:
                if j == pedge:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, j, iter(adj[w])))
                    advanced = True
                    break
                low[u] = min(low[u], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[u])
                if low[u] > disc[parent]:
                    return pedge
    return None


# ============================================================================
# Source/sink filter per block of ranks, then the reach push
# ============================================================================

def _survivors(graph: EnumGraph, lo: int, hi: int):
    """Ranks in [lo, hi) that leave no vertex a source or a sink, ascending,
    gathered across blocks into arrays of at most _PUSH ranks (or one
    block's survivors, if more).

    Vertex v is a sink iff its edges' rank bits (mask M_v) equal S_v, every
    edge into v, and a source iff they equal S_v ^ M_v; M_v = 0 counts as
    both.  Split M_v and S_v at bit L = min(m, log2(_BATCH)): the low halves
    are judged once per call for all 2^L low values, and the high halves
    once per block of 2^L ranks."""
    import numpy as np
    low = min(graph.m, _BATCH.bit_length() - 1)
    size = 1 << low
    values = np.arange(size, dtype=np.min_scalar_type(size - 1))
    base = np.ones(size, dtype=bool)
    split = []    # (high M_v, high S_v, low "not a sink", low "not a source")
    for v in range(graph.n):
        m_v = sum(1 << j for j, e in enumerate(graph.edges) if v in e)
        s_v = sum(1 << j for j, e in enumerate(graph.edges) if e[0] == v)
        m_lo, s_lo = m_v & (size - 1), s_v & (size - 1)
        bits = values & m_lo
        no_sink, no_source = bits != s_lo, bits != s_lo ^ m_lo
        if m_v >> low == 0:
            base &= no_sink & no_source
        else:
            # None: v has no low edges, so a block that points its high
            # edges all into v or all out of v is rejected whole
            lows = (no_sink, no_source) if m_lo else (None, None)
            split.append((m_v >> low, s_v >> low, *lows))
    pending, count = [], 0
    for h in range(lo >> low, (hi + size - 1) >> low):
        alive = base
        for m_hi, s_hi, no_sink, no_source in split:
            b = h & m_hi
            if b != s_hi and b != s_hi ^ m_hi:
                continue
            if no_sink is None:
                break
            alive = alive & (no_sink if b == s_hi else no_source)
        else:
            start = h << low
            first, last = max(lo - start, 0), min(hi - start, size)
            kept = np.flatnonzero(alive[first:last]) + (start + first)
            if count and count + kept.size > _PUSH:
                yield np.concatenate(pending)
                pending, count = [], 0
            pending.append(kept)
            count += kept.size
    if count:
        yield np.concatenate(pending)


def _batch_diameters(graph: EnumGraph, ranks: np.ndarray) -> np.ndarray:
    """Exact diameter (math.inf if not strong) for each assignment rank.

    One column per rank.  reach[v] holds the vertices within t steps of v, in
    the narrowest unsigned type that holds n bits; fwd[j] is all ones where
    edge j points u -> v (bit 0).  A rank with a source or a sink stops
    growing before its rows are full and reads inf.

    A column stays live until its rows are all full, when its diameter is
    written (once: `live` masks the write), or until it stops growing, when
    it keeps inf.  Retired columns are compacted out only once at most half
    the columns are live; until then they ride along, and pushing them
    changes nothing, since a full column stays full and a stagnant one is at
    its fixed point.  Each compaction at least halves the width, so every
    push is at most twice the live width, and all compactions together copy
    at most twice what one compaction of the whole batch copies."""
    import numpy as np
    n, edges = graph.n, graph.edges
    row = np.min_scalar_type((1 << n) - 1)
    diam = np.full(len(ranks), math.inf)
    idx = np.arange(len(ranks))
    live = np.ones(len(ranks), dtype=bool)
    # row by row, so no (m, ranks) int64 temporary is made
    fwd = np.empty((len(edges), len(ranks)), dtype=row)
    for j, f in enumerate(fwd):
        f[...] = (ranks >> j) & 1
    fwd -= row.type(1)
    reach = np.repeat(row.type(1) << np.arange(n, dtype=row),
                      idx.size).reshape(n, idx.size)
    full = row.type((1 << n) - 1)
    t = 0
    while idx.size:
        nxt = reach.copy()
        for (u, v), f in zip(edges, fwd):
            nxt[u] |= reach[v] & f
            nxt[v] |= reach[u] & ~f
        t += 1
        done = live & (nxt == full).all(axis=0)
        diam[idx[done]] = t
        live &= ~done & (nxt != reach).any(axis=0)
        reach = nxt
        if 2 * np.count_nonzero(live) <= live.size:
            # compress keeps the rows contiguous, unlike reach[:, live]
            idx = idx[live]
            reach = reach.compress(live, axis=1)
            fwd = fwd.compress(live, axis=1)
            live = live[live]
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
    32 vertices (a uint32 reach row), more than 63 edges (an int64 rank)."""
    if m > max_edges:
        raise Refusal(f"edge budget exceeded: {m} edges > "
                      f"max_edges={max_edges}")
    if n > 32:
        raise Refusal(f"too many vertices for the bitmask engine: {n}")
    if m > 63:
        raise Refusal(f"too many edges for int64 ranks: {m}")


def _search(graph: EnumGraph, symmetry: bool,
            spec: TreeSpec | None = None) -> OracleResult:
    """Scan every rank, or with `symmetry` one per reversal pair: reversal
    maps rank r to its bit complement and keeps the diameter, so fixing the
    top edge's direction still finds the smallest-rank optimum.  Some rank
    is strong: every edge of a valid multiplied tree, and of K(p,q) with
    p, q >= 2, joins two blocks of at least two copies, so lies on a 4-cycle,
    and by Robbins' theorem (1939) a connected bridgeless graph has a strong
    orientation.  The witness is an `Orientation` of `spec`, if given."""
    res = search_rank_range(graph, 0,
                            1 << (graph.m - 1 if symmetry else graph.m))
    bits = tuple((res.best_rank >> j) & 1 for j in range(graph.m))
    return OracleResult(int(res.best_diameter),
                        None if spec is None else Orientation(spec, bits),
                        graph.arcs_of_rank(res.best_rank), res.examined,
                        res.strong_count * (2 if symmetry else 1))


def orientation_number(spec: TreeSpec,
                       max_edges: int = DEFAULT_MAX_EDGES,
                       symmetry: bool = False) -> OracleResult:
    """Minimum diameter over all strong orientations of the multiplied tree,
    with the smallest-rank optimal assignment as witness."""
    require_valid(spec)
    n = sum(size for _, size, *_ in _blocks(spec).values())
    _refuse_oversized(n, edge_count(spec), max_edges)
    return _search(graph_from_spec(spec), symmetry, spec)


def bipartite_orientation_number(p: int, q: int,
                                 max_edges: int = DEFAULT_MAX_EDGES,
                                 symmetry: bool = False) -> OracleResult:
    """Same enumeration over the complete bipartite graph; a cross-check of
    the harness against a known closed form."""
    if p < 2 or q < 2:
        raise UsageError("both sides need at least 2 vertices")
    _refuse_oversized(p + q, p * q, max_edges)
    return _search(bipartite_graph(p, q), symmetry)
