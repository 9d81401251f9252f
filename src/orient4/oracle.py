"""Ground-truth orientation numbers for small instances by exhaustion.

Every one of the 2^|E| direction assignments is ranked by an integer whose
bit j gives edge j's direction (0: as listed canonically, 1: reversed).
The copies of one tree vertex are twins, and permuting twins maps an
assignment to an isomorphic one, so the search decides one assignment per
orbit of these permutations, the orbit's smallest rank, and weighs it by
the orbit's size (`_search`).  The representatives are enumerated one
group of twins at a time, each group's multisets of keys read from a
table built once per search (`_orbits`).  The reported witness is the
numerically smallest optimal rank and the strong count is exact.  The
work is vectorized with numpy, which loads on the first search, not on
import.

A strong orientation has no source or sink, and no branch subtree with
its center edges all pointing one way, so a filter drops such ranks
before any is built.  The survivors' distances are found by a vectorized
reach push over the graph's two sides (`_batch_diameters`).  Only the
smallest diameter and its ranks must be exact, so the push stops at the
best diameter found so far, or at its batch's smallest: each other column
is only told strong or not, by one of two certificates read from its
reach sets.  A vertex whose ball stopped growing short of every vertex
misses one, so the rank is not strong; a root that reaches every vertex
and that every vertex reaches joins any two through it, so it is.
`search_rank_range` scans a contiguous range of ranks instead, with the
same part checks and scoring (`_passing`, `_score`): the exhaustive
reference for the search.
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
_BATCH = 1 << 16    # ranks per filtered run, columns per orbit expansion
_PUSH = 1 << 15     # most columns per reach push, unless one run has more


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
    orientations_examined: int   # 2^m, or one per reversal pair, 2^(m-1)
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
# Source/sink filter per run of ranks, the reach push and its scoring
# ============================================================================

def _crossing(graph: EnumGraph, part) -> tuple:
    """(M_X, S_X) of the vertex set X = `part`: the rank bits of the edges
    crossing X, and their values when every crossing edge points into X.
    X is a sink iff a rank's bits under M_X equal S_X, and a source iff
    they equal S_X ^ M_X; M_X = 0 counts as both."""
    m_x = s_x = 0
    for j, (u, v) in enumerate(graph.edges):
        if (u in part) != (v in part):
            m_x |= 1 << j
            s_x |= (u in part) << j
    return m_x, s_x


def _parts(graph: EnumGraph, incidence: list, vertices) -> list:
    """(M_X, S_X) of each vertex of `vertices` alone, from `_incidence`,
    then of each cut of `graph.cuts`, from `_crossing`."""
    return [incidence[x][2:] for x in vertices] + \
        [_crossing(graph, part) for part in graph.cuts]


def _passing(ranks, parts):
    """Which `ranks` leave no part X of `parts` a source or a sink."""
    import numpy as np
    alive = np.ones(len(ranks), dtype=bool)
    for m_x, s_x in parts:
        bits = ranks & m_x
        alive &= (bits != s_x) & (bits != s_x ^ m_x)
    return alive


def _survivors(graph: EnumGraph, lo: int, hi: int):
    """Ranks in [lo, hi) that leave no vertex and no cut of `graph.cuts` a
    source or a sink, ascending, judged in runs of _BATCH consecutive ranks
    and gathered into arrays of at most _PUSH (or one run's survivors)."""
    import numpy as np
    parts = _parts(graph, _incidence(graph), range(graph.n))
    dtype = np.min_scalar_type((1 << graph.m) - 1)
    pending, count = [], 0
    for start in range(lo, hi, _BATCH):
        kept = np.arange(start, min(start + _BATCH, hi), dtype=dtype)
        kept = kept[_passing(kept, parts)]
        if count and count + kept.size > _PUSH:
            yield np.concatenate(pending)
            pending, count = [], 0
        pending.append(kept)
        count += kept.size
    if count:
        yield np.concatenate(pending)


def _batch_diameters(graph: EnumGraph, ranks: np.ndarray,
                     bound: float = math.inf) -> np.ndarray:
    """Each assignment rank's diameter, math.inf if it is not strong, exact
    up to the cut c = min(`bound`, the batch's smallest diameter); a strong
    rank of diameter above c reads some value in (c, its diameter].  So a
    caller that passes the best diameter found so far as `bound` still
    reads every column that ties or beats it exactly.

    One column per rank; fwd[j] is all ones where edge j points u -> v
    (bit 0).  After round t, v's reach row holds the vertices within t
    steps of v, kept as two halves, reach[0] over v's own side and
    reach[1] over the other side, one bit per vertex of that side in the
    narrowest unsigned type that holds the larger side.  The rows are
    ordered side 0 first, so a side's rows are one slice, and a vertex's
    bit is its place in its side's slice.  The graph is bipartite, so a
    vertex at distance exactly t from v lies on v's side iff t is even:
    round t grows only the halves reach[t % 2], from the out-neighbours'
    other halves.  No half is both read and written in a round, so the
    push is in place.  The bits past a side's size are set from the
    start, so a half is full when it is all ones.

    sums[p] holds each column's sum of its halves reach[p] as integers.  A
    half only gains bits, so its value only grows: a column's rows are all
    full exactly when both sums reach n times all ones, and the rows a
    round writes grew exactly when their sum changed.  A column whose rows
    are all full in round t has diameter t (written once: `live` masks the
    write), so the first such round is the batch's smallest diameter; a
    column that a round grows nowhere is at its fixed point and keeps inf.

    From round c on, two certificates, read from the halves after the
    round, decide the other live columns, so that the push stops about
    there instead of running out the larger diameters:

    - A closed ball is not strong.  If v's written half did not grow in
      round t (`prev` keeps it from before the round), no vertex is at
      distance exactly t from v, so none is farther: v's ball is closed,
      and if v's row is not full, v misses a vertex.  The column keeps inf.
    - A root that reaches all and is reached by all is strong: if r's row
      is full and r's bit is in every row, any u reaches any w through r.
      The column was not full in round t, so its diameter is at least
      t + 1 > c, which it reads.

    Both hold in any round, but a column retired early still rides along
    to the end of the batch, so they are read only from round c on.
    Pushing a retired column changes nothing that is read: a full column
    stays full, a stagnant one is at its fixed point, and a certified one
    is never written again."""
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
    # the rows of side 0 first, then those of side 1, so that a side's rows
    # are one slice; a row's bit in its side is its place in that slice
    order = sorted(range(n), key=side.__getitem__)
    row = {v: i for i, v in enumerate(order)}
    mine = (slice(0, size[0]), slice(size[0], n))   # side s's rows
    bit = np.array([1 << i for k in size for i in range(k)],
                   dtype=half)[:, None]
    start = np.array([[pad[side[v]] for v in order],
                      [pad[1 - side[v]] for v in order]], dtype=half)
    start[0] |= bit[:, 0]
    reach = np.repeat(start, len(ranks)).reshape(2, n, len(ranks))
    sums = np.repeat(start.sum(axis=1, dtype=wide),
                     len(ranks)).reshape(2, len(ranks))
    step = np.empty(len(ranks), dtype=half)   # scratch row for every push
    prev = np.empty((n, len(ranks)), dtype=half)
    flags = np.empty((n, len(ranks)), dtype=bool)
    pushes = [(row[u], row[v], f) for (u, v), f in zip(edges, fwd)]
    cut = bound
    t = 0
    while live.any():
        t += 1
        p = t % 2
        write, read = reach[p], reach[1 - p]
        np.copyto(prev, write)
        for u, v, f in pushes:
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
        if t < cut and done.any():
            cut = t
        if t < cut:
            continue
        # a row that did not grow and is not full: a closed ball
        np.equal(write, prev, out=flags)
        np.bitwise_and(write, read, out=prev)
        np.invert(prev, out=prev)   # zero exactly where a row is full
        live &= ~np.logical_and(flags, prev, out=flags).any(axis=0)
        # a root: a full row whose bit is set in every row's half over its
        # side, per side s the AND of those halves
        np.equal(prev, 0, out=flags)
        for s in (0, 1):
            by_all = np.bitwise_and.reduce(reach[0][mine[s]], axis=0)
            by_all &= np.bitwise_and.reduce(reach[1][mine[1 - s]], axis=0)
            np.bitwise_and(by_all, bit[mine[s]], out=prev[mine[s]])
        certified = live & np.logical_and(flags, prev, out=flags).any(axis=0)
        diam[certified] = t + 1
        live &= ~certified
    return diam


def _score(graph: EnumGraph, batches) -> tuple:
    """(best diameter, smallest rank with it, strong weight) over (ranks,
    weights) batches, each pushed with the best diameter so far as its
    bound (`_batch_diameters`).  The diameter is math.inf, and the rank
    not strong or 2^m, when no rank is strong."""
    import numpy as np
    best = (math.inf, 1 << graph.m)   # (diameter, smallest rank with it)
    strong = 0
    for ranks, weights in batches:
        diams = _batch_diameters(graph, ranks, best[0])
        strong += int(weights[np.isfinite(diams)].sum())
        low = diams.min()
        best = min(best, (float(low), int(ranks[diams == low].min())))
    return (*best, strong)


def search_rank_range(graph: EnumGraph, lo: int, hi: int) -> RangeResult:
    """Count the strong ranks in [lo, hi); find the smallest-rank optimum."""
    import numpy as np
    if not 0 <= lo <= hi <= 1 << graph.m:
        raise UsageError(f"rank range [{lo},{hi}) outside 0..2^{graph.m}")
    diameter, rank, strong = _score(graph, (
        (ranks, np.ones_like(ranks)) for ranks in _survivors(graph, lo, hi)))
    return RangeResult(hi - lo, strong, diameter,
                       rank if diameter < math.inf else None)


# ============================================================================
# One representative per orbit of the twin permutations
# ============================================================================

def _incidence(graph: EnumGraph) -> list:
    """Each vertex's (neighbour set, edge indices ascending, M_x, S_x), the
    last two as `_crossing` gives them for the vertex alone, from one pass
    over the edges."""
    near = [set() for _ in range(graph.n)]
    rows = [[] for _ in range(graph.n)]
    masks, into = [0] * graph.n, [0] * graph.n
    for j, (u, v) in enumerate(graph.edges):
        near[u].add(v)
        near[v].add(u)
        rows[u].append(j)
        rows[v].append(j)
        masks[u] |= 1 << j
        masks[v] |= 1 << j
        into[u] |= 1 << j
    return [(frozenset(t), row, m_x, s_x)
            for t, row, m_x, s_x in zip(near, rows, masks, into)]


def _twin_classes(graph: EnumGraph, side: int, incidence=None) -> list:
    """The twin classes of one side, the vertices with the same neighbours,
    as (neighbour set, copies in index order) pairs."""
    classes = {}
    for x, (twins, *_) in enumerate(incidence or _incidence(graph)):
        if graph.sides[x] == side:
            classes.setdefault(twins, []).append(x)
    return list(classes.items())


def _candidates(classes) -> int:
    """The orbit representatives `_orbits` enumerates over these classes:
    per class of k copies with d neighbours, the multisets of k keys among
    the 2^d - 2 that are neither all in nor all out."""
    return math.prod(math.comb(max((1 << len(twins)) - 2, 0) + len(xs) - 1,
                               len(xs)) for twins, xs in classes)


def _group(bits, rows: list, a: int, k: int) -> tuple:
    """The table of one group: copies a+1..a+g of a class of k twins, where
    copy i's rank bits are the key bits `bits` (one row per key index)
    spread over its edges `rows[i - a - 1]`.

    One column per multiset of g key indices, as g non-increasing keys, in
    order of the first key, with the rows of `_orbits`' level tables: rank
    contribution, product of C(e, l) over the runs that close inside the
    group but the leading one, last key, length of the trailing run of
    equal keys, a row for `_orbits` to fill, first key and length of the
    leading run.  The last group of a class closes its trailing run at
    copy k.

    After a class's first group (a > 0) the leading run joins the carried
    run (its key, length r) when its key is the carried one, so the table
    comes with (factor, extra, stride, joined): `factor` and `extra`,
    flattened from (joined, r, leading run length L) with strides `joined`
    and `stride`, give the binomials of the carried and the leading run's
    closes, and what the carried run adds to the trailing run, which is the
    leading one when all g keys are equal.  At a = 0 nothing is carried
    and every such factor is 1, so None comes instead."""
    import numpy as np
    g, comb, ends = len(rows), math.comb, a + len(rows) == k
    spread = bits @ (1 << np.array(rows, dtype=np.int64).T)
    table = np.ones((7, len(bits)), dtype=np.int64)
    contrib, closed, last, run, _, first, lead = table
    contrib[:] = spread[:, 0]
    first[:] = last[:] = np.arange(len(bits))
    for i in range(1, g):   # extend each multiset by every key up to its last
        width = last + 1
        start = np.cumsum(width) - width
        copy = np.repeat(np.arange(len(width)), width)
        key = np.arange(len(copy)) - start[copy]
        table = np.take(table, copy, axis=1)
        contrib, closed, last, run, _, first, lead = table
        new = key != last
        if i > 1:   # the first run to close is the leading one
            binom = np.array([comb(a + i, n) for n in range(i + 1)])
            closed *= np.where(new & (first != last), binom[run], 1)
        run[:] = np.where(new, 1, run + 1)
        lead += key == first
        contrib += spread[key, i]
        last[:] = key
    if ends:
        binom = np.array([comb(k, n) for n in range(g + 1)])
        closed *= np.where(lead < g, binom[run], 1)
    if a == 0:
        return table, None
    # the leading run, r copies longer if joined, closes at copy a + L
    # unless it is the trailing run of a class that goes on
    pairs = np.array([[[((1 if joined else comb(a, r)) *
                         (comb(a + n, n + r * joined) if n < g or ends else 1),
                         r * joined * (n == g and not ends))
                        for n in range(g + 1)] for r in range(a + 1)]
                      for joined in (0, 1)], dtype=np.int64)
    return table, (pairs[..., 0].ravel(), pairs[..., 1].ravel(), g + 1,
                   (a + 1) * (g + 1))


def _orbits(graph: EnumGraph):
    """(ranks, orbit sizes) of the orbit representatives that `_search`
    decides, as the two rows of int64 arrays of at most _PUSH columns (or
    one expansion's, if more).

    Each copy of the chosen side takes a key index, at most its previous
    twin's, so keys do not increase within a class; the index skips the
    all-in and all-out keys.  One level per group of twins: a class's
    copies in runs of as many as have at most _BATCH multisets of keys (at
    least one copy), each read from a table (`_group`).  A prefix's state
    is (rank, orbit size, previous key index, run of equal keys ending
    there, table columns [lo, hi) still to try); a prefix takes the table
    columns whose first key is at most its previous key, a first part of
    the table, or all of it at a class's first group.  A class's
    multinomial is the product, over its runs of equal keys, of C(e, l)
    for a run of length l ending at copy e, and a run carried across a
    group boundary closes in the next group's expansion, so an orbit size
    is built by exact products alone.  A stack of states is expanded
    depth first, at most _BATCH columns at a time: an entry that would
    expand to more expands its first prefixes, or the last _BATCH columns
    of one prefix, and keeps the rest.  The other side's vertices and
    `graph.cuts` are judged at the level that sets their last edge."""
    import numpy as np
    incidence = _incidence(graph)
    classes = [_twin_classes(graph, s, incidence) for s in (0, 1)]
    side = min((0, 1), key=lambda s: _candidates(classes[s]))
    # per level: the table of its group, the factors of a carried run (or
    # None) and its checks; per edge the level that sets its bit
    levels, set_by = [], {}
    for _, copies in classes[side]:
        rows = [incidence[x][1] for x in copies]
        d, k, s_x = len(rows[0]), len(copies), incidence[copies[0]][3]
        into = sum((s_x >> j & 1) << b for b, j in enumerate(rows[0]))
        keys = np.delete(np.arange(1 << d, dtype=np.int64),
                         [into, into ^ ((1 << d) - 1)])
        bits = keys[:, None] >> np.arange(d) & 1
        a = 0
        while a < k:
            g = 1
            while a + g < k and math.comb(len(keys) + g, g + 1) <= _BATCH:
                g += 1
            for row in rows[a:a + g]:
                set_by.update(dict.fromkeys(row, len(levels)))
            levels.append((*_group(bits, rows[a:a + g], a, k), []))
            a += g
    for m_x, s_x in _parts(graph, incidence, [
            x for x in range(graph.n) if graph.sides[x] != side]):
        last = max(set_by[j] for j in range(graph.m) if m_x >> j & 1)
        levels[last][2].append((m_x, s_x))
    # each table column's hi at the next level: all of that level's
    # columns where it opens a class, else those whose first key is at
    # most this column's last
    for (table, _, _), (then, carried, _) in zip(levels, levels[1:]):
        table[4] = np.searchsorted(then[5], table[2], side="right") \
            if carried else then.shape[1]
    stack = [(0, np.array([[0], [1], [0], [0], [0], [levels[0][0].shape[1]]],
                          dtype=np.int64))]
    pending, count = [], 0
    while stack:
        level, state = stack.pop()
        width = state[5] - state[4]
        if width.sum() > _BATCH:
            fit = int(np.searchsorted(np.cumsum(width), _BATCH, side="right"))
            rest = state[:, fit:]
            if fit:
                state = state[:, :fit]
            else:
                state = state[:, :1].copy()
                rest[5, 0] -= _BATCH
                state[4] = rest[5, 0]
            stack.append((level, rest))
        nxt = _expand(*levels[level], state, level + 1 < len(levels))
        level += 1
        if level < len(levels):
            if nxt.shape[1]:
                stack.append((level, nxt))
            continue
        if count and count + nxt.shape[1] > _PUSH:
            yield np.concatenate(pending, axis=1)
            pending, count = [], 0
        pending.append(nxt)
        count += nxt.shape[1]
    if count:
        yield np.concatenate(pending, axis=1)


def _expand(table, carried, checks, state, inner: bool):
    """The states one level of `_orbits` makes of `state`, each column's
    table columns [lo, hi) in turn, with the checks applied: all six rows,
    or only (rank, orbit size) at the last level (`inner` false).  Apart
    from `_orbits`, so that its index arrays are freed before a batch is
    yielded to the reach push."""
    import numpy as np
    contrib, closed, last, trail, upto, first, lead = table
    width = state[5] - state[4]
    # expanded column c is state column copy[c] with table column idx[c];
    # a state's columns end at its hi
    copy = np.repeat(np.arange(len(width)), width)
    idx = np.arange(len(copy)) - (np.cumsum(width) - state[5])[copy]
    rank = state[0][copy]
    rank |= contrib[idx]
    if checks:
        keep = np.flatnonzero(_passing(rank, checks))
        copy, idx, rank = copy[keep], idx[keep], rank[keep]
    nxt = np.empty((6 if inner else 2, len(rank)), dtype=np.int64)
    nxt[0] = rank
    size = nxt[1]
    np.take(state[1], copy, out=size)
    size *= closed[idx]
    if carried:
        factor, extra, stride, joined = carried
        at = state[3][copy] * stride
        at += lead[idx]
        at += (first[idx] == state[2][copy]) * joined
        size *= factor[at]
    if inner:
        np.take(last, idx, out=nxt[2])
        np.take(trail, idx, out=nxt[3])
        if carried:
            nxt[3] += extra[at]
        nxt[4] = 0
        np.take(upto, idx, out=nxt[5])
    return nxt


def _search(graph: EnumGraph, symmetry: bool) -> OracleResult:
    """Decide one assignment per orbit of the twin permutations.

    Twins are vertices with one side and one neighbour set; the search
    permutes the twin classes of the side with fewer candidates
    (`_candidates`).  Every edge has exactly one end on that side, so a
    rank is one row of bits per copy there, read as the copy's key (bit b
    is its b-th edge by index), and permuting twins permutes their rows:
    an orbit is one multiset of keys per class, of size the multinomial
    k!/prod(mult!), all with one diameter.  Its smallest rank lists each
    class's keys non-increasing by copy: swapping adjacent twins whose keys
    increase, K_i < K_(i+1), changes only the edges where the two rows
    differ, and the highest of these is copy i+1's edge at the highest key
    bit where they differ, where K_(i+1) has the 1 and K_i the 0; so the
    swap lowers the rank.  This rests on the layout that
    `test_search_premises` checks: each later twin has the same neighbour
    order and the same end on every edge, and each of its edges a higher
    index than the matching edge of the previous twin.  A copy whose row is
    all in or all out is a sink or a source, so those keys are never
    taken.  The strong count is the sum of the strong orbits' sizes, and
    the witness the smallest optimal representative, which is the smallest
    optimal rank, as (tail, head) names of `graph`, both from `_score`.
    `examined` counts 2^m assignments, or with `symmetry` one per reversal
    pair.

    Some rank is strong: every edge of a valid multiplied tree, and of
    K(p,q) with p, q >= 2, joins two blocks of at least two copies, so lies
    on a 4-cycle, and by Robbins' theorem (1939) a connected bridgeless
    graph has a strong orientation; conversely a strong orientation crosses
    every cut both ways, so the filter may drop a rank that points a branch
    subtree's center edges all one way.  Both graphs are bipartite, as the
    reach push requires."""
    diameter, rank, strong = _score(graph, _orbits(graph))
    names = graph.names
    arcs = tuple((names[v], names[u]) if rank >> j & 1
                 else (names[u], names[v])
                 for j, (u, v) in enumerate(graph.edges))
    return OracleResult(int(diameter), arcs, 1 << (graph.m - symmetry),
                        strong)


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
