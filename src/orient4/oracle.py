"""Ground-truth orientation numbers for small instances by exhaustion.

Every one of the 2^|E| direction assignments is ranked by an integer whose
bit j gives edge j's direction (0: as listed canonically, 1: reversed).
The copies of one tree vertex are twins, and permuting twins maps an
assignment to an isomorphic one, so the search decides one assignment per
orbit of these permutations, the orbit's smallest rank, and weighs it by
the orbit's size (`_search`).  The representatives are enumerated one
twin class at a time, each prefix crossed with the class's multisets of
keys, which are built copy by copy (`_orbits`, `_multisets`).  The
reported witness is the numerically smallest optimal rank and the strong
count is exact.  The work is vectorized with numpy, which loads on the
first search, not on import.

A strong orientation has no source or sink, and no branch subtree with
its center edges all pointing one way, so a filter drops such ranks
before any is built.  The survivors' distances are found by a vectorized
reach push over the graph's two sides (`_batch_diameters`), one batch
at a time.  Only the smallest diameter and its ranks must be exact, so
each push stops at its own batch's smallest diameter: each other column
is only told strong or not, by one of two certificates read from its
reach sets.  A vertex whose ball stopped growing short of every vertex
misses one, so the rank is not strong; a root that reaches every vertex
and that every vertex reaches joins any two through it, so it is.  A
column has diameter D exactly when the halves of its reach sets written
in round D - 1, those of one parity of distance, are first all full: a
vertex off them has an in-neighbour on them.  So a batch needs one round
less than its smallest diameter, and a root is certified from those
halves alone.
`search_rank_range` scans a contiguous range of ranks instead, with the
same part checks and scoring (`_passing`, `_score`): the exhaustive
reference for the search.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# numpy is imported inside the search functions that use it, the only
# numpy users in the package, so `import orient4` and every command but
# the oracle start without it

from .errors import Refusal, UsageError
from .tree import (TreeSpec, _blocks, edge_count, edge_pairs, require_valid,
                   vertex_names)

DEFAULT_MAX_EDGES = 24
_BATCH = 1 << 16    # ranks per filtered run, columns per expansion, push


class EnumGraph(NamedTuple):
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


class RangeResult(NamedTuple):
    """Outcome of scanning one contiguous rank range."""

    examined: int
    strong_count: int
    best_diameter: float       # math.inf when nothing strong in range
    best_rank: int | None


class OracleResult(NamedTuple):
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
# `bench/tracing.TARGETS` wraps it, until ROADMAP's "One benchmark change"
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

def _parts(graph: EnumGraph, incidence: list, vertices) -> list:
    """(M_X, S_X) of each vertex of `vertices` alone, then of each cut of
    `graph.cuts`: the bits of the edges crossing X, the XOR of the members'
    M_x (an edge inside X cancels), and their values when all point into X,
    the OR of the members' S_x under M_X.  X is a sink iff a rank's bits
    under M_X equal S_X, a source iff S_X ^ M_X; M_X = 0 counts as both."""
    parts = [incidence[x][2:] for x in vertices]
    for part in graph.cuts:
        m_x = s_x = 0
        for x in part:
            m_x ^= incidence[x][2]
            s_x |= incidence[x][3]
        parts.append((m_x, s_x & m_x))
    return parts


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
    and gathered into arrays of at most _BATCH (`_gathered`)."""
    import numpy as np
    parts = _parts(graph, _incidence(graph), range(graph.n))
    dtype = np.min_scalar_type((1 << graph.m) - 1)
    runs = (np.arange(start, min(start + _BATCH, hi), dtype=dtype)
            for start in range(lo, hi, _BATCH))
    return _gathered(np.compress(_passing(run, parts), run) for run in runs)


def _gathered(arrays):
    """`arrays` joined along their last axis into arrays of at most _BATCH
    columns, a lone one yielded as it is.  Both pay, as measured: it yields
    the last only once `arrays` is spent, so a one-batch search pushes after
    `_orbits` freed its arrays, and the joins save pushes beyond 24 edges."""
    import numpy as np

    def joined(pending):
        return pending[0] if len(pending) == 1 else \
            np.concatenate(pending, axis=-1)

    pending, count = [], 0
    for array in arrays:
        if count and count + array.shape[-1] > _BATCH:
            yield joined(pending)
            pending, count = [], 0
        pending.append(array)
        count += array.shape[-1]
    if count:
        yield joined(pending)


def _batch_diameters(graph: EnumGraph, ranks: np.ndarray) -> np.ndarray:
    """Each assignment rank's diameter, math.inf if it is not strong, exact
    up to the cut c, the batch's smallest diameter; a strong rank of
    diameter above c reads some value in (c, its diameter].  So the batch's
    smallest diameter and every rank with it read exactly, whatever other
    batches hold.

    One column per rank; fwd[j] is all ones where edge j points u -> v
    (bit 0).  After round t, v's reach row holds the vertices within t
    steps of v, kept as two halves, reach[0] over v's own side and
    reach[1] over the other side, one bit per vertex of that side in the
    narrowest unsigned type that holds the larger side.  The rows are
    ordered side 0 first, so a side's rows are one slice, and a vertex's
    bit is its place in its side's slice.  The graph is bipartite, so a
    vertex at distance exactly t from v lies on v's side iff t is even:
    round t grows only the halves reach[t % 2], from the out-neighbours'
    other halves, and the half it writes covers the vertices whose
    distance from v has the parity of t.  No half is both read and
    written in a round, so the push is in place.  The bits past a side's
    size are set from the start, so a half is full when it is all ones.

    Every column is a rank that leaves no vertex a source or a sink, as
    both callers' filters ensure: `_orbits` skips the all-in and all-out
    keys of the searched side and judges every vertex of the other side,
    and `_survivors` judges every vertex (`_passing`).  The rest rests on
    this; a column with a source or a sink may read strong.

    Lemma: a column without a source or a sink has diameter at most D iff
    after round D - 1 every row's half written in that round is full.
    Take two vertices v and w; v's half of round D - 1 covers v's own side
    when D - 1 is even and the other side when it is odd.  If: w on that
    half is within D - 1 steps of v.  Otherwise w has an in-neighbour x,
    on the other side from w, so on that half: x is within D - 1 steps of
    v and w within D.  Only if: w on that half is within D steps of v, at
    a distance of the parity of D - 1, so within D - 1 steps.

    sums[p] holds each column's sum of its halves reach[p] as integers.  A
    half only gains bits, so its value only grows: the halves a round
    writes are all full exactly when their sum is n times all ones, and
    they grew exactly when their sum changed.  A live column whose
    written halves are all full in round t was not done in round t - 1,
    so it has diameter t + 1 by the lemma (written once: `live` masks the
    write), and the first such round is t = c - 1 for the batch's smallest
    diameter c.  No strong column has diameter 1: two vertices of one side
    are not adjacent, and a lone edge leaves a source.  A column that a
    round grows nowhere is at its fixed point and keeps inf.

    From round c - 1 on, two certificates, read from the halves after the
    round, decide the other live columns, so that the push stops there or
    soon after instead of running out the larger diameters:

    - A closed ball is not strong.  If v's written half did not grow in
      round t (`prev` keeps it from before the round), no vertex is at
      distance exactly t from v, so none is farther: v's ball is closed,
      and if v's row is not full, v misses a vertex.  The column keeps inf.
    - A root is strong.  Call r a root if its half written in round t is
      full and r's bit is set in that half of every row that covers r's
      side: the rows of r's own side when t is even, of the other side
      when t is odd.  So r reaches within t steps every vertex of its
      written half, and each vertex off it through an in-neighbour on it;
      each vertex x of a covering row reaches r within t steps, and each
      other vertex through an out-neighbour, on the other side from x, so
      a covering row.  Then any u reaches any w through r.  The column
      was not done in round t, so its diameter is at least t + 2 > c,
      which it reads.

    Both hold in any round, but a column retired early still rides along
    to the end of the batch, so they are read only from round c - 1 on.
    Pushing a retired column changes nothing that is read: `live` masks
    every write of a diameter, and round c - 1 is found only from live
    columns.

    Per parity, each edge's direction row and row views are bound once per
    batch: a round costs five numpy calls per edge and no indexing."""
    import numpy as np
    n, edges, side = graph.n, graph.edges, graph.sides
    if any(side[u] == side[v] for u, v in edges):
        raise UsageError("graph is not bipartite: the reach push needs two "
                         "sides")
    size = (side.count(0), side.count(1))
    half = np.min_scalar_type((1 << max(size)) - 1)
    ones = int(np.iinfo(half).max)
    full = n * ones   # the sum of n full halves
    wide = np.min_scalar_type(full)
    diam = np.full(len(ranks), math.inf)
    live = np.ones(len(ranks), dtype=bool)
    # edge j's bit of each rank: bit j % 8 of the rank's byte j // 8
    octets = np.ascontiguousarray(ranks, dtype="<i8").view(np.uint8)
    j = np.arange(len(edges))
    fwd = octets.reshape(-1, 8).T.take(j // 8, axis=0)
    fwd >>= (j % 8).astype(np.uint8)[:, None]
    fwd &= 1
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
    reach = start.repeat(len(ranks)).reshape(2, n, len(ranks))
    views = list(reach[0]), list(reach[1])   # one view per row, per half
    pushes = [[(to[row[u]], of[row[v]], f, to[row[v]], of[row[u]])
               for (u, v), f in zip(edges, fwd)]
              for to, of in (views, views[::-1])]
    sums = start.sum(axis=1, dtype=wide).repeat(len(ranks)).reshape(2, -1)
    step = np.empty(len(ranks), dtype=half)   # scratch row for every push
    prev = np.empty((n, len(ranks)), dtype=half)
    flags = np.empty((n, len(ranks)), dtype=bool)
    and_, or_, invert, any_ = (np.bitwise_and, np.bitwise_or, np.invert,
                               np.logical_or.reduce)
    at_cut = False   # round c - 1 reached
    t = 0
    while any_(live):
        t += 1
        p = t % 2
        write = reach[p]
        np.copyto(prev, write)
        for to_u, of_v, f, to_v, of_u in pushes[p]:
            and_(of_v, f, step)
            or_(to_u, step, to_u)
            invert(f, step)
            and_(of_u, step, step)
            or_(to_v, step, to_v)
        grown = np.add.reduce(write, axis=0, dtype=wide)
        done = live & (grown == full)
        diam[done] = t + 1
        live &= ~done & (grown != sums[p])
        sums[p] = grown
        at_cut = at_cut or any_(done)
        if not at_cut:
            continue
        # a row that did not grow and is not full: a closed ball
        np.equal(write, prev, out=flags)
        np.bitwise_and(write, reach[1 - p], out=prev)
        np.invert(prev, out=prev)   # zero exactly where a row is full
        live &= ~any_(np.logical_and(flags, prev, out=flags), axis=0)
        # a root: a full written half whose bit is set in the written half
        # of every row over its side, per side s the AND of those halves
        np.equal(write, ones, out=flags)
        for s in (0, 1):
            by_all = np.bitwise_and.reduce(write[mine[s ^ p]], axis=0)
            np.bitwise_and(by_all, bit[mine[s]], out=prev[mine[s]])
        certified = live & any_(np.logical_and(flags, prev, out=flags), axis=0)
        diam[certified] = t + 2
        live &= ~certified
    return diam


def _score(graph: EnumGraph, batches) -> tuple:
    """(best diameter, smallest rank with it, strong weight) over (ranks,
    weights) batches of the filter's survivors, in any order, each pushed
    on its own and exact at its best (`_batch_diameters`).  The diameter
    is math.inf, and the rank not strong or 2^m, when no rank is strong."""
    import numpy as np
    best = (math.inf, 1 << graph.m)   # (diameter, smallest rank with it)
    strong = 0
    for ranks, weights in batches:
        diams = _batch_diameters(graph, ranks)
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
    last two as `_parts` reads them for the vertex alone, from one pass
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


def _twin_classes(graph: EnumGraph, side: int, incidence: list) -> list:
    """The twin classes of one side, the vertices with the same neighbours,
    as (neighbour set, copies in index order) pairs."""
    classes = {}
    for x, (twins, *_) in enumerate(incidence):
        if graph.sides[x] == side:
            classes.setdefault(twins, []).append(x)
    return list(classes.items())


def _candidates(classes) -> int:
    """The orbit representatives `_orbits` enumerates over these classes:
    per class of k copies with d neighbours, the multisets of k keys among
    the 2^d - 2 that are neither all in nor all out (`_multisets`)."""
    return math.prod(math.comb(max((1 << len(twins)) - 2, 0) + len(xs) - 1,
                               len(xs)) for twins, xs in classes)


def _multisets(spread):
    """(rank contributions, orbit sizes) of every multiset of one twin
    class's keys, in int64 arrays of at most _BATCH columns.  `spread` is
    the D x k matrix of the rank bits that copy i sets with key index
    `key`, at [key, i].

    A multiset is read as k key indices, non-increasing by copy: each
    column extends by every key up to its last one, and `run` counts the
    copies of its last key, so its size, the multinomial k!/prod(mult!),
    grows exactly, by (i + 1) / run at copy i + 1.  A column's last
    extension repeats its last key, so only there is run more than 1.
    Before the division the product is at most i! (i + 1) <= 20! < 2^62 up
    to 20 copies; more copies have d <= 3 neighbours, as d * k <= m <= 63,
    so at most 6 keys and 21 copies, or 2 keys and 30 copies (n <= 32),
    and the product is at most D^i (i + 1) <= 6^20 * 21 < 2^57.  An
    extension that would give more than _BATCH columns extends only the
    first columns that fit, at least one, and puts the rest back on the
    stack, which is read depth first.  So a finished array is wider than
    _BATCH, and yielded in slices, only if the class has more keys."""
    import numpy as np
    keys, k = spread.shape
    ones = np.ones(keys, dtype=np.int64)
    stack = [(1, (spread[:, 0], ones, np.arange(keys), ones))]
    while stack:
        i, state = stack.pop()
        contrib, size, last, run = state
        if i == k:
            for at in range(0, len(contrib), _BATCH):
                yield contrib[at:at + _BATCH], size[at:at + _BATCH]
            continue
        width = last + 1
        ends = width.cumsum()
        fit = max(1, int(ends.searchsorted(_BATCH, side="right")))
        if fit < len(width):
            stack.append((i, [row[fit:] for row in state]))
        width, ends = width[:fit], ends[:fit]
        key = np.arange(ends[-1])
        key -= (ends - width).repeat(width)
        repeat = ends - 1   # each column extended by its last key
        runs = np.ones(ends[-1], dtype=np.int64)
        runs[repeat] += run[:fit]
        size = (size[:fit] * (i + 1)).repeat(width)
        size[repeat] //= runs[repeat]
        contrib = contrib[:fit].repeat(width)
        contrib += spread[:, i].take(key)
        stack.append((i + 1, (contrib, size, key, runs)))


def _orbits(graph: EnumGraph):
    """(ranks, orbit sizes) of the orbit representatives that `_search`
    decides, as the two rows of int64 arrays of at most _BATCH columns
    (`_gathered`).

    Each copy of the chosen side takes a key index, at most its previous
    twin's, so keys do not increase within a class; the index skips the
    all-in and all-out keys.  One level per twin class: each prefix, a
    (rank, orbit size) column, is crossed with each of the class's
    multisets (`_multisets`), the rank ORed with the multiset's
    contribution and the size multiplied by its multinomial, at most
    _BATCH columns at a time, depth first.  The other side's vertices and
    `graph.cuts` are judged at the last level whose edges meet theirs."""
    import numpy as np
    incidence = _incidence(graph)
    classes = [_twin_classes(graph, s, incidence) for s in (0, 1)]
    side = min((0, 1), key=lambda s: _candidates(classes[s]))
    # per level, one class: its spread and its checks, and the mask of the
    # edges it sets, the sum of its copies' M_x, which share no edge
    levels, masks = [], []
    for _, copies in classes[side]:
        rows = [incidence[x][1] for x in copies]
        d, s_x = len(rows[0]), incidence[copies[0]][3]
        into = sum((s_x >> j & 1) << b for b, j in enumerate(rows[0]))
        keys = np.array([key for key in range(1 << d)
                         if 0 < key ^ into < (1 << d) - 1], dtype=np.int64)
        bits = keys[:, None] >> np.arange(d) & 1
        masks.append(sum(incidence[x][2] for x in copies))
        levels.append((bits @ (1 << np.array(rows, dtype=np.int64).T), []))
    for m_x, s_x in _parts(graph, incidence, [
            x for x in range(graph.n) if graph.sides[x] != side]):
        last = max(at for at, mask in enumerate(masks) if mask & m_x)
        levels[last][1].append((m_x, s_x))

    def descend(level, prefix):
        if level == len(levels) or not prefix.size:
            yield prefix
            return
        spread, checks = levels[level]
        for contrib, weight in _multisets(spread):
            step = _BATCH // len(contrib)
            for at in range(0, prefix.shape[1], step):
                rank, size = prefix[:, at:at + step, None]
                batch = np.empty((2, len(rank), len(contrib)), np.int64)
                np.bitwise_or(rank, contrib, batch[0])
                np.multiply(size, weight, batch[1])
                batch = batch.reshape(2, -1)
                if checks:   # compress: faster than a boolean index
                    batch = batch.compress(_passing(batch[0], checks), axis=1)
                yield from descend(level + 1, batch)

    yield from _gathered(descend(0, np.array([[0], [1]], dtype=np.int64)))


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
