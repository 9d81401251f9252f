"""Exhaustive-search oracle: known values, determinism, partitioning."""

import math
import re
from functools import partial
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient4 import oracle
from orient4.digraph import (Orientation, diameter, from_edge_list,
                             is_strong)
from orient4.errors import Refusal, UsageError
from orient4.oracle import (_BATCH, EnumGraph, _batch_diameters,
                            _survivors, bipartite_graph,
                            bipartite_orientation_number, find_bridge,
                            graph_from_spec, orientation_number,
                            search_rank_range)
from orient4.tree import BranchSpec, TreeSpec, edge_count, validate


def p5_all2():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,))))


def deg3_all2():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(2, ())))


def mixed_spec():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(3, (2,))))


def sides_9_4():
    # 22 edges; the center and leaf copies make a side of 9 vertices and
    # the branch copies one of 4, so the reach halves are uint16
    return TreeSpec(2, (BranchSpec(2, (2, 3)), BranchSpec(2, (2,))))


def c1_24_edges():
    # the benchmark's 24-edge C1 spec
    return TreeSpec(2, (BranchSpec(2, ()), BranchSpec(2, (2,)),
                        BranchSpec(2, (2, 2))))


def check_witness(spec, res):
    """The oracle's witness arcs, written as `tail -> head` lines and read
    back through `from_edge_list`, as `orient4 verify` reads them, then
    checked with the program's own kernel: strong, with the reported
    diameter."""
    witness = from_edge_list(spec, "".join(f"{t} -> {h}\n"
                                           for t, h in res.witness_arcs))
    assert diameter(witness) == res.orientation_number, spec
    assert is_strong(witness), spec


# ----------------------------------------------------------------------------
# known values
# ----------------------------------------------------------------------------

def test_path_shape_has_orientation_number_4():
    res = orientation_number(p5_all2())
    assert res.orientation_number == 4
    assert res.orientations_examined == 1 << 16
    check_witness(p5_all2(), res)


def test_degree_three_doubled_needs_5():
    res = orientation_number(deg3_all2())
    assert res.orientation_number == 5
    check_witness(deg3_all2(), res)


def test_bipartite_closed_form():
    assert bipartite_orientation_number(2, 2).orientation_number == 3
    assert bipartite_orientation_number(2, 3).orientation_number == 4
    assert bipartite_orientation_number(3, 3).orientation_number == 3


def test_directed_four_cycle_has_diameter_3():
    # on K(2,2), rank 6 orients a1->b1->a2->b2->a1
    graph = bipartite_graph(2, 2)
    res = search_rank_range(graph, 6, 7)
    assert res.best_diameter == 3
    assert res.best_rank == 6
    assert res.strong_count == 1


# ----------------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------------

def test_result_invariant_under_branch_relabeling():
    a = TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(3, (2,))))
    b = TreeSpec(2, (BranchSpec(3, (2,)), BranchSpec(2, (2,))))
    assert orientation_number(a).orientation_number == \
        orientation_number(b).orientation_number


def test_symmetry_halving_same_witness_and_count():
    # both modes decide each reversal pair once; each must report what a
    # scan of every rank finds, and differ only in the count examined; a
    # spec's witness is re-checked as an orientation
    specs = [spec for spec in valid_specs() if edge_count(spec) <= 24]
    assert len(specs) == 26
    cases = [(spec, graph_from_spec(spec), partial(orientation_number, spec))
             for spec in specs] + \
        [((p, q), bipartite_graph(p, q),
          partial(bipartite_orientation_number, p, q))
         for p in range(2, 5) for q in range(p, 20 // p + 1)]
    for label, graph, run in cases:
        full = search_rank_range(graph, 0, 1 << graph.m)
        for symmetry in (False, True):
            res = run(symmetry=symmetry)
            rank = sum(1 << j for j, (u, v) in enumerate(graph.edges)
                       if res.witness_arcs[j] == (graph.names[v],
                                                   graph.names[u]))
            assert (res.orientation_number, rank, res.strong_count) == \
                (full.best_diameter, full.best_rank, full.strong_count), \
                (label, symmetry)
            assert res.orientations_examined == \
                1 << (graph.m - symmetry), (label, symmetry)
            if isinstance(label, TreeSpec):
                check_witness(label, res)


def test_witness_is_smallest_rank():
    graph = graph_from_spec(p5_all2())
    full = search_rank_range(graph, 0, 1 << 16)
    # no smaller rank achieves the optimum
    before = search_rank_range(graph, 0, full.best_rank)
    assert before.best_rank is None or \
        before.best_diameter > full.best_diameter


@pytest.mark.parametrize("spec", [deg3_all2(), c1_24_edges()],
                         ids=["20-edges", "24-edges"])
def test_smallest_rank_wins_across_batches(monkeypatch, spec):
    # with one batch per block of _BATCH ranks, the optimum is reached in
    # many batches, and only the first may set the witness
    graph = graph_from_spec(spec)
    full = search_rank_range(graph, 0, 1 << graph.m)
    monkeypatch.setattr(oracle, "_PUSH", 1)
    assert search_rank_range(graph, 0, 1 << graph.m) == full
    before = search_rank_range(graph, 0, full.best_rank)
    assert before.best_rank is None or \
        before.best_diameter > full.best_diameter


# ----------------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------------

def test_budget_refusal():
    big = TreeSpec(3, (BranchSpec(3, (3, 3)), BranchSpec(3, (3, 3)),
                       BranchSpec(3, (3,))))
    with pytest.raises(Refusal) as err:
        orientation_number(big, max_edges=24)
    assert "budget" in str(err.value)


def test_bipartite_budget_refusal():
    with pytest.raises(Refusal):
        bipartite_orientation_number(5, 6, max_edges=24)


def valid_specs():
    """Every valid spec with s in {2, 3} and two or three branches of
    multiplicity 2-3, each with 0-2 leaves of multiplicity 2-3."""
    branches = [BranchSpec(mult, leaves) for mult in (2, 3)
                for count in range(3)
                for leaves in combinations_with_replacement((2, 3), count)]
    return [spec for s in (2, 3) for width in (2, 3)
            for chosen in combinations_with_replacement(branches, width)
            if not validate(spec := TreeSpec(s, chosen))]


def off_4_cycles(n, edges):
    """Indices of the edges (u, v) on no 4-cycle u-v-x-y: no x in N(v) - {u}
    is adjacent to any y in N(u) - {v}."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [j for j, (u, v) in enumerate(edges)
            if not any(adj[x] & (adj[u] - {v}) for x in adj[v] - {u})]


def test_bridge_detection():
    # a path graph has bridges everywhere
    assert find_bridge(3, ((0, 1), (1, 2))) is not None
    # a 4-cycle has none
    assert find_bridge(4, ((0, 1), (1, 2), (2, 3), (3, 0))) is None
    # two 4-cycles joined by one edge, index 4, the only bridge
    assert find_bridge(8, ((0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5),
                           (5, 6), (6, 7), (7, 4))) == 4
    graph = graph_from_spec(p5_all2())
    assert find_bridge(graph.n, graph.edges) is None
    # a branch of one copy, which validate rejects, leaves each of its leaf
    # copies a single edge, a bridge
    one_copy = TreeSpec(2, (BranchSpec(1, (2,)), BranchSpec(2, (2,))))
    assert validate(one_copy)
    graph = graph_from_spec(one_copy)
    assert find_bridge(graph.n, graph.edges) is not None
    assert off_4_cycles(graph.n, graph.edges) == [6, 7]


def test_search_premises():
    # the premises of the search, which runs no bridge check: every edge of
    # a valid spec's graph, and of K(p,q) with p, q >= 2, joins two blocks
    # of at least two copies, so lies on a 4-cycle; and, as the reach push
    # needs, every edge joins the two stated sides, and side 1 is exactly
    # the vertices named b... (branch copies, or K(p,q)'s second side)
    specs = valid_specs()
    assert len(specs) == 770
    graphs = [(spec, graph_from_spec(spec)) for spec in specs] + \
        [((p, q), bipartite_graph(p, q)) for p in range(2, 8)
         for q in range(p, 63 // p + 1)]
    assert len(graphs) == 847
    for label, graph in graphs:
        assert off_4_cycles(graph.n, graph.edges) == [], label
        assert all(graph.sides[u] != graph.sides[v]
                   for u, v in graph.edges), label
        assert graph.sides == tuple(int(name.startswith("b"))
                                    for name in graph.names), label


@pytest.mark.parametrize("run, message", [
    (lambda: search_rank_range(bipartite_graph(2, 3), 0, 128),
     r"^rank range \[0,128\) outside 0\.\.2\^6$"),
    (lambda: bipartite_orientation_number(1, 3),
     "^both sides need at least 2 vertices$"),
], ids=["rank-range", "bipartite-side"])
def test_usage_errors(run, message):
    with pytest.raises(UsageError, match=message):
        run()


def test_strong_count_positive_and_diameters_finite():
    res = orientation_number(p5_all2())
    assert 0 < res.strong_count < res.orientations_examined
    assert math.isfinite(res.orientation_number)


@pytest.mark.parametrize("p, q, message", [
    (2, 31, "too many vertices"),   # more than 32, the engine's bound
    (5, 13, "too many edges"),      # an int64 rank holds 63 edge bits
])
def test_oversized_graph_refused_before_search(monkeypatch, p, q, message):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an oversized graph")
    monkeypatch.setattr(oracle, "search_rank_range", no_search)
    monkeypatch.setattr(oracle, "_batch_diameters", no_search)
    with pytest.raises(Refusal, match=message):
        bipartite_orientation_number(p, q, max_edges=p * q)


def _no_graph(*args):
    raise AssertionError("built the graph of a refused instance")


@pytest.mark.parametrize("run, message", [
    (lambda: bipartite_orientation_number(2000, 2000), "edge budget"),
    (lambda: bipartite_orientation_number(100_000, 100_000), "edge budget"),
    (lambda: bipartite_orientation_number(2, 31, max_edges=62),
     "too many vertices"),
    (lambda: orientation_number(TreeSpec(2, (BranchSpec(2, (2,) * 8),) * 2),
                                max_edges=100), "too many vertices"),
    (lambda: orientation_number(TreeSpec(3, (BranchSpec(3, (3, 3)),) * 3),
                                max_edges=24), "edge budget"),
], ids=["budget", "huge-budget", "bipartite-vertices", "spec-vertices",
        "spec-budget"])
def test_oversized_graph_refused_before_it_is_built(monkeypatch, run,
                                                    message):
    monkeypatch.setattr(oracle, "bipartite_graph", _no_graph)
    monkeypatch.setattr(oracle, "graph_from_spec", _no_graph)
    with pytest.raises(Refusal, match=message):
        run()


# ----------------------------------------------------------------------------
# pinned counts
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("spec, want", [
    (p5_all2(), (65_536, 1_604, 4, 26_172)),
    (deg3_all2(), (1_048_576, 7_952, 5, 209_750)),
    (c1_24_edges(), (16_777_216, 36_944, 5, 3_356_003)),
    (sides_9_4(), (4_194_304, 15_156, 4, 1_603_132)),
    (mixed_spec(), (1_048_576, 59_676, 4, 366_716)),
])
def test_full_scan_counts(spec, want):
    graph = graph_from_spec(spec)
    res = search_rank_range(graph, 0, 1 << graph.m)
    assert (res.examined, res.strong_count, res.best_diameter,
            res.best_rank) == want


@pytest.mark.parametrize("p, q, strong", [
    (2, 2, 2), (2, 3, 6), (3, 3, 102), (3, 4, 906), (4, 5, 415_650)])
def test_bipartite_strong_counts(p, q, strong):
    assert bipartite_orientation_number(p, q).strong_count == strong


# ----------------------------------------------------------------------------
# the batch kernel against an independent one
# ----------------------------------------------------------------------------

def reference_diameters(graph, ranks):
    """Out- and in-neighbour masks for every rank, the degree filter on
    them, then reach sets extended through the one-step masks."""
    n, edges = graph.n, graph.edges
    a = len(ranks)
    out = np.zeros((a, n), dtype=np.uint32)
    inn = np.zeros((a, n), dtype=np.uint32)
    for j, (u, v) in enumerate(edges):
        rev = ((ranks >> j) & 1).astype(bool)
        out[:, u] |= np.where(rev, 0, np.uint32(1) << np.uint32(v))
        inn[:, v] |= np.where(rev, 0, np.uint32(1) << np.uint32(u))
        out[:, v] |= np.where(rev, np.uint32(1) << np.uint32(u), 0)
        inn[:, u] |= np.where(rev, np.uint32(1) << np.uint32(v), 0)

    diam = np.full(a, math.inf)
    alive = (out != 0).all(axis=1) & (inn != 0).all(axis=1)
    idx = np.flatnonzero(alive)
    if idx.size == 0:
        return diam

    self_mask = (np.uint32(1) << np.arange(n, dtype=np.uint32))[None, :]
    reach1 = out[idx] | self_mask          # reach within <= 1 step, closed
    reach = reach1.copy()
    full = np.uint32((1 << n) - 1)

    done = (reach == full).all(axis=1)
    diam[idx[done]] = 1.0
    active = np.flatnonzero(~done)
    t = 1
    while active.size and t < n:
        cur = reach[active]
        step = reach1[active]
        acc = cur.copy()
        for x in range(n):
            hasx = ((cur >> np.uint32(x)) & 1).astype(np.uint32)
            acc |= hasx * step[:, x:x + 1]
        t += 1
        reach[active] = acc
        newly = (acc == full).all(axis=1)
        grew = (acc != cur).any(axis=1)
        diam[idx[active[newly]]] = float(t)
        active = active[~newly & grew]
    return diam


def dfs_rank(graph):
    """A strong orientation of a connected bridgeless graph (Robbins): each
    edge points the way a depth-first search first crosses it, so tree edges
    lead away from the root and every other edge back to an ancestor."""
    adj = [[] for _ in range(graph.n)]
    for j, (u, v) in enumerate(graph.edges):
        adj[u].append((v, j))
        adj[v].append((u, j))
    seen, used = [False] * graph.n, [False] * graph.m
    seen[0] = True
    rank = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        u, it = stack[-1]
        for w, j in it:
            if used[j]:
                continue
            used[j] = True
            if graph.edges[j][0] != u:
                rank |= 1 << j
            if not seen[w]:
                seen[w] = True
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
    return rank


def isolated_vertex():
    k = bipartite_graph(2, 9)
    return EnumGraph(k.names + ("z",), k.edges, k.sides + (0,))


# reach halves are uint8 up to 8 vertices on the larger side, uint16 up to
# 16 and uint32 up to 32
KERNEL_GRAPHS = [(spec, graph_from_spec(spec))
                 for spec in (p5_all2(), deg3_all2(), mixed_spec(),
                              sides_9_4())] + \
    [(None, bipartite_graph(p, q))
     for p, q in ((2, 2), (2, 3), (3, 3), (3, 4), (2, 6), (4, 4), (3, 6),
                  (2, 14), (2, 15), (2, 30))] + \
    [(None, isolated_vertex())]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_diameters_match_reference_and_digraph(data):
    spec, graph = data.draw(st.sampled_from(KERNEL_GRAPHS))
    top = 1 << graph.m
    lo = data.draw(st.integers(0, top - 1))
    hi = data.draw(st.integers(lo + 1, min(top, lo + 4000)))
    extra = data.draw(st.lists(st.integers(0, top - 1), max_size=20))
    # random ranks of a large graph are almost never strong, so also take a
    # strong one and a few edge flips away from it
    strong = dfs_rank(graph)
    flips = data.draw(st.lists(st.sets(st.integers(0, graph.m - 1),
                                       max_size=3), max_size=20))
    near = [strong ^ sum(1 << j for j in js) for js in flips]
    # ranks 0 and top - 1 point every edge one way, so each has a source
    # and a sink
    ranks = np.array([*range(lo, hi), 0, top - 1, strong, *extra, *near],
                     dtype=np.int64)
    got = _batch_diameters(graph, ranks)
    assert np.array_equal(got, reference_diameters(graph, ranks))
    assert math.isinf(got[hi - lo]) and math.isinf(got[hi - lo + 1])
    # the search from vertex 0 orients its component; a vertex without
    # edges is reached by none
    spanning = {v for e in graph.edges for v in e} == set(range(graph.n))
    assert math.isfinite(got[hi - lo + 2]) == spanning
    if spec is None:
        return
    finite = np.flatnonzero(np.isfinite(got))
    for i in (*finite[:25], *range(min(len(ranks), 25))):
        r = int(ranks[i])
        d = Orientation(spec, tuple((r >> j) & 1 for j in range(graph.m)))
        assert diameter(d) == got[i]
        assert is_strong(d) == math.isfinite(got[i])


def test_batch_diameters_retire_columns_in_place():
    # eight K(3,4) columns that retire in rounds 2, 4, 5, 5, 5, 6, 6, 6.
    # Rank 0 points every edge from side a to side b, so no row grows after
    # round 1 and its column stagnates in round 2; the diameter-4 column is
    # full from round 4 on.  A retired column rides along to the end of the
    # batch, so the diameter-4 column must keep 4 and rank 0 must keep inf
    # through the pushes of rounds 5 and 6
    graph = bipartite_graph(3, 4)
    scan = reference_diameters(graph, np.arange(1 << graph.m, dtype=np.int64))
    d4, d5, d6 = (np.flatnonzero(scan == d)[:3] for d in (4, 5, 6))
    ranks = np.array([d6[0], d5[0], 0, d6[1], d4[0], d5[1], d6[2], d5[2]],
                     dtype=np.int64)
    assert _batch_diameters(graph, ranks).tolist() == \
        [6, 5, math.inf, 6, 4, 5, 6, 5]
    # riding along changes no column: the batch agrees with each rank
    # pushed alone
    assert _batch_diameters(graph, ranks).tolist() == \
        [_batch_diameters(graph, ranks[i:i + 1])[0] for i in range(8)]
    for batch in (ranks, np.array([], dtype=np.int64)):
        assert np.array_equal(_batch_diameters(graph, batch),
                              reference_diameters(graph, batch))


def test_edge_within_a_side_is_refused_before_any_push():
    # the push keeps one reach half per side, so a triangle, whose edge x-z
    # joins two vertices of side 0, has no layout; ranks=None shows that
    # nothing is computed before the refusal
    triangle = EnumGraph(("x", "y", "z"), ((0, 1), (1, 2), (0, 2)),
                         (0, 1, 0))
    with pytest.raises(UsageError, match="^graph is not bipartite"):
        _batch_diameters(triangle, None)
    # ranks 3 and 4 orient the triangle as a directed cycle, so they pass
    # the source/sink filter and reach the kernel
    assert [int(r) for b in _survivors(triangle, 0, 8) for r in b] == [3, 4]
    with pytest.raises(UsageError, match="^graph is not bipartite"):
        search_rank_range(triangle, 0, 8)


# ----------------------------------------------------------------------------
# the block filter against the rank-wise one
# ----------------------------------------------------------------------------

def branch_subtrees(graph):
    """The vertex set of each branch's copies b<i>.y and their leaf copies
    l<i>.<alpha>.z, read off the printed names; none for K(p,q)."""
    subtrees = {}
    for v, name in enumerate(graph.names):
        if hit := re.match(r"[bl](\d+)\.", name):
            subtrees.setdefault(hit[1], set()).add(v)
    return list(subtrees.values())


def reference_survivors(graph, lo, hi):
    """Every rank of [lo, hi) built, then one compare of its bits per vertex:
    v is a sink iff its edges' bits (mask M_v) equal S_v, every edge into v,
    and a source iff they equal S_v ^ M_v; M_v = 0 counts as both.  Then,
    edge by edge, an arc out of and an arc into every branch subtree, as a
    strong orientation crosses every cut both ways."""
    ranks = np.arange(lo, hi, dtype=np.int64)
    edges = graph.edges
    alive = np.ones(len(ranks), dtype=bool)
    for v in range(graph.n):
        m_v = sum(1 << j for j, e in enumerate(edges) if v in e)
        s_v = sum(1 << j for j, e in enumerate(edges) if e[0] == v)
        bits = ranks & m_v
        alive &= (bits != s_v) & (bits != s_v ^ m_v)
    for subtree in branch_subtrees(graph):
        out = np.zeros(len(ranks), dtype=bool)
        into = np.zeros(len(ranks), dtype=bool)
        for j, (u, v) in enumerate(edges):
            if (u in subtree) != (v in subtree):
                leaves = ((ranks >> j) & 1 == 0) == (u in subtree)
                out |= leaves
                into |= ~leaves
        alive &= out & into
    return ranks[alive]


def high_edges_only():
    # K(2,8) is edges 0-15; x is joined to a1 and a2 by edges 16 and 17
    # alone, so every block whose two high bits make x a source or a sink
    # is rejected whole
    k = bipartite_graph(2, 8)
    return EnumGraph(k.names + ("x",), k.edges + ((0, 10), (1, 10)),
                     k.sides + (1,))


# m below, at and above log2(_BATCH) = 16; K(5,5) has blocks with more
# than _PUSH survivors.  Branch subtrees cross at their center edges, the
# first edges: the three small specs cross below bit 16, (3; (3,[2]),
# (3,[2])) has branch 2 across bit 16 (edges 9-17), and five (2,[2])
# branches have branch 5 above it (edges 16-19)
FILTER_GRAPHS = [bipartite_graph(2, 3), graph_from_spec(mixed_spec()),
                 graph_from_spec(p5_all2()), graph_from_spec(deg3_all2()),
                 bipartite_graph(5, 5), high_edges_only(), isolated_vertex(),
                 graph_from_spec(TreeSpec(3, (BranchSpec(3, (2,)),) * 2)),
                 graph_from_spec(TreeSpec(2, (BranchSpec(2, (2,)),) * 5))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_survivors_match_rank_wise_filter(data):
    graph = data.draw(st.sampled_from(FILTER_GRAPHS))
    top = 1 << graph.m
    # both ends within two blocks of one block boundary, so many ranges
    # cross it; an end is unaligned or on a boundary
    edge = data.draw(st.integers(0, top // _BATCH)) * _BATCH
    near = [edge + k * _BATCH for k in range(-2, 3)
            if 0 <= edge + k * _BATCH <= top]
    end = st.integers(near[0], near[-1]) | st.sampled_from(near)
    lo, hi = sorted((data.draw(end), data.draw(end)))
    blocks = list(_survivors(graph, lo, hi))
    assert all(len(b) <= _BATCH for b in blocks)
    got = np.concatenate(blocks) if blocks else np.array([], dtype=np.int64)
    assert np.array_equal(got, reference_survivors(graph, lo, hi))


@pytest.mark.parametrize("spec", [p5_all2(), deg3_all2(), mixed_spec()],
                         ids=["p5", "deg3", "mixed"])
def test_filter_drops_only_non_strong_ranks(spec):
    # every rank of the full scan that the filter drops, by the vertex rule
    # or the subtree rule, is not strong; and the subtree rule drops ranks
    # that the vertex rule keeps
    graph = graph_from_spec(spec)
    kept = np.concatenate(list(_survivors(graph, 0, 1 << graph.m)))
    vertex_rule = EnumGraph(graph.names, graph.edges, graph.sides)
    assert kept.size < sum(b.size for b in
                           _survivors(vertex_rule, 0, 1 << graph.m))
    for lo in range(0, 1 << graph.m, _BATCH):
        block = np.arange(lo, lo + _BATCH, dtype=np.int64)
        dropped = np.setdiff1d(block, kept, assume_unique=True)
        assert np.isinf(reference_diameters(graph, dropped)).all()
