"""Exhaustive-search oracle: known values, determinism, partitioning."""

import math
import random
import re
import tracemalloc
from functools import partial
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient4 import oracle
from orient4.digraph import (Orientation, diameter, from_edge_list,
                             is_strong)
from orient4.errors import Refusal, UsageError
from orient4.oracle import (_BATCH, EnumGraph, RangeResult, _batch_diameters,
                            _candidates, _incidence, _multisets, _orbits,
                            _parts, _passing, _score, _survivors,
                            _twin_classes, bipartite_graph,
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


def test_range_without_strong_rank():
    # no rank of [0, 6) orients K(2,2) as a directed 4-cycle, and none
    # passes the filter; on the 16-edge path spec rank 13079 passes it but
    # is not strong, and 13080 does not pass.  Such a range, and an empty
    # one, report no rank: neither a filtered one nor the scoring's start
    # value 2^m
    graph = bipartite_graph(2, 2)
    assert search_rank_range(graph, 0, 6) == \
        RangeResult(6, 0, math.inf, None)
    assert search_rank_range(graph, 5, 5) == \
        RangeResult(0, 0, math.inf, None)
    path = graph_from_spec(p5_all2())
    assert [int(r) for b in _survivors(path, 13079, 13081) for r in b] == \
        [13079]
    assert search_rank_range(path, 13079, 13081) == \
        RangeResult(2, 0, math.inf, None)


# ----------------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------------

def test_result_invariant_under_branch_relabeling():
    a = TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(3, (2,))))
    b = TreeSpec(2, (BranchSpec(3, (2,)), BranchSpec(2, (2,))))
    assert orientation_number(a).orientation_number == \
        orientation_number(b).orientation_number


def test_symmetry_halving_same_witness_and_count():
    # both modes decide one assignment per orbit of the twin permutations;
    # each must report what a scan of every rank finds, and differ only in
    # the count examined; a spec's witness is re-checked as an orientation
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
    # with _BATCH = 2^10 the ranks are filtered in runs of 2^10 and pushed
    # in batches of at most 2^10 survivors, so the optimum is reached in
    # many batches, and only the first may set the witness
    graph = graph_from_spec(spec)
    full = search_rank_range(graph, 0, 1 << graph.m)
    monkeypatch.setattr(oracle, "_BATCH", 1 << 10)
    assert search_rank_range(graph, 0, 1 << graph.m) == full
    before = search_rank_range(graph, 0, full.best_rank)
    assert before.best_rank is None or \
        before.best_diameter > full.best_diameter


@pytest.mark.parametrize("spec", [deg3_all2(), c1_24_edges()],
                         ids=["20-edges", "24-edges"])
def test_orbit_search_over_many_batches_matches_the_scan(monkeypatch, spec):
    # with small expansions and pushes, `_orbits` yields many batches, each
    # pushed on its own: the search still finds the full scan's diameter,
    # smallest optimal rank and strong count
    graph = graph_from_spec(spec)
    full = search_rank_range(graph, 0, 1 << graph.m)
    monkeypatch.setattr(oracle, "_BATCH", 32)
    assert len(list(_orbits(graph))) > 50
    res = oracle._search(graph, symmetry=False)
    names = graph.names
    rank = sum(1 << j for j, (arc, (u, v))
               in enumerate(zip(res.witness_arcs, graph.edges))
               if arc == (names[v], names[u]))
    assert (res.orientation_number, rank, res.strong_count) == \
        (full.best_diameter, full.best_rank, full.strong_count)


@pytest.mark.parametrize("graph", [graph_from_spec(deg3_all2()),
                                   graph_from_spec(c1_24_edges()),
                                   bipartite_graph(3, 4)],
                         ids=["20-edges", "24-edges", "K(3,4)"])
def test_batch_order_does_not_matter(monkeypatch, graph):
    # each batch is pushed on its own, so `_score` reads the same diameter,
    # smallest optimal rank and strong weight from `_orbits`' batches in
    # order, reversed or shuffled, and the full scan's
    full = search_rank_range(graph, 0, 1 << graph.m)
    monkeypatch.setattr(oracle, "_BATCH", 16)
    batches = list(_orbits(graph))
    assert len(batches) >= 5
    shuffled = list(range(len(batches)))
    random.Random(37).shuffle(shuffled)
    assert shuffled != sorted(shuffled)
    for order in (batches, batches[::-1], [batches[i] for i in shuffled]):
        assert _score(graph, order) == \
            (full.best_diameter, full.best_rank, full.strong_count)


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
    """The premises of the search, which runs no bridge check and decides
    one assignment per orbit of the twin permutations.

    Every edge of a valid spec's graph, and of K(p,q) with p, q >= 2, joins
    two blocks of at least two copies, so lies on a 4-cycle.  As the reach
    push needs, every edge joins the two stated sides, and side 1 is
    exactly the vertices named b... (branch copies, or K(p,q)'s second
    side).

    Within every twin class (same side, same neighbours), each later twin
    meets its neighbours in the same order of edge index, is the same end
    (parent or child) of each edge, and each of its edges has a higher
    index than the matching edge of the previous twin.  So swapping two
    twins swaps their rows of rank bits, and an orbit's smallest rank has
    each class's keys non-increasing by copy, a key's bit b being the rank
    bit of the copy's b-th edge.  Proof by adjacent swaps: let twins x, y
    be adjacent with keys K_x < K_y.  Swapping them changes only the edges
    where the two rows differ.  The highest of these is y's edge at the
    highest key bit b where they differ (each edge of x lies below y's
    matching edge, and y's edges ascend with b), and there K_y has the 1
    and K_x the 0.  After the swap that bit is 0 and every other changed
    bit is lower, so the rank falls: a smallest rank admits no such pair."""
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
        for side in (0, 1):
            for _, copies in _twin_classes(graph, side, _incidence(graph)):
                # per copy, its edges by index: (neighbour, copy is the
                # parent end, index)
                rows = [[(u + v - x, u == x, j)
                         for j, (u, v) in enumerate(graph.edges)
                         if x in (u, v)] for x in copies]
                for before, after in zip(rows, rows[1:]):
                    assert [e[:2] for e in after] == \
                        [e[:2] for e in before], label
                    assert all(b[2] < a[2] for b, a in zip(before, after)), \
                        label


def crossing(graph, part):
    """(M_X, S_X) of the vertex set X = `part`, edge by edge: the rank bits
    of the edges crossing X, and their values when every crossing edge
    points into X (bit 1 points an edge (u, v) at u)."""
    m_x = s_x = 0
    for j, (u, v) in enumerate(graph.edges):
        if (u in part) != (v in part):
            m_x |= 1 << j
            s_x |= (u in part) << j
    return m_x, s_x


def test_parts_match_the_edge_by_edge_crossing():
    # `_parts` reads each cut's masks from its members' incidence masks:
    # the XOR of their M_x and the OR of their S_x under M_X
    specs = [spec for spec in valid_specs() if edge_count(spec) <= 24]
    assert len(specs) == 26
    cuts = 0
    for spec in specs:
        graph = graph_from_spec(spec)
        parts = [(x,) for x in range(graph.n)] + list(graph.cuts)
        got = _parts(graph, _incidence(graph), range(graph.n))
        assert got == [crossing(graph, part) for part in parts], spec
        cuts += len(graph.cuts)
    assert cuts == 60


def twin_images(graph, side, ranks):
    """Each rank's image under every permutation of the side's twin
    classes, one row per permutation: copy x of a class becomes copy y,
    and edge (u, v) carries its bit to edge (f(u), f(v))."""
    classes = _twin_classes(graph, side, _incidence(graph))
    index = {e: j for j, e in enumerate(graph.edges)}
    rows = []
    for choice in product(*(permutations(xs) for _, xs in classes)):
        f = list(range(graph.n))
        for (_, xs), ys in zip(classes, choice):
            for x, y in zip(xs, ys):
                f[x] = y
        image = np.zeros_like(ranks)
        for j, (u, v) in enumerate(graph.edges):
            image |= (ranks >> j & 1) << index[f[u], f[v]]
        rows.append(image)
    return np.array(rows)


def multiset_arrays(monkeypatch, graph):
    """The arrays `_multisets` yields for each level of `_orbits`, in level
    order, at the current `_BATCH`; every call for one level yields as
    many."""
    counts = {}

    def spy(spread):
        arrays = list(multisets(spread))
        counts[id(spread)] = len(arrays)
        return iter(arrays)
    multisets = oracle._multisets
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_multisets", spy)
        list(_orbits(graph))
    return list(counts.values())


@pytest.mark.parametrize("graph, batch, arrays", [
    pytest.param(bipartite_graph(2, 3), _BATCH, [1], id="K(2,3)"),
    pytest.param(bipartite_graph(3, 3), _BATCH, [1], id="K(3,3)"),
    pytest.param(graph_from_spec(p5_all2()), _BATCH, [1, 1, 1],
                 id="p5"),
    # at most 21 columns per array: K(3,3)'s C(8,3) = 56 multisets of 6
    # keys come in 3 arrays and p5's C(15,2) = 105 of 14 keys in 7, so
    # each orbit is still read once, across the arrays of its class
    pytest.param(bipartite_graph(2, 3), 21, [1], id="K(2,3)-batch-21"),
    pytest.param(bipartite_graph(3, 3), 21, [3], id="K(3,3)-batch-21"),
    pytest.param(graph_from_spec(p5_all2()), 21, [7, 1, 1],
                 id="p5-batch-21"),
])
def test_orbits_are_one_smallest_rank_per_orbit(monkeypatch, graph, batch,
                                                arrays):
    monkeypatch.setattr(oracle, "_BATCH", batch)
    assert multiset_arrays(monkeypatch, graph) == arrays
    # the side searched, with every rank's twin images; the ranks with no
    # all-in or all-out row on that side hold `_candidates` orbits
    side = min((0, 1), key=lambda s: _candidates(
        _twin_classes(graph, s, _incidence(graph))))
    everything = np.arange(1 << graph.m, dtype=np.int64)
    images = twin_images(graph, side, everything)
    smallest = images.min(axis=0)
    rows_ok = np.ones(len(everything), dtype=bool)
    for x in range(graph.n):
        if graph.sides[x] == side:
            m_x = sum(1 << j for j, e in enumerate(graph.edges) if x in e)
            s_x = sum(1 << j for j, e in enumerate(graph.edges) if e[0] == x)
            rows_ok &= (everything & m_x != s_x) & \
                (everything & m_x != s_x ^ m_x)
    assert (smallest[rows_ok] == everything[rows_ok]).sum() == \
        _candidates(_twin_classes(graph, side, _incidence(graph)))
    # `_orbits` also drops what the rest of the filter drops, a source or
    # sink on the other side or a one-way cut, which twins never change:
    # the emitted ranks' expansions cover the filter's survivors exactly
    # once each, each emitted size is its expansion's, and each emitted
    # rank is its expansion's minimum
    ranks, sizes = np.concatenate(list(_orbits(graph)), axis=1)
    kept = reference_survivors(graph, 0, 1 << graph.m)
    assert np.isin(images[:, ranks], kept).all()
    assert len(np.unique(ranks)) == len(ranks)
    assert sizes.sum() == len(kept)
    assert sizes.tolist() == [len(np.unique(images[:, r])) for r in ranks]
    assert np.array_equal(smallest[ranks], ranks)


@pytest.mark.parametrize("keys, copies, small", [
    (2, 21, 4), (6, 3, 12), (14, 5, 28), (30, 6, 256)],
    ids=["2x21", "6x3", "14x5", "30x6"])
@pytest.mark.parametrize("batch", ["default", "small"])
def test_multisets_are_every_multiset_once(monkeypatch, keys, copies, small,
                                           batch):
    # copy i sets its key index in bits [i * w, (i + 1) * w), so each
    # contribution decodes to its copies' keys
    if batch == "small":
        monkeypatch.setattr(oracle, "_BATCH", small)
    w = keys.bit_length()
    spread = np.arange(keys, dtype=np.int64)[:, None] << w * np.arange(copies)
    arrays = list(_multisets(spread))
    assert all(len(c) == len(s) <= oracle._BATCH for c, s in arrays)
    contrib = np.concatenate([c for c, _ in arrays])
    sizes = np.concatenate([s for _, s in arrays])
    assert len(contrib) == math.comb(keys + copies - 1, copies)
    # the multinomial identity: the orbits' sizes cover all D^k key rows
    assert sizes.sum() == keys ** copies
    assert (np.diff(np.sort(contrib)) != 0).all()
    key = [contrib >> w * i & (1 << w) - 1 for i in range(copies)]
    assert all((after <= before).all() for before, after in zip(key, key[1:]))


def test_orbit_counts_exact_for_a_large_twin_class():
    # K(2,21): a strong orientation sends each b copy a1 -> b -> a2 or
    # a2 -> b -> a1 and uses both kinds, so 2^21 - 2 of them, with
    # diameter 4 (21 > C(2,1)); the search reaches them through the 21 b
    # copies, whose orbit sizes C(21, i) pass through 21!, beyond int64
    res = bipartite_orientation_number(2, 21, max_edges=42)
    assert res.orientation_number == 4
    assert res.strong_count == (1 << 21) - 2 == 2_097_150
    assert res.orientations_examined == 1 << 42


@pytest.mark.parametrize("graph, batch, arrays", [
    pytest.param(bipartite_graph(3, 4), 5, [36], id="K(3,4)"),
    pytest.param(graph_from_spec(p5_all2()), 5, [26, 1, 1], id="p5"),
    pytest.param(graph_from_spec(mixed_spec()), 5, [104, 1, 6],
                 id="mixed"),
    # K(4,5)'s C(18,5) = 8,568 multisets of 14 keys come in 76 arrays of
    # at most 128 columns
    pytest.param(bipartite_graph(4, 5), 128, [76], id="K(4,5)-batch-128"),
])
def test_orbits_split_into_bounded_expansions(monkeypatch, graph, batch,
                                              arrays):
    # with `batch` columns per expansion, a class's multisets come in
    # arrays of at most `batch` columns (an extension of one column to 30
    # keys, as in the mixed spec at 5, is sliced) and the prefixes are
    # sliced to match; the same representatives and sizes come out, in
    # arrays of at most `batch` columns
    whole = np.concatenate(list(_orbits(graph)), axis=1)
    monkeypatch.setattr(oracle, "_BATCH", batch)
    assert multiset_arrays(monkeypatch, graph) == arrays
    parts = list(_orbits(graph))
    assert max(part.shape[1] for part in parts) <= batch
    got = np.concatenate(parts, axis=1)
    assert np.array_equal(got[:, got[0].argsort()],
                          whole[:, whole[0].argsort()])


def test_orbit_tables_bound_the_memory_of_a_large_class():
    # K(5,6)'s class of 6 copies has C(35,6) = 1,623,160 multisets of its
    # 30 keys, made depth first in arrays of at most _BATCH columns; an
    # array of the whole class would hold them all
    tracemalloc.start()
    try:
        res = oracle._search(bipartite_graph(5, 6), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.orientation_number, res.strong_count) == (3, 621_134_130)
    assert peak <= 32 << 20


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
    monkeypatch.setattr(oracle, "_orbits", no_search)
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
                  (2, 14), (2, 15), (2, 30))]


def vertex_filtered(graph, ranks):
    """The `ranks` that the source/sink filter keeps, every vertex and cut
    of `graph` judged by `_passing`: what `_batch_diameters` may be given,
    as `_orbits` and `_survivors` give it."""
    ranks = np.asarray(ranks, dtype=np.int64)
    parts = _parts(graph, _incidence(graph), range(graph.n))
    return ranks[_passing(ranks, parts)]


def assert_cut_contract(got, want):
    """`_batch_diameters`' contract against exact diameters: the same ranks
    are strong; those at or below the cut, the smallest exact diameter,
    read exactly; every other strong rank reads a value above the cut and
    at most its diameter."""
    assert np.array_equal(np.isinf(got), np.isinf(want))
    cut = want.min(initial=math.inf)
    low = want <= cut
    assert np.array_equal(got[low], want[low])
    other = np.isfinite(want) & ~low
    assert ((got[other] > cut) & (got[other] <= want[other])).all()


def push_rounds(monkeypatch, graph, ranks):
    """The diameters `_batch_diameters` reads for `ranks` and the number of
    rounds its push ran: it copies the written halves once per round."""
    rounds = []
    copyto = np.copyto
    with monkeypatch.context() as patch:
        patch.setattr(np, "copyto",
                      lambda *a, **k: rounds.append(1) or copyto(*a, **k))
        got = _batch_diameters(graph, np.array(ranks, dtype=np.int64))
    return got.tolist(), len(rounds)


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
    # the push is given only ranks that pass the filter, as in a search;
    # the strong rank passes it and stays first
    ranks = vertex_filtered(graph, [strong, *range(lo, hi), *extra, *near])
    got = _batch_diameters(graph, ranks)
    want = reference_diameters(graph, ranks)
    assert_cut_contract(got, want)
    assert ranks[0] == strong and math.isfinite(got[0])
    # a rank pushed alone is its batch's smallest diameter, so it reads
    # exactly: 25 strong ranks and the first 25, or all there are
    finite = np.flatnonzero(np.isfinite(want))
    for i in {*finite[:25], *range(min(len(ranks), 25))}:
        alone = _batch_diameters(graph, ranks[i:i + 1])[0]
        assert alone == want[i]
        if spec is None:
            continue
        r = int(ranks[i])
        d = Orientation(spec, tuple((r >> j) & 1 for j in range(graph.m)))
        assert diameter(d) == alone
        assert is_strong(d) == math.isfinite(alone)


def k34_ranks():
    """K(3,4) ranks by exact diameter 4, 5 and 6, three each."""
    graph = bipartite_graph(3, 4)
    scan = reference_diameters(graph, np.arange(1 << graph.m, dtype=np.int64))
    return graph, [np.flatnonzero(scan == d)[:3].tolist() for d in (4, 5, 6)]


def test_batch_diameters_retire_columns_in_place():
    # seven K(3,4) columns, of diameters 6, 5, 6, 4, 5, 6, 5 when each is
    # pushed alone.  Together, the diameter-4 column is full in round 3,
    # the batch's smallest diameter, and the others are decided there,
    # each read in its own place
    graph, (d4, d5, d6) = k34_ranks()
    ranks = np.array([d6[0], d5[0], d6[1], d4[0], d5[1], d6[2], d5[2]],
                     dtype=np.int64)
    alone = [_batch_diameters(graph, ranks[i:i + 1])[0] for i in range(7)]
    assert alone == [6, 5, 6, 4, 5, 6, 5]
    for batch in (ranks, np.array([], dtype=np.int64)):
        assert_cut_contract(_batch_diameters(graph, batch),
                            reference_diameters(graph, batch))


def test_diameter_is_read_one_round_early(monkeypatch):
    # a column without a source or a sink has diameter at most D iff its
    # halves written in round D - 1 are full, so a K(3,4) column of
    # diameter 4, 5 or 6 pushed alone runs 3, 4 or 5 rounds
    graph, by_diameter = k34_ranks()
    for d, ranks in zip((4, 5, 6), by_diameter):
        for rank in ranks:
            assert push_rounds(monkeypatch, graph, [rank]) == ([d], d - 1)


def test_every_k34_rank_meets_the_cut_contract():
    # the 906 of the 4,096 K(3,4) ranks that pass the filter, in one batch
    # cut at its smallest diameter 4.  Every rank without a source or a
    # sink is strong here, which is why the closed-ball test below needs
    # another graph
    graph = bipartite_graph(3, 4)
    ranks = np.arange(1 << graph.m, dtype=np.int64)
    want = reference_diameters(graph, ranks)
    assert np.unique(want, return_counts=True)[1].tolist() == \
        [330, 432, 144, 3190]
    survivors = np.concatenate(list(_survivors(graph, 0, 1 << graph.m)))
    assert np.isfinite(want[survivors]).all() and survivors.size == 906
    assert_cut_contract(_batch_diameters(graph, survivors), want[survivors])


def test_certificates_hold_on_non_strong_ranks_without_a_source():
    # p5_all2's 1,964 ranks that leave no vertex a source or a sink (the
    # subtree rule off), 360 of them not strong, in one batch: a root
    # certificate that misread a half would make one of these strong
    graph = graph_from_spec(p5_all2())
    vertex_rule = EnumGraph(graph.names, graph.edges, graph.sides)
    ranks = np.concatenate(list(_survivors(vertex_rule, 0, 1 << graph.m)))
    want = reference_diameters(graph, ranks)
    assert (ranks.size, np.isinf(want).sum()) == (1964, 360)
    assert_cut_contract(_batch_diameters(graph, ranks), want)


def test_closed_ball_retires_a_column_at_the_cut(monkeypatch):
    # p5_all2 rank 51680 points the four center edges of branch 1 into its
    # subtree, a directed 4-cycle b1.1 -> l1.1.2 -> b1.2 -> l1.1.1 -> b1.1:
    # no vertex is a source or a sink, but the subtree's balls close in
    # round 3 and miss the other six vertices.  (The subtree rule of
    # `_survivors` drops this rank; the push must still read it right.)
    # Pushed alone, no column is full, so it runs until its rows stop
    # growing, in round 5; next to the diameter-4 rank 26172 it retires as
    # inf at the cut, in round 3, its other rows still growing
    graph = graph_from_spec(p5_all2())
    ranks = np.array([26172, 51680], dtype=np.int64)
    assert reference_diameters(graph, ranks).tolist() == [4, math.inf]
    assert push_rounds(monkeypatch, graph, [51680]) == ([math.inf], 5)
    assert push_rounds(monkeypatch, graph, [26172, 51680]) == \
        ([4, math.inf], 3)


def test_root_certifies_a_column_above_the_cut(monkeypatch):
    # a diameter-6 column next to a diameter-4 one is full only after
    # round 5, but after round 3 some root's written half is full and
    # holds it in every row over its side, so it reaches every vertex and
    # is reached by every vertex: the column is strong with diameter at
    # least 5, which it reads, and the push stops there
    graph, (d4, _, d6) = k34_ranks()
    assert push_rounds(monkeypatch, graph, [d6[0]]) == ([6], 5)
    assert push_rounds(monkeypatch, graph, [d4[0], d6[0]]) == ([4, 5], 3)
    # with a second diameter-6 column, the push still stops at the cut,
    # the batch's smallest diameter 4, one round early
    ranks = [d4[0], d6[0], d6[1]]
    got, rounds = push_rounds(monkeypatch, graph, ranks)
    assert_cut_contract(np.array(got),
                        reference_diameters(graph, np.array(ranks)))
    assert rounds == 3


def search_rounds(monkeypatch, graph):
    """The number of rounds of each reach push in `graph`'s search."""
    rounds = []

    def counted(graph, ranks):
        got, count = push_rounds(monkeypatch, graph, ranks)
        rounds.append(count)
        return np.array(got)

    monkeypatch.setattr(oracle, "_batch_diameters", counted)
    oracle._search(graph, symmetry=True)
    return rounds


# the benchmark's oracle graphs: its 20-24-edge specs, C0 of diameter 4 and
# C1 of diameter 5, each one batch, and K(4,5) and K(3,7)
@pytest.mark.parametrize("graph, rounds", [
    (graph_from_spec(TreeSpec(2, (BranchSpec(2, (2,)),
                                  BranchSpec(2, (2, 2))))), [4]),
    (graph_from_spec(TreeSpec(2, (BranchSpec(2, ()), BranchSpec(2, (2,)),
                                  BranchSpec(2, (2,))))), [4]),
    (graph_from_spec(sides_9_4()), [4]),
    (graph_from_spec(TreeSpec(2, (BranchSpec(2, ()), BranchSpec(2, (2,)),
                                  BranchSpec(2, (3,))))), [4]),
    (graph_from_spec(c1_24_edges()), [4]),
    (bipartite_graph(4, 5), [4]),
    (bipartite_graph(3, 7), [3])],
    ids=["20-C0", "20-C1", "22-C0", "22-C1", "24-C1", "K45", "K37"])
def test_benchmark_searches_push_few_rounds(monkeypatch, graph, rounds):
    assert search_rounds(monkeypatch, graph) == rounds


@pytest.mark.parametrize(
    "graph", [graph for _, graph in KERNEL_GRAPHS] +
    [graph_from_spec(c1_24_edges()), bipartite_graph(4, 5)],
    ids=lambda graph: f"{graph.n}-vertices-{graph.m}-edges")
def test_every_pushed_rank_leaves_no_source_or_sink(monkeypatch, graph):
    # the push rests on its columns leaving no vertex a source or a sink:
    # every batch that the search pushes, and the scan of every rank up to
    # 16 edges, has passed the filter
    pushed = []
    push = oracle._batch_diameters

    def checked(graph, ranks):
        assert np.array_equal(ranks, vertex_filtered(graph, ranks))
        pushed.append(len(ranks))
        return push(graph, ranks)
    monkeypatch.setattr(oracle, "_batch_diameters", checked)
    oracle._search(graph, symmetry=False)
    if graph.m <= 16:
        search_rank_range(graph, 0, 1 << graph.m)
    assert pushed


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
# the run filter against the rank-wise one
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
    # alone, so in a run of _BATCH ranks from a multiple of _BATCH, x is a
    # source or a sink for every rank or for none
    k = bipartite_graph(2, 8)
    return EnumGraph(k.names + ("x",), k.edges + ((0, 10), (1, 10)),
                     k.sides + (1,))


# m below, at and above log2(_BATCH) = 16, so a full range is one run of
# ranks or several, whose survivors are joined up to _BATCH per array.
# Branch subtrees cross at their center edges, the first edges: the three
# small specs' cuts change within every run, (3; (3,[2]), (3,[2]))'s
# branch 2 both within and between runs from multiples of _BATCH (edges
# 9-17), and five (2,[2]) branches' branch 5 only between them (16-19)
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
    # both ends within two runs of one multiple of _BATCH, so many ranges
    # cross it; an end is on such a multiple or not
    edge = data.draw(st.integers(0, top // _BATCH)) * _BATCH
    near = [edge + k * _BATCH for k in range(-2, 3)
            if 0 <= edge + k * _BATCH <= top]
    end = st.integers(near[0], near[-1]) | st.sampled_from(near)
    lo, hi = sorted((data.draw(end), data.draw(end)))
    batches = list(_survivors(graph, lo, hi))
    assert all(len(b) <= _BATCH for b in batches)
    got = np.concatenate(batches) if batches else np.array([], dtype=np.int64)
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
