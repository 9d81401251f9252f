"""Exhaustive-search oracle: known values, determinism, partitioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient4 import oracle
from orient4.digraph import Orientation, diameter, is_strong
from orient4.errors import Refusal
from orient4.oracle import (_batch_diameters, bipartite_graph,
                            bipartite_orientation_number, find_bridge,
                            graph_from_spec, merge_results,
                            orientation_number, search_rank_range)
from orient4.tree import BranchSpec, TreeSpec


def p5_all2():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,))))


def deg3_all2():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(2, ())))


def mixed_spec():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(3, (2,))))


# ----------------------------------------------------------------------------
# known values
# ----------------------------------------------------------------------------

def test_path_shape_has_orientation_number_4():
    res = orientation_number(p5_all2())
    assert res.orientation_number == 4
    assert res.orientations_examined == 1 << 16
    assert diameter(res.witness) == 4
    assert is_strong(res.witness)


def test_degree_three_doubled_needs_5():
    res = orientation_number(deg3_all2())
    assert res.orientation_number == 5
    assert diameter(res.witness) == 5


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


def test_partitioned_search_matches_full_scan():
    graph = graph_from_spec(p5_all2())
    full = search_rank_range(graph, 0, 1 << 16)
    parts = [search_rank_range(graph, lo, hi)
             for lo, hi in ((0, 999), (999, 40000), (40000, 1 << 16))]
    merged = merge_results(parts)
    assert merged == full
    assert merged.examined == 1 << 16


def test_symmetry_halving_same_witness_and_count():
    res0 = orientation_number(deg3_all2())
    res1 = orientation_number(deg3_all2(), symmetry=True)
    assert res1.orientation_number == res0.orientation_number
    assert res1.witness_arcs == res0.witness_arcs
    assert res1.strong_count == res0.strong_count
    assert res1.orientations_examined == res0.orientations_examined // 2


def test_witness_is_smallest_rank():
    graph = graph_from_spec(p5_all2())
    full = search_rank_range(graph, 0, 1 << 16)
    # no smaller rank achieves the optimum
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


def test_bridge_detection():
    # a path graph has bridges everywhere
    assert find_bridge(3, ((0, 1), (1, 2))) is not None
    # a 4-cycle has none
    assert find_bridge(4, ((0, 1), (1, 2), (2, 3), (3, 0))) is None
    graph = graph_from_spec(p5_all2())
    assert find_bridge(graph.n, graph.edges) is None


def test_strong_count_positive_and_diameters_finite():
    res = orientation_number(p5_all2())
    assert 0 < res.strong_count < res.orientations_examined
    assert math.isfinite(res.orientation_number)


@pytest.mark.parametrize("p, q, message", [
    (2, 31, "too many vertices"),   # a uint32 reach row holds 32 vertices
    (5, 13, "too many edges"),      # an int64 rank holds 63 edge bits
])
def test_oversized_graph_refused_before_search(monkeypatch, p, q, message):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an oversized graph")
    monkeypatch.setattr(oracle, "search_rank_range", no_search)
    monkeypatch.setattr(oracle, "_batch_diameters", no_search)
    with pytest.raises(Refusal, match=message):
        bipartite_orientation_number(p, q, max_edges=p * q)


# ----------------------------------------------------------------------------
# pinned counts
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("spec, want", [
    (p5_all2(), (65_536, 1_604, 4, 26_172)),
    (deg3_all2(), (1_048_576, 7_952, 5, 209_750)),
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


KERNEL_GRAPHS = [(spec, graph_from_spec(spec))
                 for spec in (p5_all2(), deg3_all2(), mixed_spec())] + \
    [(None, bipartite_graph(p, q))
     for p, q in ((2, 2), (2, 3), (3, 3), (3, 4), (2, 6), (4, 4))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_diameters_match_reference_and_digraph(data):
    spec, graph = data.draw(st.sampled_from(KERNEL_GRAPHS))
    top = 1 << graph.m
    lo = data.draw(st.integers(0, top - 1))
    hi = data.draw(st.integers(lo + 1, min(top, lo + 4000)))
    extra = data.draw(st.lists(st.integers(0, top - 1), max_size=20))
    # ranks 0 and top - 1 point every edge one way, so each has a source
    # and a sink
    ranks = np.array([*range(lo, hi), 0, top - 1, *extra], dtype=np.int64)
    got = _batch_diameters(graph, ranks)
    assert np.array_equal(got, reference_diameters(graph, ranks))
    assert math.isinf(got[hi - lo]) and math.isinf(got[hi - lo + 1])
    if spec is None:
        return
    finite = np.flatnonzero(np.isfinite(got))
    for i in (*finite[:25], *range(min(len(ranks), 25))):
        r = int(ranks[i])
        d = Orientation(spec, tuple((r >> j) & 1 for j in range(graph.m)))
        assert diameter(d) == got[i]
        assert is_strong(d) == math.isfinite(got[i])
