"""Orientation metrics, duality, the extension step, and center sets."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orient4 import digraph
from orient4.build import construct_optimal, reduce, \
    build_base_orientation, relabel_orientation
from orient4.classify import classify
from orient4.digraph import (UNREACHABLE, ExtensionError, Orientation,
                             center_in_set, center_out_set, diameter,
                             distance, eccentricities, extend_orientation,
                             from_arcs, from_edge_list, is_strong,
                             pull_back, reverse, shortest_cycle_lengths,
                             to_dot, to_edge_list)
from orient4.errors import UsageError
from orient4.tree import (BranchSpec, TreeSpec, _blocks, edge_count,
                          edge_pairs, multiplied_edges, vertex_names)


# Vertex names as the program prints them, built here from the copy
# convention.  A reference vertex is a (role, i, alpha, copy) tuple.
def center(x):
    return f"c.{x}"


def branch_copy(i, y):
    return f"b{i}.{y}"


def leaf_copy(i, alpha, z):
    return f"l{i}.{alpha}.{z}"


def name(v):
    role, i, alpha, copy = v
    return (center(copy) if role == "c" else branch_copy(i, copy)
            if role == "b" else leaf_copy(i, alpha, copy))


def p5_all2():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,))))


def fig22_spec():
    return TreeSpec(2, (BranchSpec(4, (2, 2)), BranchSpec(4, (2,)),
                        BranchSpec(2, ()), BranchSpec(2, ())))


def built(spec):
    return construct_optimal(spec).orientation


# ----------------------------------------------------------------------------
# construction and storage
# ----------------------------------------------------------------------------

def test_from_arcs_roundtrip():
    spec = p5_all2()
    d = built(spec)
    again = from_arcs(spec, d.arcs())
    assert again.bits == d.bits


def test_from_arcs_errors():
    spec = p5_all2()
    edges = multiplied_edges(spec)
    arcs = [(u, v) for u, v in edges]
    with pytest.raises(UsageError) as err:
        from_arcs(spec, arcs + [(edges[0][1], edges[0][0])])  # duplicate
    assert str(err.value) == "edge c.1 -- b1.1 assigned twice"
    with pytest.raises(UsageError) as err:
        from_arcs(spec, arcs[:-1])  # missing an edge
    assert str(err.value) == "1 edge(s) left unoriented, e.g. b2.2 -- l2.1.2"
    with pytest.raises(UsageError) as err:
        from_arcs(spec, arcs[:-1] + [(center(1), center(2))])  # non-edge
    assert str(err.value) == ("arc c.1->c.2 is not an edge of the "
                              "multiplied graph")


@pytest.mark.parametrize("bit", [0.5, 1.9, "1", "0", None, 2, -1])
def test_direction_bits_must_equal_0_or_1(bit):
    with pytest.raises(UsageError) as err:
        Orientation(p5_all2(), (bit,) * 16)
    assert str(err.value) == "direction bits must be 0 or 1"


@pytest.mark.parametrize("bit", [2, 2.0, math.nan, "1", [1]],
                         ids=["2", "2.0", "nan", "str", "list"])
def test_one_bad_direction_bit_is_refused(bit):
    # fifteen good bits beside it, so only the bad one can fail the check
    bits = [0, 1] * 8
    bits[5] = bit
    with pytest.raises(UsageError, match="^direction bits must be 0 or 1$"):
        Orientation(p5_all2(), tuple(bits))


@pytest.mark.parametrize("run, error, message", [
    (lambda: Orientation(p5_all2(), (0, 1, 0)), UsageError,
     "^need 16 direction bits, got 3$"),
    (lambda: extend_orientation(Orientation(p5_all2(), (0,) * 16), p5_all2(),
                                4),
     ExtensionError, "^extension lemma inapplicable: base not strong$"),
], ids=["bit-count", "base-not-strong"])
def test_raises_name_their_cause(run, error, message):
    with pytest.raises(error, match=message):
        run()


def test_direction_bits_equal_to_0_or_1_become_ints():
    d = Orientation(p5_all2(), (True, 0.0) * 8)
    assert d.bits == (1, 0) * 8
    assert all(type(b) is int for b in d.bits)


# s = 3; branch 1 has 2 copies and leaves of 2 and 3 copies; branch 2 has
# 4 copies and one leaf.  Each vertex below is one past a bound, and an
# unchecked offset would land b1.3 on b2.1 and l1.1.3 on l1.2.1.
BOUNDS_SPEC = TreeSpec(3, (BranchSpec(2, (2, 3)), BranchSpec(4, (2,))))
OUT_OF_BOUNDS = [("c.0", "b1.1"), ("c.4", "b1.1"), ("b3.1", "c.1"),
                 ("b1.3", "c.1"), ("l1.3.1", "b1.1"), ("l1.1.3", "b1.1")]


@pytest.mark.parametrize("tail, head", OUT_OF_BOUNDS)
def test_index_rejects_vertices_out_of_bounds(tail, head):
    spec = BOUNDS_SPEC
    message = f"arc {tail}->{head} is not an edge of the multiplied graph"
    with pytest.raises(UsageError) as err:
        from_edge_list(spec, f"{tail} -> {head}\n")
    assert str(err.value) == message
    with pytest.raises(UsageError) as err:
        from_arcs(spec, [(tail, head)])
    assert str(err.value) == message
    d = Orientation(spec, (0,) * len(edge_pairs(spec)[0]))
    with pytest.raises(UsageError) as err:
        d.vertex_index(tail)
    assert str(err.value) == f"vertex {tail} not in the multiplied graph"


# Each names a vertex of BOUNDS_SPEC in a form the program never prints:
# int() would read every one of them as a canonical name.
NON_CANONICAL = ["c.0_1", "b+1.1", "l1.1. 2", "c.\u0663", "c.01", " c.1",
                 "b01.1", "l1.01.1"]


@pytest.mark.parametrize("v", NON_CANONICAL)
def test_names_must_be_canonical(v):
    spec = BOUNDS_SPEC
    d = Orientation(spec, (0,) * len(edge_pairs(spec)[0]))
    with pytest.raises(UsageError) as err:
        from_arcs(spec, [(v, "b1.1")])
    assert str(err.value) == \
        f"arc {v}->b1.1 is not an edge of the multiplied graph"
    with pytest.raises(UsageError) as err:
        d.vertex_index(v)
    assert str(err.value) == f"vertex {v} not in the multiplied graph"


def reference_vertices(spec):
    """The multiplied vertices in canonical order, as (role, i, alpha,
    copy) tuples, by the loops the integer layout replaced."""
    out = [("c", 0, 0, x) for x in range(1, spec.s + 1)]
    for i, b in enumerate(spec.branches, start=1):
        out.extend(("b", i, 0, x) for x in range(1, b.multiplicity + 1))
    for i, b in enumerate(spec.branches, start=1):
        for alpha, lm in enumerate(b.leaf_multiplicities, start=1):
            out.extend(("l", i, alpha, x) for x in range(1, lm + 1))
    return out


def reference_edges(spec):
    """The multiplied edges as (role, i, alpha, copy) pairs, by the nested
    loops the integer layout replaced."""
    out = []
    for i, b in enumerate(spec.branches, start=1):
        for x in range(1, spec.s + 1):
            for y in range(1, b.multiplicity + 1):
                out.append((("c", 0, 0, x), ("b", i, 0, y)))
    for i, b in enumerate(spec.branches, start=1):
        for alpha, lm in enumerate(b.leaf_multiplicities, start=1):
            for y in range(1, b.multiplicity + 1):
                for z in range(1, lm + 1):
                    out.append((("b", i, 0, y), ("l", i, alpha, z)))
    return out


any_branch = st.builds(BranchSpec, st.integers(2, 4),
                       st.lists(st.integers(2, 3), max_size=3))
valid_specs = st.builds(
    TreeSpec, st.integers(2, 4),
    st.lists(any_branch, min_size=2, max_size=5).filter(
        lambda bs: sum(b.leaf_count > 0 for b in bs) >= 2))


@settings(max_examples=100, deadline=None)
@given(valid_specs, st.data())
def test_integer_layout_matches_vertex_ids(spec, data):
    verts = reference_vertices(spec)
    assert vertex_names(spec) == [name(v) for v in verts]
    ref_index = {v: i for i, v in enumerate(verts)}
    pairs, n = edge_pairs(spec)
    assert n == len(verts) == len(ref_index)
    assert pairs == [(ref_index[u], ref_index[v])
                     for u, v in reference_edges(spec)]
    edges = [(name(u), name(v)) for u, v in reference_edges(spec)]
    assert multiplied_edges(spec) == edges
    # the layout table: each block's copies, its parent block's start and
    # size, and the position of its first pair (parent copy 1, copy 1)
    for key, (start, size, up, up_size, first) in _blocks(spec).items():
        role, i, _ = key
        assert [ref_index[(*key, x)] for x in range(1, size + 1)] == \
            list(range(start, start + size))
        if role == "c":
            assert (up, up_size) == (-1, 0)
            continue
        parent = ("c", 0, 0) if role == "b" else ("b", i, 0)
        assert up == ref_index[(*parent, 1)]
        assert up_size == sum(v[:3] == parent for v in verts)
        assert first == pairs.index((ref_index[(*parent, 1)],
                                     ref_index[(*key, 1)]))

    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(edges),
                              max_size=len(edges)))
    d = Orientation(spec, tuple(bits))
    assert d.vertices == [name(v) for v in verts]
    assert all(d.vertex_index(name(v)) == i for v, i in ref_index.items())
    arcs = [(u, v) if b == 0 else (v, u) for (u, v), b in zip(edges, bits)]
    assert d.arcs() == arcs
    assert to_edge_list(d) == "\n".join(f"{t} -> {h}" for t, h in arcs) + "\n"
    dot = (["digraph orientation {"] + [f'  "{name(v)}";' for v in verts]
           + [f'  "{t}" -> "{h}";' for t, h in arcs] + ["}"])
    assert to_dot(d) == "\n".join(dot) + "\n"
    assert from_arcs(spec, arcs).bits == d.bits


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def test_fig22_core_has_diameter_4():
    rspec = reduce(fig22_spec(), "P34")
    d = build_base_orientation(rspec)
    assert diameter(d) == 4
    assert is_strong(d)
    assert max(shortest_cycle_lengths(d)) == 4


def test_all_arcs_into_center_is_unreachable():
    spec = p5_all2()
    bits = []
    for (u, v) in multiplied_edges(spec):
        if u.startswith("c."):
            bits.append(1)      # point the edge at the center copy
        elif v.startswith("c."):
            bits.append(0)
        else:
            bits.append(0)
    d = Orientation(spec, tuple(bits))
    assert diameter(d) == UNREACHABLE
    assert not is_strong(d)


def test_reverse_is_involution_and_preserves_metrics():
    d = built(fig22_spec())
    rd = reverse(d)
    assert reverse(rd).bits == d.bits
    assert diameter(rd) == diameter(d) == 4
    assert is_strong(rd) == is_strong(d) is True


def test_distance_matches_diameter():
    d = built(p5_all2())
    verts = d.vertices
    worst = max(distance(d, u, v) for u in verts for v in verts)
    assert worst == diameter(d)


def reference_distances(d):
    """Plain per-source BFS over `d.arcs()`: {source: {vertex: distance}}."""
    out = {v: [] for v in d.vertices}
    for t, h in d.arcs():
        out[t].append(h)
    table = {}
    for src in d.vertices:
        dist, frontier = {src: 0}, [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in out[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        table[src] = dist
    return table


leafy = st.builds(BranchSpec, st.integers(2, 3),
                  st.lists(st.integers(2, 3), min_size=1, max_size=2))
bare = st.builds(BranchSpec, st.integers(2, 3))
small_specs = st.builds(lambda s, a, b, e: TreeSpec(s, (a, b, *e)),
                        st.integers(2, 3), leafy, leafy,
                        st.lists(bare, max_size=1))


@st.composite
def orientations(draw):
    """Random bits (mostly not strong), or a diameter-4 witness with up to
    three arcs flipped (strong or not)."""
    spec = draw(small_specs)
    m = edge_count(spec)
    if classify(spec).verdict == "C0" and draw(st.booleans()):
        bits = list(construct_optimal(spec).orientation.bits)
        for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            bits[j] ^= 1
    else:
        bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return Orientation(spec, tuple(bits))


@settings(max_examples=150, deadline=None)
@given(orientations())
def test_reach_sets_match_reference_bfs(d):
    table = reference_distances(d)
    verts = d.vertices
    eccs = [max(table[v].values()) if len(table[v]) == len(verts)
            else UNREACHABLE for v in verts]
    cycles = [min((table[v][t] + 1 for t, h in d.arcs()
                   if h == v and t in table[v]), default=UNREACHABLE)
              for v in verts]
    assert eccentricities(d) == eccs
    assert diameter(d) == max(eccs)
    assert shortest_cycle_lengths(d) == cycles
    assert is_strong(d) == (max(eccs) != UNREACHABLE)
    if is_strong(d) and diameter(d) <= 4:
        # the multiplied graph is bipartite and has no 2-cycles: the path
        # back along an arc closes a cycle of length <= 5, so of length 4
        assert cycles == [4] * len(verts)
    for u in verts[::3]:
        for v in verts:
            assert distance(d, u, v) == table[u].get(v, UNREACHABLE)
    assert diameter(reverse(d)) == diameter(d)


def full_sweep(adj):
    """The sweep over every vertex that the twin quotient replaced:
    reach[v] = {v} | S_k(v), ecc(v) the first k with reach[v] full, the
    shortest cycle the first k with v in S_k(v)."""
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


grown_leafy = st.builds(BranchSpec, st.integers(2, 4),
                        st.lists(st.integers(2, 5), min_size=1, max_size=2))
grown_bare = st.builds(BranchSpec, st.integers(2, 4))
grown_specs = st.builds(lambda s, a, b, e: TreeSpec(s, (a, b, *e)),
                        st.integers(2, 4), grown_leafy, grown_leafy,
                        st.lists(grown_bare, max_size=1))


@st.composite
def twin_orientations(draw):
    """A lifted diameter-4 witness, whose copies beyond the core are twins,
    with up to three arcs flipped to split classes, or random bits; then
    maybe every center edge of one branch turned one way, which can leave
    every vertex on a cycle yet split the digraph into two components."""
    spec = draw(grown_specs)
    m = len(edge_pairs(spec)[0])
    if classify(spec).verdict == "C0" and draw(st.booleans()):
        bits = list(construct_optimal(spec).orientation.bits)
        for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            bits[j] ^= 1
    else:
        bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        i = draw(st.integers(0, spec.deg_c - 1))
        start = spec.s * sum(b.multiplicity for b in spec.branches[:i])
        way = draw(st.integers(0, 1))
        for j in range(start, start + spec.s * spec.branches[i].multiplicity):
            bits[j] = way
    return Orientation(spec, tuple(bits))


@settings(max_examples=200, deadline=None)
@given(twin_orientations())
def test_quotient_sweep_matches_full_sweep(d):
    ecc, cyc = full_sweep(d._layout[1])
    assert eccentricities(d) == ecc
    assert shortest_cycle_lengths(d) == cyc
    assert diameter(d) == max(ecc)
    assert is_strong(d) == (UNREACHABLE not in ecc)


def test_quotient_of_arc_free_and_one_vertex_graphs():
    # two isolated vertices are one class; neither reaches the other
    assert digraph._twin_sweep(((), ()), ((), ())) == full_sweep([(), ()])
    assert digraph._twin_sweep(((),), ((),)) == full_sweep([()])


def test_strong_needs_one_component_not_cycles_everywhere():
    # c.1 -> b1.1 -> c.2 -> b1.2 -> c.1 and each branch with its leaf
    # copies are 4-cycles, but every center edge of branch 2 points away
    # from the center: two strong components
    spec = p5_all2()
    d = Orientation(spec, (0, 1, 1, 0) + (0, 0, 0, 0) + (0, 1, 1, 0) * 2)
    assert shortest_cycle_lengths(d) == [4] * len(d.vertices)
    assert not is_strong(d)
    assert diameter(d) == UNREACHABLE == max(full_sweep(d._layout[1])[0])


def test_each_orientation_is_swept_once(monkeypatch):
    bits = built(fig22_spec()).bits
    calls = []
    sweep = digraph._sweep
    monkeypatch.setattr(digraph, "_sweep",
                        lambda adj: calls.append(len(adj)) or sweep(adj))
    d = Orientation(fig22_spec(), bits)
    for _ in range(2):
        eccentricities(d)
        shortest_cycle_lengths(d)
        diameter(d)
        is_strong(d)
    assert len(calls) == 1
    again = Orientation(fig22_spec(), bits)
    assert diameter(again) == diameter(d) and len(calls) == 2


# ----------------------------------------------------------------------------
# extension
# ----------------------------------------------------------------------------

def test_extend_identity_target():
    d = built(p5_all2())
    same = extend_orientation(d, d.spec, 4)
    assert same.bits == d.bits


def test_extend_raises_multiplicities():
    base = built(p5_all2())
    target = TreeSpec(3, (BranchSpec(2, (3,)), BranchSpec(4, (2,))))
    lifted = extend_orientation(base, target, 4)
    assert diameter(lifted) == 4
    assert is_strong(lifted)


def test_extend_lifts_leaf_multiplicities_to_three():
    # five doubled branches over a 4-copy center exercise the half-set
    # variant of the two-copy recipe; lifting every leaf to 3 copies must
    # keep the diameter at 4
    spec = TreeSpec(4, tuple(BranchSpec(2, (2,)) for _ in range(5)))
    res = construct_optimal(spec)
    assert res.case == "P35_D3"
    target = TreeSpec(4, tuple(BranchSpec(2, (3,)) for _ in range(5)))
    lifted = extend_orientation(res.orientation, target, 4)
    assert diameter(lifted) == 4


def test_extend_requires_same_shape():
    d = built(TreeSpec(3, (BranchSpec(3, (3,)), BranchSpec(2, (2,)))))
    for s, branches, message in [
        # a branch more, a leaf more, a leaf fewer: the blocks differ
        (3, ((3, (3,)), (2, (2,)), (2, ())), "block b3. is not in both trees"),
        (3, ((3, (3,)), (2, (2, 2))), "block l2.2. is not in both trees"),
        (3, ((3, (3,)), (2, ())), "block l2.1. is not in both trees"),
        # the center, a branch, a leaf shrinks
        (2, ((3, (3,)), (2, (2,))), "block c. would shrink"),
        (3, ((2, (3,)), (2, (2,))), "block b1. would shrink"),
        (3, ((3, (2,)), (2, (2,))), "block l1.1. would shrink"),
    ]:
        target = TreeSpec(s, tuple(BranchSpec(*b) for b in branches))
        with pytest.raises(UsageError) as err:
            extend_orientation(d, target, 4)
        assert str(err.value) == message


def test_extend_requires_short_cycles():
    # an orientation that is strong but has a vertex only on longer cycles
    spec = p5_all2()
    found = None
    for rank in range(1 << 16):
        bits = tuple((rank >> j) & 1 for j in range(16))
        d = Orientation(spec, bits)
        if not is_strong(d):
            continue
        if max(shortest_cycle_lengths(d)) > 4:
            found = d
            break
    assert found is not None
    with pytest.raises(ExtensionError):
        extend_orientation(found, spec, 4)
    # a generous bound accepts it again
    big = extend_orientation(found, spec, 16)
    assert big.bits == found.bits


def reference_pull_back(d, target, to_d):
    """Bits of `target` oriented like (to_d(u), to_d(v)) in `d`, for
    reference vertices u, v: the name pull-back that the integer one
    replaced."""
    index = {name(v): i for i, v in enumerate(reference_vertices(d.spec))}
    where = [index[name(to_d(v))] for v in reference_vertices(target)]
    n = len(index)
    arcs = {index[t] * n + index[h] for t, h in d.arcs()}
    return tuple(int(where[u] * n + where[v] not in arcs)
                 for u, v in edge_pairs(target)[0])


def reference_donor(small):
    """Copy y of a vertex mimics copy (y - 1) mod old + 1 in `small`."""
    def donor(v):
        role, i, alpha, copy = v
        if role == "c":
            old = small.s
        elif role == "b":
            old = small.branch(i).multiplicity
        else:
            old = small.branch(i).leaf_multiplicities[alpha - 1]
        if copy <= old:
            return v
        return (role, i, alpha, (copy - 1) % old + 1)
    return donor


def reference_to_slot(slot_to_user):
    user_to_slot = {u: j for j, u in enumerate(slot_to_user, start=1)}

    def to_slot(v):
        role, i, alpha, copy = v
        if role == "c":
            return v
        return (role, user_to_slot[i], alpha, copy)
    return to_slot


@st.composite
def grown(draw, spec):
    more = st.integers(0, 3)
    return TreeSpec(spec.s + draw(more), tuple(
        BranchSpec(b.multiplicity + draw(more),
                   tuple(lm + draw(more) for lm in b.leaf_multiplicities))
        for b in spec.branches))


@settings(max_examples=100, deadline=None)
@given(orientations(), st.data())
def test_pull_back_matches_vertex_id_donors(d, data):
    target = data.draw(grown(d.spec))
    expected = reference_pull_back(d, target, reference_donor(d.spec))
    assert pull_back(d, target, lambda key: key).bits == expected
    if is_strong(d) and max(shortest_cycle_lengths(d)) <= 4:
        assert extend_orientation(d, target, 4).bits == expected


@settings(max_examples=50, deadline=None)
@given(small_specs.filter(lambda spec: classify(spec).verdict == "C0"),
       st.data())
def test_extend_matches_vertex_id_donors_on_witnesses(spec, data):
    d = built(spec)
    target = data.draw(grown(spec))
    assert extend_orientation(d, target, 4).bits == \
        reference_pull_back(d, target, reference_donor(spec))


@settings(max_examples=50, deadline=None)
@given(valid_specs, st.data())
def test_relabel_matches_vertex_id_slots(spec, data):
    m = len(edge_pairs(spec)[0])
    d = Orientation(spec, tuple(data.draw(
        st.lists(st.integers(0, 1), min_size=m, max_size=m))))
    slot_to_user = tuple(data.draw(st.permutations(
        range(1, spec.deg_c + 1))))
    by_user = sorted(zip(slot_to_user, spec.branches), key=lambda p: p[0])
    user_spec = TreeSpec(spec.s, tuple(b for _, b in by_user))
    # relabel and grow in one pull-back, as `construct_optimal` does
    target = data.draw(grown(user_spec))
    to_slot = reference_to_slot(slot_to_user)
    donor = reference_donor(user_spec)
    assert relabel_orientation(d, slot_to_user, target).bits == \
        reference_pull_back(d, target, lambda v: to_slot(donor(v)))


# ----------------------------------------------------------------------------
# center in- and out-sets
# ----------------------------------------------------------------------------

def p39_fig_orientation():
    spec = TreeSpec(4, tuple([BranchSpec(3, (2,))] * 6
                             + [BranchSpec(4, (2,))] * 2
                             + [BranchSpec(2, ())] * 2))
    return build_base_orientation(reduce(spec, "P39"))


def test_center_projections_on_p39_figure():
    d = p39_fig_orientation()
    assert center_out_set(d, branch_copy(5, 3)) == 0b0111   # {1, 2, 3}
    assert center_out_set(d, branch_copy(1, 1)) == 0b0011   # {1, 2}


def test_projections_partition_center_copies():
    d = built(fig22_spec())
    for i in range(1, 5):
        for y in range(1, d.spec.branch(i).multiplicity + 1):
            v = branch_copy(i, y)
            outs = center_out_set(d, v)
            ins = center_in_set(d, v)
            assert outs | ins == (1 << d.spec.s) - 1
            assert not outs & ins


def test_projection_role_checks():
    d = built(p5_all2())
    for v in ("c.1", "l1.1.1", "b1.3", "b3.1", "b1.01", "x.1"):
        for center_set in (center_out_set, center_in_set):
            with pytest.raises(UsageError) as err:
                center_set(d, v)
            assert str(err.value) == f"{v} is not a branch copy"


# ----------------------------------------------------------------------------
# text formats
# ----------------------------------------------------------------------------

def test_edge_list_roundtrip_and_stability():
    d = built(fig22_spec())
    text = to_edge_list(d)
    assert text == to_edge_list(d)
    again = from_edge_list(d.spec, text)
    assert again.bits == d.bits


def test_edge_list_parse_errors():
    spec = p5_all2()
    with pytest.raises(UsageError):
        from_edge_list(spec, "c.1 b1.1\n")
    with pytest.raises(UsageError):
        from_edge_list(spec, "c.1 -> c.2\n")
    # names repeat across lines; the line or name at fault is still named
    good = to_edge_list(built(spec))
    with pytest.raises(UsageError) as err:
        from_edge_list(spec, good + "c.1 b1.1\n")
    assert str(err.value) == \
        f"line {len(good.splitlines()) + 1}: expected 'tail -> head'"
    with pytest.raises(UsageError) as err:
        from_edge_list(spec, good + "c.1 -> x.1\n")
    assert str(err.value) == \
        "arc c.1->x.1 is not an edge of the multiplied graph"


def reference_from_arcs(spec, arcs):
    """`from_arcs` by the loop the block arithmetic replaced: a dict from
    both directions of every edge to its (index, bit), one lookup per arc."""
    names = vertex_names(spec)
    index = {name: i for i, name in enumerate(names)}
    pairs, n = edge_pairs(spec)
    pos = {}
    for j, (u, v) in enumerate(pairs):
        pos[u * n + v] = (j, 0)
        pos[v * n + u] = (j, 1)
    bits = [None] * len(pairs)
    for (t, h) in arcs:
        try:
            j, b = pos[index[t] * n + index[h]]
        except KeyError:
            raise UsageError(f"arc {t}->{h} is not an edge of "
                             f"the multiplied graph") from None
        if bits[j] is not None:
            u, v = pairs[j]
            raise UsageError(f"edge {names[u]} -- {names[v]} assigned twice")
        bits[j] = b
    missing = [pairs[j] for j, b in enumerate(bits) if b is None]
    if missing:
        u, v = missing[0]
        raise UsageError(f"{len(missing)} edge(s) left unoriented, e.g. "
                         f"{names[u]} -- {names[v]}")
    return Orientation(spec, tuple(bits))


def reference_from_edge_list(spec, text):
    """`from_edge_list` by the per-line loop the bulk tokeniser replaced."""
    arcs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tail, head = (part.strip() for part in line.split("->"))
        except ValueError:
            raise UsageError(f"line {lineno}: expected 'tail -> head'") from None
        arcs.append((tail, head))
    return reference_from_arcs(spec, arcs)


# every `str.splitlines` boundary, and `str.isspace` characters that are
# not boundaries
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]
SPACES = ["", " ", "  ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"]
FILLER = ["", "# a comment", "#", "  # indented -> comment", "->", " -> ",
          "c.1 b1.1", "c.1 -> b1.1 -> l1.1.1"]


@st.composite
def edited_witnesses(draw):
    """(spec, arcs, text): a witness's arcs after arc edits (drop, repeat,
    reverse, rename), and the same arcs written as text with line edits."""
    spec = draw(valid_specs)
    m = edge_count(spec)
    bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    arcs = Orientation(spec, tuple(bits)).arcs()
    rnd = draw(st.randoms(use_true_random=False))
    names = vertex_names(spec)
    for _ in range(draw(st.integers(0, 3))):
        k = rnd.randrange(len(arcs))
        t, h = arcs[k]
        edit = draw(st.sampled_from(["drop", "repeat", "reverse", "swap",
                                     "unknown", "non-canonical", "vertex"]))
        if edit == "drop":
            del arcs[k]
        elif edit == "repeat":
            arcs.insert(rnd.randrange(len(arcs) + 1), rnd.choice([(t, h),
                                                                  (h, t)]))
        elif edit == "reverse":
            arcs[k] = (h, t)
        elif edit == "swap":
            arcs[k] = (t, rnd.choice(names))
        elif edit == "unknown":
            arcs[k] = (t, rnd.choice(["x.1", "c.0", f"c.{spec.s + 1}",
                                      "b0.1", "", "c.1 -> b1.1"]))
        elif edit == "non-canonical":
            arcs[k] = (rnd.choice(NON_CANONICAL), h)
        else:
            arcs[k] = (t, t)
    if draw(st.booleans()):
        rnd.shuffle(arcs)
    pad = [rnd.choice(SPACES) for _ in range(4)]
    lines = [f"{pad[0]}{t}{pad[1]}->{pad[2]}{h}{pad[3]}" for t, h in arcs]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(FILLER))
    sep = draw(st.sampled_from(["mixed"] + SEPARATORS))
    text = "".join(line + (rnd.choice(SEPARATORS) if sep == "mixed" else sep)
                   for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(SEPARATORS))
    return spec, arcs, text


def outcome(parse, spec, given):
    """The parsed bits, or the refusal.  A parsed orientation's layout, its
    arcs and ascending out- and in-tuples, must equal the one rebuilt from
    its bits."""
    try:
        d = parse(spec, given)
    except UsageError as exc:
        return str(exc)
    assert d._layout == Orientation(spec, d.bits)._layout
    return d.bits


@settings(max_examples=200, deadline=None)
@given(edited_witnesses())
@example((p5_all2(), [], ""))
@example((p5_all2(), [], "->"))
@example((p5_all2(), [], "# one comment\n\n  # and another\r\n"))
@example((p5_all2(), [("c.1", "b1.1")] * 2, "c.1 -> b1.1\n\u2028c.1->b1.1"))
def test_edge_list_matches_reference_loop(case):
    spec, arcs, text = case
    assert outcome(from_arcs, spec, arcs) == \
        outcome(reference_from_arcs, spec, arcs)
    assert outcome(from_edge_list, spec, text) == \
        outcome(reference_from_edge_list, spec, text)


def test_dot_output():
    d = built(p5_all2())
    dot = to_dot(d)
    assert dot.startswith("digraph")
    assert '"c.1"' in dot
    assert dot.count("->") == len(d.bits)
