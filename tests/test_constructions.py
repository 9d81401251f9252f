"""Schedules, reductions, per-case recipes and the full pipeline."""

import functools
import importlib
import itertools
import json
import random
import sys
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_digraph import center_in, flipped, reference_distances

from orient4 import build, cli, digraph, tree
from orient4.build import (ConstructionResult, _core_bits, _feasible_split,
                           build_base_orientation, construct_optimal,
                           cyclic_half_sets, make_schedule, reduce,
                           relabel_orientation)
from orient4.classify import (C0, C1, CASE_IDS, UNKNOWN_GAP, classify,
                              qualifying_splits)
from orient4.digraph import (Orientation, diameter, extend_orientation,
                             from_arcs, is_strong, shortest_cycle_lengths)
from orient4.errors import ConstructionError, Refusal, UsageError
from orient4.oracle import orientation_number
from orient4.sperner import kappa, members
from orient4.tree import BranchSpec, TreeSpec, edge_count


# vertex names as the program prints them
def center(x):
    return f"c.{x}"


def branch_copy(i, y):
    return f"b{i}.{y}"


def leaf_copy(i, alpha, z):
    return f"l{i}.{alpha}.{z}"


def mask(f):
    return sum(1 << (x - 1) for x in f)


def mkspec(s, a2=0, a3=0, a4=0, e=0, first_two_leaves=True):
    branches = []
    first = True
    for mult, count in ((2, a2), (3, a3), (4, a4)):
        for _ in range(count):
            nl = 2 if (first and first_two_leaves) else 1
            first = False
            branches.append(BranchSpec(mult, (2,) * nl))
    branches += [BranchSpec(2, ()) for _ in range(e)]
    return TreeSpec(s, tuple(branches))


def build_case(spec, case):
    rspec = reduce(spec, case)
    return build_base_orientation(rspec), rspec


# ----------------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------------

def test_cyclic_half_sets():
    assert cyclic_half_sets(5)[1] == mask({2, 3, 4})
    assert cyclic_half_sets(4) == [mask({1, 2}), mask({2, 3}),
                                   mask({3, 4}), mask({4, 1})]


def test_lam_sequence_covers_level_once():
    for s in (3, 4, 5, 6):
        lam = list(make_schedule(s, "P41" if s % 2 else "P310").lam())
        assert len(lam) == comb(s, (s + 1) // 2)
        assert len(set(lam)) == len(lam)
        assert all(f.bit_count() == (s + 1) // 2 for f in lam)


def test_lam_s3_is_exactly_the_cyclic_triples():
    sched = make_schedule(3, "P41")
    assert tuple(sched.lam()) == (mask({1, 2}), mask({2, 3}), mask({3, 1}))
    assert sched.lam_last() == mask({3, 1})


def test_p312_up_set_order_avoids_tail_supersets_first():
    sched = make_schedule(6, "P312")
    psi = list(sched.psi())
    assert members(psi[0]) == (1, 2, 3, 4)
    assert members(psi[1]) == (1, 2, 3, 5)
    assert len(psi) == comb(6, 4)
    assert len(list(sched.mu())) == comb(6, 3)


def test_p43_d3_schedule_blocks():
    s = 5
    sched = make_schedule(s, "P43_D3")
    gamma, mu = list(sched.gamma()), list(sched.mu())
    low = mask({1, 2})
    hi, lo = (s + 1) // 2, s // 2
    assert gamma[-1] == mask({3, 4, 5})
    assert all((g & low).bit_count() == 1 for g in gamma[:hi * lo])
    assert len(set(gamma)) == len(gamma) == comb(s, hi)
    assert all(m & low == low for m in mu[:hi])
    assert len(set(mu)) == len(mu) == comb(s, hi)


# Reference: the schedule as whole frozenset levels, kept verbatim from the
# implementation the lazy mask readers replaced (only `squashed_level` is
# a brute-force colex sort).

def ref_squashed_level(n, k):
    return sorted((frozenset(c) for c in
                   itertools.combinations(range(1, n + 1), k)),
                  key=lambda f: sorted(f, reverse=True))


def ref_cyclic_half_sets(s):
    h = (s + 1) // 2
    return [frozenset((i + j) % s + 1 for j in range(h)) for i in range(s)]


def ref_lam_sequence(s):
    cyc = ref_cyclic_half_sets(s)
    used = set(cyc)
    rest = [f for f in ref_squashed_level(s, (s + 1) // 2) if f not in used]
    return tuple(cyc + rest)


def ref_make_schedule(s, case, k=None):
    """lam, psi, mu, gamma as tuples of frozensets."""
    if case == "P312":
        c = comb(s, s // 2)
        mu = tuple(ref_squashed_level(s, s // 2))
        tail = set(mu[c - k:])
        shade_of_tail = {y for y in ref_squashed_level(s, s // 2 + 1)
                         if any(x <= y for x in tail)}
        level_up = ref_squashed_level(s, s // 2 + 1)
        psi = tuple([y for y in level_up if y not in shade_of_tail]
                    + [y for y in level_up if y in shade_of_tail])
        return ref_lam_sequence(s), psi, mu, ()
    if case == "P43_D3":
        low = frozenset(range(1, s // 2 + 1))
        level = ref_squashed_level(s, (s + 1) // 2)
        touch_one = [f for f in level if len(f & low) == 1]
        supersets = [f for f in level if low < f]
        low_bar = frozenset(range(1, s + 1)) - low
        gamma_mid = [f for f in level
                     if f not in set(touch_one) and f != low_bar]
        gamma = tuple(touch_one + gamma_mid + [low_bar])
        mu_rest = [f for f in level if f not in set(supersets)]
        mu = tuple(supersets + mu_rest)
        return ref_lam_sequence(s), (), mu, gamma
    if case == "P39":
        psi = tuple(ref_squashed_level(s, s // 2 + 1))
        return ref_lam_sequence(s), psi, (), ()
    return ref_lam_sequence(s), (), (), ()


def assert_schedule_matches_reference(s, case, k=None):
    # the reference orders psi around the split k; the schedule's order
    # must be the same for every k
    sched = make_schedule(s, case)
    ref = ref_make_schedule(s, case, k)
    got = (sched.lam(), sched.psi(), sched.mu(), sched.gamma())
    for name, g, r in zip(("lam", "psi", "mu", "gamma"), got, ref):
        assert tuple(g) == tuple(map(mask, r)), (s, case, k, name)
    assert sched.lam_last() == mask(ref[0][-1]), (s, case, k)


def test_schedule_matches_reference_exhaustively():
    for s in range(2, 11):
        for case in CASE_IDS:
            if case == "P312":
                if s % 2 == 0 and s >= 4:
                    for k in range(1, comb(s, s // 2)):
                        assert_schedule_matches_reference(s, case, k)
            elif case != "P43_D3" or (s % 2 and s >= 5):
                assert_schedule_matches_reference(s, case)


@given(st.integers(1, comb(12, 6) - 1))
@settings(max_examples=12, deadline=None)
def test_p312_schedule_matches_reference_at_s12(k):
    assert_schedule_matches_reference(12, "P312", k)


def test_make_schedule_argument_checks():
    with pytest.raises(UsageError):
        make_schedule(5, "P312")            # needs even s >= 4
    with pytest.raises(UsageError):
        make_schedule(3, "P43_D3")          # needs s >= 5


# ----------------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------------

def test_reduce_no_small_branches():
    spec = mkspec(2, a4=2, e=2)
    rspec = reduce(spec, "P34")
    assert rspec.h_spec.center_multiplicity == 2
    assert [b.multiplicity for b in rspec.h_spec.branches] == [4, 4, 2, 2]


def test_reduce_two_copy_core():
    spec = mkspec(5, a2=4)
    rspec = reduce(spec, "P35_D1")
    assert rspec.h_spec.center_multiplicity == 5
    assert all(b.multiplicity == 2 for b in rspec.h_spec.branches)


def test_reduce_promotes_lowest_indices_first():
    # inlet block needs C(4,2)-2 = 4 three-copy slots; two high-multiplicity
    # branches are absorbed in index order
    spec = mkspec(4, a3=2, a4=4)
    rspec = reduce(spec, "P39")
    assert rspec.block_sizes == (
        ("two_copy", 0), ("inlet_three_copy", 4), ("outlet_three_copy", 0),
        ("four_copy", 2), ("leafless", 0))
    assert [b.multiplicity for b in rspec.h_spec.branches] == [3, 3, 3, 3, 4, 4]
    assert rspec.slot_to_user == (1, 2, 3, 4, 5, 6)


def test_reduce_p312_split_bookkeeping():
    spec = mkspec(4, a2=1, a3=3, a4=2)
    rspec = reduce(spec, "P312")
    assert rspec.k == 2
    assert rspec.block_sizes == (
        ("two_copy", 1), ("inlet_three_copy", 3), ("outlet_three_copy", 0),
        ("four_copy", 2), ("leafless", 0))
    assert [b.multiplicity for b in rspec.h_spec.branches] == [2, 3, 3, 3, 4, 4]


def test_reduce_p312_split_is_the_witness():
    spec = mkspec(6, a2=12, a3=8, a4=2, e=2)
    assert classify(spec).k_witness == 13
    assert reduce(spec, "P312").k == 13


@pytest.mark.parametrize("s", range(2, 15, 2))
def test_split_shadow_never_shrinks(s):
    # kappa(s, s/2, k) + k is the shadow size of the first k half-sets, so
    # `_feasible_split`'s outlet budget never grows with k
    sizes = [kappa(s, s // 2, k) + k for k in range(comb(s, s // 2) + 1)]
    assert sizes == sorted(sizes)


def test_feasible_splits_are_a_prefix_of_the_qualifying_ones():
    # so `reduce` need only check the first qualifying split for P312
    for s in (4, 6, 8):
        c, c2 = comb(s, s // 2), comb(s, s // 2 + 1)
        for n2 in range(1, c):
            for n3 in range(1, c + c2):
                ks = list(qualifying_splits(s, n2, n3))
                ok = [_feasible_split(s, n2, n3, k) for k in ks]
                assert ok == sorted(ok, reverse=True), (s, n2, n3)


def test_reduce_p312_split_can_be_infeasible():
    # sufficiency holds (k=5) but no qualifying split leaves enough unused
    # up-sets for the outlet block
    spec = mkspec(4, a2=1, a3=5)
    cls = classify(spec)
    assert cls.verdict == "C0" and cls.rule == "Prop3.12b"
    with pytest.raises(ConstructionError, match="^the sufficiency schedule "
                       "cannot be completed for this instance: every "
                       "qualifying split leaves an outlet block that must "
                       "reuse a half-set superset already claimed by the "
                       "2-copy block$"):
        reduce(spec, "P312")
    with pytest.raises(ConstructionError):
        construct_optimal(spec)


# ----------------------------------------------------------------------------
# direct recipe checks (variants the router does not pick by itself)
# ----------------------------------------------------------------------------

def assert_core_ok(d):
    assert diameter(d) == 4
    assert is_strong(d)
    assert max(shortest_cycle_lengths(d)) == 4


def test_two_copy_core_at_exactly_s_slots_variant_d3():
    d, _ = build_case(mkspec(5, a2=5), "P35_D3")
    assert_core_ok(d)


def test_submaximal_single_three_copy_variant_d1():
    d, _ = build_case(mkspec(3, a2=1, a3=1, e=2), "P43_D1")
    assert_core_ok(d)


@pytest.mark.parametrize("spec,case", [(mkspec(3, a2=2), "P43_D1"),
                                       (mkspec(2, a2=3), "P35_D3")],
                         ids=["P43_D1", "P35_D3"])
def test_forced_recipe_short_of_schedule_rows(spec, case):
    # P43_D1 needs its one 3-copy slot; at s=2 the level has only two
    # half-sets for three 2-copy slots
    with pytest.raises(ConstructionError, match=f"recipe {case}: the "
                       f"schedule gives"):
        build_case(spec, case)


def test_unknown_case_rejected():
    spec = mkspec(5, a2=4)
    with pytest.raises(UsageError):
        reduce(spec, "P99")


def construct_with_a_flipped_lift(monkeypatch):
    # the core of (3; three (2,[2])) passes its checks; its lift, with one
    # bit flipped, does not
    lift = build.relabel_orientation

    def flipped(*args):
        d = lift(*args)
        return Orientation(d.spec, (1 - d.bits[0],) + d.bits[1:])

    monkeypatch.setattr(build, "relabel_orientation", flipped)
    construct_optimal(mkspec(3, a2=3, first_two_leaves=False))


# each raise with an input that reaches it
RAISES = {
    "schedule below s=2": (lambda mp: make_schedule(1, "P39"), UsageError,
                           "^center multiplicity 1 < 2$"),
    "fill shortfall": (
        lambda mp: reduce(mkspec(4, a2=2, first_two_leaves=False), "P310"),
        ConstructionError, "^not enough high-multiplicity branches to fill "
        "the 2-copy block$"),
    "D1 with a leafless branch": (
        lambda mp: reduce(mkspec(3, a2=2, e=1, first_two_leaves=False),
                          "P35_D1"),
        ConstructionError, "^variant D1 admits no leafless branches$"),
    "no 4-copy slot": (
        lambda mp: reduce(mkspec(4, a2=5, first_two_leaves=False), "P310"),
        ConstructionError, "^no 4-copy slot left after promotion$"),
    "lift fails": (construct_with_a_flipped_lift, ConstructionError,
                   "^internal verification failure for case P35_D1: lifted "
                   "orientation is not a strong diameter-4 orientation$"),
}


@pytest.mark.parametrize("run, error, message", RAISES.values(), ids=RAISES)
def test_raises_name_their_cause(run, error, message, monkeypatch):
    with pytest.raises(error, match=message):
        run(monkeypatch)


# ----------------------------------------------------------------------------
# structural properties of built cores
# ----------------------------------------------------------------------------

CORE_CASES = [
    (mkspec(2, a4=2, e=2), "P34"),
    (mkspec(5, a2=4), "P35_D1"),
    (mkspec(5, a2=4, e=2), "P35_D2"),
    (mkspec(5, a2=9, e=2), "P35_D4"),
    (mkspec(4, a3=6, a4=2, e=2), "P39"),
    (mkspec(4, a2=4, a4=2), "P310"),
    (mkspec(4, a2=2, a3=1, e=1), "P311"),
    (mkspec(4, a2=1, a3=3, a4=2), "P312"),
    (mkspec(3, a3=4, a4=2, e=2), "P41"),
    (mkspec(3, a2=2, a3=1), "P43_D1"),
    (mkspec(3, a2=1, a3=2, e=2), "P43_D2"),
    (mkspec(5, a2=6, a3=7, e=2), "P43_D3"),
    (mkspec(3, a2=2, a4=2, e=2), "P411"),
    (mkspec(3, a2=1, a3=2, a4=2, e=2), "P413"),
]

CENTER_DISTANCE_TWO_CASES = {"P35_D3", "P35_D4", "P39", "P310", "P312",
                             "P41", "P43_D1", "P43_D2", "P43_D3", "P411",
                             "P413"}


@pytest.mark.parametrize("spec,case", CORE_CASES,
                         ids=[c for _, c in CORE_CASES])
def test_core_recipe(spec, case):
    d, rspec = build_case(spec, case)
    assert_core_ok(d)
    h = rspec.h_spec
    dist = reference_distances(d)
    # leaf-to-foreign-branch distances are exactly 3 in both directions
    picks = [(i, b) for i, b in enumerate(h.branches, start=1)
             if b.leaf_count][:3]
    for i, b in picks:
        for j in range(1, h.deg_c + 1):
            if j == i:
                continue
            for q in range(1, h.branch(j).multiplicity + 1):
                leaf, copy = leaf_copy(i, 1, 1), branch_copy(j, q)
                assert dist[leaf].get(copy) == dist[copy].get(leaf) == 3
    # center copies pairwise at distance exactly 2 where the recipe says so
    if case in CENTER_DISTANCE_TWO_CASES:
        for r1 in range(1, h.s + 1):
            for r2 in range(1, h.s + 1):
                if r1 != r2:
                    assert dist[center(r1)].get(center(r2)) == 2


def reference_core(rspec):
    """The core by the arc builder the direct bit writer replaced: one
    (tail, head) name pair per edge, slot by slot, mapped to bits through
    `from_arcs`."""
    h = rspec.h_spec
    arcs = []
    for slot, (pattern, row) in enumerate(rspec.slots, start=1):
        for a in range(1, h.branch(slot).leaf_count + 1):
            for z, ways in enumerate(pattern, start=1):
                for y, way in enumerate(ways, start=1):
                    arc = (branch_copy(slot, y), leaf_copy(slot, a, z))
                    arcs.append(arc if way == "i" else arc[::-1])
        for copy, in_set in enumerate(row, start=1):
            b = branch_copy(slot, copy)
            for x in range(1, h.s + 1):
                arcs.append((center(x), b) if in_set >> x - 1 & 1
                            else (b, center(x)))
    return from_arcs(h, arcs)


def assert_core_matches_reference(spec, case):
    d, rspec = build_case(spec, case)
    assert d.bits == reference_core(rspec).bits


@pytest.mark.parametrize("spec,case", CORE_CASES,
                         ids=[c for _, c in CORE_CASES])
def test_core_bits_match_arc_builder(spec, case):
    assert_core_matches_reference(spec, case)


@st.composite
def c0_specs_with_leaves(draw):
    """A C0 spec whose leafy branches carry one to three leaves each."""
    s = draw(st.integers(2, 6))
    mults = draw(st.lists(st.sampled_from((2, 2, 3, 4, 5)), min_size=2,
                          max_size=7))
    leaves = [draw(st.integers(0 if j >= 2 else 1, 3))
              for j in range(len(mults))]
    spec = TreeSpec(s, tuple(BranchSpec(m, (2,) * n)
                             for m, n in zip(mults, leaves)))
    assume(classify(spec).verdict == C0)
    return spec


@given(c0_specs_with_leaves())
@settings(max_examples=60, deadline=None)
def test_core_bits_match_arc_builder_on_routed_specs(spec):
    try:
        assert_core_matches_reference(spec, classify(spec).case)
    except ConstructionError as exc:
        # the known P312 gap: no split completes the schedule
        assert "every qualifying split" in str(exc)


# a 2-copy slot of P35_D1 given another slot shape
MIS_SIZED = {
    "row too long": lambda pattern, row: (pattern, row + row[:1]),
    "row too short": lambda pattern, row: (pattern, row[:1]),
    "leaf row too wide": lambda pattern, row: (build.THREE_SINK, row),
    "one leaf copy": lambda pattern, row: (pattern[:1], row),
    "no leaf pattern": lambda pattern, row: ((), row),
}


@pytest.mark.parametrize("change", MIS_SIZED.values(), ids=MIS_SIZED)
def test_mis_sized_slot_raises_construction_error(change):
    rspec = reduce(mkspec(5, a2=4), "P35_D1")
    first, *rest = rspec.slots
    rspec = rspec._replace(slots=(change(*first), *rest))
    with pytest.raises(ConstructionError, match="recipe P35_D1: slot 1 "
                       "does not fit its multiplicity 2"):
        build_base_orientation(rspec)


def with_first_in_set(rspec, in_set):
    """`rspec` with the first in-set of slot 1, a 2-copy slot, replaced."""
    (pattern, (_, second)), *rest = rspec.slots
    return rspec._replace(slots=((pattern, (in_set, second)), *rest))


# in-sets that break the P43_D2 core of (3; 1,2,0,2), whose recipe reads
# slot 1's first in-set as {1}
BROKEN_CORES = {
    "long cycle": (0b110, "a vertex's shortest directed cycle is 6 > 4"),
    "diameter 5": (0b000, "core diameter is 5, expected 4"),
}


@pytest.mark.parametrize("in_set,message", BROKEN_CORES.values(),
                         ids=BROKEN_CORES)
def test_broken_core_names_the_broken_lemma_hypothesis(
        in_set, message, monkeypatch, tmp_path, capsys):
    spec = mkspec(3, a2=1, a3=2, e=2)
    broken = with_first_in_set(reduce(spec, "P43_D2"), in_set)
    monkeypatch.setattr(build, "reduce", lambda *args: broken)
    with pytest.raises(ConstructionError) as exc:
        construct_optimal(spec)
    assert str(exc.value) == f"recipe P43_D2: {message}"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tree.spec_to_dict(spec)))
    assert cli.main(["construct", str(path)]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == (f"internal failure: recipe P43_D2: "
                                       f"{message}\n")


def test_construct_sweeps_core_and_witness_once_each(monkeypatch):
    # a witness that passes is swept once, on its own arcs, and needs no
    # core check (diameter 4 and strong in a bipartite graph put every
    # vertex on a 4-cycle); only a failing lift has the core swept as
    # well, to name what broke.  The relabel-and-lift pull-back is never
    # swept in between
    calls = []

    def counted(out, inn):
        calls.append(len(out))
        return sweep(out, inn)

    sweep = digraph._twin_sweep
    monkeypatch.setattr(digraph, "_twin_sweep", counted)
    spec = mkspec(3, a2=1, a3=2, e=2)
    res = construct_optimal(spec)
    assert diameter(res.orientation) == 4 and is_strong(res.orientation)
    n = len(res.orientation.vertices)
    n_core = len(tree.vertex_names(res.reduced.h_spec))
    assert calls == [n]

    calls.clear()
    broken = with_first_in_set(res.reduced, 0)
    monkeypatch.setattr(build, "reduce", lambda *args: broken)
    with pytest.raises(ConstructionError, match="core diameter is 5"):
        construct_optimal(spec)
    assert calls == [n, n_core]


INVALID_SPECS = {
    "center 1": TreeSpec(1, (BranchSpec(2, (2,)), BranchSpec(2, (2,)))),
    "one leafy branch": TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, ()))),
}


ENTRY_POINTS = {
    "classify": classify,
    "construct_optimal": construct_optimal,
    "Orientation": lambda spec: Orientation(spec, (0,) * edge_count(spec)),
    "orientation_number": orientation_number,
    "extend_orientation": lambda spec: extend_orientation(
        construct_optimal(mkspec(2, a4=2)).orientation, spec, 4),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("spec", INVALID_SPECS.values(), ids=INVALID_SPECS)
def test_entry_points_reject_an_invalid_spec(entry, spec):
    with pytest.raises(UsageError):
        entry(spec)


def test_cli_construct_validates_once_per_entry_point(monkeypatch, tmp_path,
                                                      capsys):
    # cli._load, classify, and the core's and the witness's Orientation
    calls = []
    original = tree.require_valid

    def counted(spec):
        calls.append(spec)
        original(spec)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("orient4") and \
                getattr(module, "require_valid", None) is original:
            monkeypatch.setattr(module, "require_valid", counted)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tree.spec_to_dict(mkspec(4, a2=1, a3=3,
                                                        a4=2))))
    assert cli.main(["construct", str(path), "--verify"]) == 0
    assert capsys.readouterr().out.endswith("strong=True\n")
    assert len(calls) <= 4


def test_outlet_projections_form_an_antichain():
    # two-copy slots expose one outlet copy each; the center in-sets of
    # their first copies are pairwise incomparable, and so are their
    # complements, the out-sets; likewise for the second copies
    d, rspec = build_case(mkspec(5, a2=9, e=2), "P35_D4")
    n2 = dict(rspec.block_sizes)["two_copy"]
    for y in (1, 2):
        ins = [center_in(d, branch_copy(i, y)) for i in range(1, n2 + 1)]
        assert not any(a & b in (a, b)
                       for a, b in itertools.combinations(ins, 2))


# ----------------------------------------------------------------------------
# full pipeline
# ----------------------------------------------------------------------------

def test_construct_refuses_c1_with_rule():
    with pytest.raises(Refusal) as err:
        construct_optimal(mkspec(2, a2=2, e=1))
    assert err.value.rule == "Prop3.2"


def test_construct_refuses_open_case():
    with pytest.raises(Refusal) as err:
        construct_optimal(mkspec(4, a2=4, a3=3))
    assert "open case" in err.value.reason


def test_construct_classifies_once(monkeypatch):
    # the package re-exports the function `classify` under the module's name
    classify_module = importlib.import_module("orient4.classify")
    calls = []

    def counted(spec):
        calls.append(spec)
        return classify(spec)

    monkeypatch.setattr(build, "classify", counted)
    monkeypatch.setattr(classify_module, "classify", counted)
    res = construct_optimal(mkspec(4, a2=1, a3=3, a4=2))
    assert res.case == "P312"
    assert len(calls) == 1


def test_construct_returns_user_labels():
    # interleave the classes so slots differ from user order
    spec = TreeSpec(4, (BranchSpec(4, (2,)), BranchSpec(2, (3, 2)),
                        BranchSpec(2, ()), BranchSpec(4, (2,)),
                        BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(4, (2, 2)), BranchSpec(2, (2,))))
    res = construct_optimal(spec)
    assert res.orientation.spec == spec
    assert res.case == "P310"
    assert res.reduced.slot_to_user == (2, 5, 6, 8, 1, 4, 7, 3)
    assert diameter(res.orientation) == 4
    assert is_strong(res.orientation)


def test_construct_handles_large_leaf_multiplicities():
    spec = TreeSpec(3, (BranchSpec(2, (5, 3)), BranchSpec(6, (2, 2, 4)),
                        BranchSpec(2, (7,)), BranchSpec(4, ())))
    res = construct_optimal(spec)
    assert diameter(res.orientation) == 4


def test_construct_provenance_fields():
    res = construct_optimal(mkspec(4, a3=6, a4=2, e=2))
    assert isinstance(res, ConstructionResult)
    assert res.case == "P39"
    assert res.classification.verdict == "C0"
    assert len(res.reduced.slot_to_user) == 10
    assert res.schedule.s == 4


def test_relabel_is_inverse_of_slot_permutation():
    spec = TreeSpec(4, (BranchSpec(4, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(2, (2,)), BranchSpec(4, (2,))))
    res = construct_optimal(spec)
    order = res.reduced.slot_to_user
    slot_spec = TreeSpec(spec.s, tuple(spec.branch(i) for i in order))
    back = relabel_orientation(res.orientation,
                               tuple(sorted(range(1, 5), key=order.index)),
                               slot_spec)
    assert diameter(back) == 4


def test_duality_across_constructions():
    rng = random.Random(5)
    for spec, case in rng.sample(CORE_CASES, 6):
        res = construct_optimal(spec)
        assert diameter(flipped(res.orientation)) == 4


@pytest.mark.parametrize("spec,case", [
    (mkspec(20, a2=21), "P35_D3"),
    (TreeSpec(21, (BranchSpec(2, (2,)), BranchSpec(3, (2,)))
              + (BranchSpec(4, (2,)),) * 19), "P411"),
    (mkspec(30, a2=31), "P35_D3"),
], ids=["s20-P35_D3", "s21-P411", "s30-P35_D3"])
def test_construct_cost_is_bounded_at_a_large_center(spec, case):
    # a recipe reads only the sets it uses; building a whole half-set
    # level would take C(30, 15) sets here
    tracemalloc.start()
    try:
        res = construct_optimal(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.case == case
    assert diameter(res.orientation) == 4
    assert peak < 4 * 2 ** 20, peak


# ----------------------------------------------------------------------------
# the P312 gap (ROADMAP, "P312: a rule for the gap") and the known s = 4
# core certificates
# ----------------------------------------------------------------------------

# the C0 count tuples (|A2|, |A3|, |A4+|, |E|) at s = 4 of the sweep grid
# below whose Prop3.12b recipe P312 finds no completable schedule; a fix of
# the P312 recipe must shrink this list
P312_GAP = {(a2, a3, a4, e) for a2, a3 in ((1, 5), (1, 6), (2, 4))
            for a4 in (0, 1, 2) for e in (0, 1)} | \
    {(3, 2, a4, e) for a4 in (1, 2) for e in (0, 1)}


def test_sweep_grid_constructs_every_c0_tuple_but_the_p312_gap():
    # |A2|, |A3| < C(s, ceil(s/2)) + C(s, s//2 + 1) + 2, |A4+| <= 2,
    # |E| <= 1, one 2-copy leaf per internal branch, two leafy branches;
    # at s = 6 only the slice |A4+| = |E| = 0
    failed = set()
    for s in range(2, 7):
        bound = comb(s, (s + 1) // 2) + comb(s, s // 2 + 1) + 2
        heavy, bare = (range(3), range(2)) if s < 6 else ((0,), (0,))
        c0 = 0
        for a2, a3, a4, e in itertools.product(range(bound), range(bound),
                                               heavy, bare):
            if a2 + a3 + a4 < 2:
                continue
            spec = mkspec(s, a2, a3, a4, e, first_two_leaves=False)
            cls = classify(spec)
            if cls.verdict != C0:
                continue
            c0 += 1
            try:
                case = construct_optimal(spec).case
            except ConstructionError as err:
                assert (cls.rule, cls.case) == ("Prop3.12b", "P312"), spec
                assert "sufficiency schedule cannot be completed" in str(err)
                failed.add((s, a2, a3, a4, e))
            else:
                assert case == cls.case
        assert c0
    gap6 = {t for t in failed if t[0] == 6}
    assert failed - gap6 == {(4, *t) for t in P312_GAP} and \
        len(P312_GAP) == 22
    # of the slice's 359 C0 tuples, 136 route to P312; a fix of the P312
    # recipe must lower this count
    assert len(gap6) == 79


# the C0 tuples (s, |A2|, |A3|, |A4+|, |E|) of the sweep grid from which
# the mimic moves reach a C1 tuple: each is a Prop3.12b C0 with a Prop3.9
# C1 above it, where kappa(k) < 0; a mend of the conflict (ROADMAP,
# "Prop3.12b contradicts Prop3.9") must empty this set
MONOTONICITY_CONFLICTS = {(6, a2, a3, a4, e)
                          for a2, a3 in ((1, 33), (1, 34), (2, 32))
                          for a4 in (0, 1, 2) for e in (0, 1)}


def test_classify_is_monotone_under_the_mimic_moves():
    # a copy that mimics its donor keeps an orientation's diameter <= 4
    # (Koh and Tay), so a C0 verdict carries over to one more copy: an A2
    # branch raised to A3, an A3 branch to A4+, or s to s + 1.  On the
    # sweep grid at every s = 2..6, no C0 tuple may reach a C1 tuple by a
    # chain of these moves; a move's target past the grid is classified
    # on demand
    def bound(s):
        return comb(s, (s + 1) // 2) + comb(s, s // 2 + 1) + 2

    def moves(s, a2, a3, a4, e):
        if a2:
            yield s, a2 - 1, a3 + 1, a4, e
        if a3:
            yield s, a2, a3 - 1, a4 + 1, e
        yield s + 1, a2, a3, a4, e

    @functools.cache
    def verdict(t):
        return classify(mkspec(*t, first_two_leaves=False))

    grid = [(s, a2, a3, a4, e) for s in range(2, 7)
            for a2, a3, a4, e in itertools.product(
                range(bound(s)), range(bound(s)), range(3), range(2))
            if a2 + a3 + a4 >= 2]
    # every move raises s or |A3| + 2 |A4+|, so a tuple's targets come
    # before it in this order
    reaches_c1 = {}
    for t in sorted(grid, key=lambda t: (t[0], t[2] + 2 * t[3]),
                    reverse=True):
        reaches_c1[t] = verdict(t).verdict == C1 or any(
            reaches_c1[u] if u in reaches_c1 else verdict(u).verdict == C1
            for u in moves(*t))
    conflicts = {t for t in grid if verdict(t).verdict == C0 and reaches_c1[t]}
    assert conflicts == MONOTONICITY_CONFLICTS
    assert all(verdict(t).rule == "Prop3.12b"
               and kappa(6, 3, verdict(t).k_witness) < 0 for t in conflicts)


# core rows found by search, one line per branch in slot order: the leaf
# pattern (one word per leaf copy, one letter per branch copy, as in
# build.py) and each branch copy's center in-set, leftmost bit center copy 4
CORE_CERTIFICATES = {
    (1, 6): """oi oi    0010 1110
               ooi ooi  1001 0110 1101
               ioi ioi  0101 1000 1010
               oio oio  1001 0111 0110
               ooi ooi  0110 1001 1011
               oii oii  0100 0011 1100
               ioi ioi  0110 0001 1001""",
    (1, 5): """oi oi    0101 1101
               oii oii  0011 0111 1110
               ioi ioi  0111 1001 1110
               ioi ioi  0111 1010 1110
               oio oio  0111 1011 1110
               iio ioi  0111 1100 1100""",
    (2, 4): """oi oi    1010 1101
               io io    1011 1100
               oii oii  0011 0110 1001
               oii oii  0101 0110 1001
               ooi ooi  0110 1001 1110
               oio oio  0110 0111 1001""",
    (4, 2): """io oi    0101 0101
               io oi    1100 1100
               io oi    0011 0011
               oi io    1001 1001
               oii ioo  0110 0110 0110
               iio ooi  1010 1010 1010""",
    (3, 3): """io oi    0101 0101
               io oi    0110 0110
               io oi    1010 1010
               oio ioi  0011 0011 0011
               ioo oii  1001 1001 1001
               ioo oii  1100 1100 1100""",
}

CERTIFIED_VERDICTS = {
    (1, 6): (C0, "Prop3.12b"), (1, 5): (C0, "Prop3.12b"),
    (2, 4): (C0, "Prop3.12b"), (4, 2): (UNKNOWN_GAP, "Prop3.12"),
    (3, 3): (UNKNOWN_GAP, "Prop3.12"),
}


@pytest.mark.parametrize("counts", CORE_CERTIFICATES, ids=str)
def test_core_certificate_has_diameter_4(counts):
    rows = []
    for line in CORE_CERTIFICATES[counts].splitlines():
        words = line.split()   # two leaf copies, then the in-sets
        rows.append((tuple(words[:2]), tuple(int(w, 2) for w in words[2:])))
    spec = TreeSpec(4, tuple(BranchSpec(len(row), (2,)) for _, row in rows))
    assert spec == mkspec(4, *counts, first_two_leaves=False)
    d = Orientation(spec, _core_bits("certificate", spec, rows))
    assert diameter(d) == 4 and is_strong(d)
    assert set(shortest_cycle_lengths(d)) == {4}
    cls = classify(spec)
    assert (cls.verdict, cls.rule) == CERTIFIED_VERDICTS[counts]
    if cls.verdict == C0:
        # the P312 gap: the recipe misses what the certificate shows
        assert counts + (0, 0) in P312_GAP
        with pytest.raises(ConstructionError):
            construct_optimal(spec)
