"""Acceptance suite: one test per criterion, each printing a PASS line.

1. classifier-oracle agreement over every enumerable small instance,
   and on two s = 4 instances
2. the two smallest headline instances reproduce orientation numbers 4 and 5
3. construction regression over the reference parameter sets
4. boundary fidelity of the threshold rules
5. the squashed-order toolkit against brute force and pinned values
6. structural properties on 200 randomized orientable instances
7. complete-bipartite cross-check of the enumeration harness
"""

import itertools
import random
import time
from math import comb

from test_digraph import flipped, reference_distances
from test_oracle import check_witness

from orient4.build import build_base_orientation, construct_optimal, reduce
from orient4.classify import classify
from orient4.digraph import (diameter, extend_orientation, is_strong,
                             shortest_cycle_lengths)
from orient4.errors import ConstructionError
from orient4.oracle import bipartite_orientation_number, orientation_number
from orient4.sperner import (first_m, kappa, last_m, members, shade,
                             shadow_size_kkt)
from orient4.tree import BranchSpec, TreeSpec, edge_count, validate

SWEEP_MAX_EDGES = 22


# vertex names as the program prints them
def center(x):
    return f"c.{x}"


def branch_copy(i, y):
    return f"b{i}.{y}"


def leaf_copy(i, alpha, z):
    return f"l{i}.{alpha}.{z}"


def mkspec(s, a2=0, a3=0, a4=0, e=0):
    branches = []
    first = True
    for mult, count in ((2, a2), (3, a3), (4, a4)):
        for _ in range(count):
            branches.append(BranchSpec(mult, (2, 2) if first else (2,)))
            first = False
    branches += [BranchSpec(2, ()) for _ in range(e)]
    return TreeSpec(s, tuple(branches))


# ----------------------------------------------------------------------------
# criterion 1: classifier vs oracle on everything enumerable
# ----------------------------------------------------------------------------

def sweep_specs(max_edges=SWEEP_MAX_EDGES):
    """All diameter-4 specs with 2-3 branches, 0-2 leaves per branch and
    multiplicities in {2,3}, up to branch/leaf reordering, within budget."""
    options = []
    for mult in (2, 3):
        for nl in range(3):
            for lm in itertools.combinations_with_replacement((3, 2), nl):
                options.append((mult, lm))
    specs, seen = [], set()
    for s in (2, 3):
        for nb in (2, 3):
            for combo in itertools.combinations_with_replacement(options, nb):
                key = (s, tuple(sorted(combo)))
                if key in seen:
                    continue
                seen.add(key)
                spec = TreeSpec(s, tuple(BranchSpec(m, lm)
                                         for m, lm in combo))
                if validate(spec) or edge_count(spec) > max_edges:
                    continue
                specs.append(spec)
    return specs


def test_criterion_1_classifier_oracle_agreement():
    t0 = time.perf_counter()
    specs = sweep_specs()
    assert len(specs) >= 10
    expected = {"C0": 4, "C1": 5}
    disagreements = []
    for spec in specs:
        verdict = classify(spec).verdict
        got = orientation_number(spec, max_edges=SWEEP_MAX_EDGES)
        check_witness(spec, got)
        if expected[verdict] != got.orientation_number:
            disagreements.append((spec, verdict, got.orientation_number))
    elapsed = time.perf_counter() - t0
    assert not disagreements, disagreements
    assert elapsed < 600
    print(f"\nACCEPTANCE 1 PASS: {len(specs)} instances, classifier and "
          f"oracle agree everywhere ({elapsed:.1f}s)")


def test_criterion_1_even_center_ground_truth():
    # the smallest s = 4 instances; the sweep above has s in {2, 3} only
    t0 = time.perf_counter()
    checked = []
    for leaves, edges, strong in (((2,), 24, 531_812),
                                  ((3,), 26, 1_094_196)):
        spec = TreeSpec(4, (BranchSpec(2, (2,)), BranchSpec(2, leaves)))
        assert edge_count(spec) == edges
        assert classify(spec).verdict == "C0"
        got = orientation_number(spec, max_edges=26, symmetry=True)
        assert got.orientation_number == 4
        check_witness(spec, got)
        assert got.strong_count == strong
        checked.append((edges, got.orientation_number))
    print(f"\nACCEPTANCE 1 PASS (s = 4): {checked}, classifier C0, oracle "
          f"agrees ({time.perf_counter() - t0:.1f}s)")


# ----------------------------------------------------------------------------
# criterion 2: the two smallest headline instances
# ----------------------------------------------------------------------------

def test_criterion_2_smallest_instances():
    path = TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,))))
    assert orientation_number(path).orientation_number == 4
    deg3 = TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(2, ())))
    assert orientation_number(deg3).orientation_number == 5
    print("\nACCEPTANCE 2 PASS: path shape -> 4, degree-3 doubled shape -> 5")


# ----------------------------------------------------------------------------
# criterion 3: construction regression over the reference parameter sets
# ----------------------------------------------------------------------------

REFERENCE_SETS = [
    ("P34", mkspec(2, a4=2, e=2)),
    ("P35_D1", mkspec(5, a2=4)),
    ("P35_D2", mkspec(5, a2=4, e=2)),
    ("P35_D3", mkspec(5, a2=5)),
    ("P35_D4", mkspec(5, a2=9, e=2)),
    ("P39", mkspec(4, a3=6, a4=2, e=2)),
    ("P310", mkspec(4, a2=4, a4=2)),
    ("P312", mkspec(6, a2=12, a3=8, a4=2, e=2)),
    ("P41", mkspec(3, a3=4, a4=2, e=2)),
    ("P43_D1", mkspec(3, a2=1, a3=1, e=2)),
    ("P43_D2", mkspec(3, a2=1, a3=2, e=2)),
    ("P43_D3", mkspec(5, a2=6, a3=7)),
    ("P43_D3", mkspec(5, a2=6, a3=7, e=2)),
    ("P411", mkspec(3, a2=2, a4=2, e=2)),
    ("P413", mkspec(3, a2=1, a3=2, a4=2, e=2)),
]


def test_criterion_3_construction_regression():
    worst = 0.0
    for case, spec in REFERENCE_SETS:
        t0 = time.perf_counter()
        d = build_base_orientation(reduce(spec, case))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert diameter(d) == 4, case
        assert is_strong(d), case
        assert max(shortest_cycle_lengths(d)) == 4, case
        assert elapsed < 1.0, (case, elapsed)
    print(f"\nACCEPTANCE 3 PASS: {len(REFERENCE_SETS)} reference "
          f"constructions verified (worst {worst * 1000:.0f}ms)")


# ----------------------------------------------------------------------------
# criterion 4: boundary fidelity
# ----------------------------------------------------------------------------

def test_criterion_4_boundaries():
    # even three-copy row at s=4: threshold C(4,2)+C(4,3)-2 = 8
    at8 = mkspec(4, a3=8)
    assert classify(at8).verdict == "C0"
    res = construct_optimal(at8)
    assert diameter(res.orientation) == 4 and is_strong(res.orientation)
    assert classify(mkspec(4, a3=9)).verdict == "C1"

    # odd three-copy row at s=3: threshold 2*C(3,2)-2 = 4
    assert classify(mkspec(3, a3=4)).verdict == "C0"
    assert classify(mkspec(3, a3=5)).verdict == "C1"

    # the odd equality clause at s=5: weight 19 passes only with 6 two-copy
    # branches, and its dedicated recipe verifies
    eq = mkspec(5, a2=6, a3=7)
    cls = classify(eq)
    assert cls.verdict == "C0"
    res = construct_optimal(eq)
    assert res.case == "P43_D3"
    assert diameter(res.orientation) == 4
    assert classify(mkspec(5, a2=5, a3=9)).verdict == "C1"
    print("\nACCEPTANCE 4 PASS: all four boundary families behave exactly")


# ----------------------------------------------------------------------------
# criterion 5: squashed-order toolkit
# ----------------------------------------------------------------------------

def brute_shadow(sets):
    out = set()
    for s in sets:
        for x in s:
            out.add(frozenset(s) - {x})
    return out


def all_antichains(n):
    ground = list(range(1, n + 1))
    subsets = [frozenset(c) for r in range(n + 1)
               for c in itertools.combinations(ground, r)]
    out = []
    for pick in range(1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if (pick >> i) & 1]
        if all(not (x <= y) for x in fam for y in fam if x is not y):
            out.append(fam)
    return out


def test_criterion_5_sperner_toolkit():
    t0 = time.perf_counter()
    # pinned values around the reordered-up-set reference point
    assert kappa(6, 3, 13) == 0
    tail = [members(s) for s in last_m(6, 3, 13)]
    assert tail == [(1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 6), (1, 3, 6),
                    (2, 3, 6), (1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 5, 6),
                    (2, 5, 6), (3, 5, 6), (4, 5, 6)]
    grown = {frozenset(members(s)) for s in shade(last_m(6, 3, 13), 6)}
    level4 = {frozenset(c) for c in itertools.combinations(range(1, 7), 4)}
    assert level4 - grown == {frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 5})}

    # the cascade formula is exact on initial segments for every n <= 7
    for n in range(1, 8):
        for k in range(1, n + 1):
            for m in range(comb(n, k) + 1):
                fam = [members(s) for s in first_m(n, k, m)]
                assert shadow_size_kkt(n, k, m) == len(brute_shadow(fam))

    # maximum |A|+|B| over cross-intersecting antichain pairs by exhaustion
    maxima = {}
    for n in (3, 4):
        chains = all_antichains(n)
        best = 0
        for fa in chains:
            for fb in chains:
                if all(a & b for a in fa for b in fb):
                    best = max(best, len(fa) + len(fb))
        maxima[n] = best
        assert best == comb(n, (n + 1) // 2) + comb(n, (n + 2) // 2)
    assert maxima == {3: 6, 4: 10}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 5 PASS: toolkit exact (cross-intersecting maxima "
          f"{maxima}) in {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# criterion 6: property suite on randomized orientable instances
# ----------------------------------------------------------------------------

CENTER_DISTANCE_TWO_CASES = {"P35_D3", "P35_D4", "P39", "P310", "P312",
                             "P41", "P43_D1", "P43_D2", "P43_D3", "P411",
                             "P413"}


def random_c0_specs(seed=20260810):
    rng = random.Random(seed)
    while True:
        s = rng.randint(2, 6)
        deg = rng.randint(2, 8) if rng.random() < 0.6 else rng.randint(8, 24)
        branches = []
        for _ in range(deg):
            mult = rng.choice((2, 2, 2, 3, 3, 4, 5, 6))
            nl = rng.choice((0, 1, 1, 1, 2))
            branches.append(BranchSpec(mult, tuple(
                rng.randint(2, 4) for _ in range(nl))))
        spec = TreeSpec(s, tuple(branches))
        if validate(spec):
            continue
        if classify(spec).verdict != "C0":
            continue
        yield spec


def _plus_one(spec):
    return TreeSpec(spec.s + 1, tuple(
        BranchSpec(b.multiplicity + 1,
                   tuple(lm + 1 for lm in b.leaf_multiplicities))
        for b in spec.branches))


def _check_parity(d, rng):
    spec = d.spec
    leafy = [i for i in range(1, spec.deg_c + 1)
             if spec.branch(i).leaf_count > 0]
    for i in rng.sample(leafy, min(2, len(leafy))):
        others = [j for j in range(1, spec.deg_c + 1) if j != i]
        for j in rng.sample(others, min(2, len(others))):
            q = rng.randint(1, spec.branch(j).multiplicity)
            p = rng.randint(1, spec.branch(i).leaf_multiplicities[0])
            u, v = leaf_copy(i, 1, p), branch_copy(j, q)
            dist = reference_distances(d, sources=(u, v))
            assert dist[u].get(v) == dist[v].get(u) == 3


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(99)
    cases_seen = set()
    checked = 0
    unschedulable = 0
    source = random_c0_specs()
    while checked < 200:
        spec = next(source)
        try:
            res = construct_optimal(spec)
        except ConstructionError as err:
            # the known P312 gap (ROADMAP, "P312: a rule for the
            # gap"): no half-set schedule
            # completes these even-multiplicity Prop3.12b instances
            cls = classify(spec)
            assert (cls.rule, cls.case) == ("Prop3.12b", "P312"), spec
            assert "sufficiency schedule cannot be completed" in str(err)
            unschedulable += 1
            continue
        checked += 1
        d = res.orientation
        cases_seen.add(res.case)
        assert diameter(d) == 4 and is_strong(d)

        # duality: reversing every arc preserves the diameter
        assert diameter(flipped(d)) == 4

        # parity: leaf copies sit at distance exactly 3 from foreign
        # branch copies, in both directions
        _check_parity(d, rng)

        # center copies pairwise at distance 2 in the cores that claim it
        base = build_base_orientation(res.reduced)
        if res.case in CENTER_DISTANCE_TWO_CASES:
            h = res.reduced.h_spec
            dist = reference_distances(base)
            for r1 in range(1, h.s + 1):
                for r2 in range(1, h.s + 1):
                    if r1 != r2:
                        assert dist[center(r1)].get(center(r2)) == 2

        # the mimic extension by +1 everywhere keeps the diameter at 4
        lifted = extend_orientation(base, _plus_one(base.spec), 4)
        assert diameter(lifted) == 4
    elapsed = time.perf_counter() - t0
    # all five at s = 4, with this seed; a fix of the P312 recipe must
    # lower this count
    assert unschedulable == 5
    assert len(cases_seen) >= 6, cases_seen
    print(f"\nACCEPTANCE 6 PASS: 200 instances, zero violations; recipes "
          f"exercised: {sorted(cases_seen)}; {unschedulable} draws hit the "
          f"known sufficiency-rule schedule gap ({elapsed:.1f}s)")


# ----------------------------------------------------------------------------
# criterion 7: complete-bipartite cross-check
# ----------------------------------------------------------------------------

def test_criterion_7_bipartite_closed_form():
    checked = []
    for p in range(2, 5):
        for q in range(p, 11):
            if p * q > 20:
                continue
            want = 3 if q <= comb(p, p // 2) else 4
            got = bipartite_orientation_number(p, q).orientation_number
            assert got == want, (p, q)
            checked.append((p, q, got))
    assert len(checked) == 15
    print(f"\nACCEPTANCE 7 PASS: {checked}")
