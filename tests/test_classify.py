"""Decision-table behaviour on known boundaries, plus routing."""

import hashlib
import json
import random
import pytest

from orient4.classify import C0, CASE_IDS, classify, select_case
from orient4.errors import UsageError
from orient4.tree import BranchSpec, TreeSpec


def mkspec(s, a2=0, a3=0, a4=0, e=0, a4_mult=4, leaves=(2,)):
    branches = [BranchSpec(2, leaves) for _ in range(a2)]
    branches += [BranchSpec(3, leaves) for _ in range(a3)]
    branches += [BranchSpec(a4_mult, leaves) for _ in range(a4)]
    branches += [BranchSpec(2, ()) for _ in range(e)]
    return TreeSpec(s, tuple(branches))


def verdict(spec):
    return classify(spec).verdict


# ----------------------------------------------------------------------------
# headline rules
# ----------------------------------------------------------------------------

def test_degree_two_center_is_always_orientable():
    for s in (2, 3, 4, 7):
        spec = TreeSpec(s, (BranchSpec(5, (2, 3)), BranchSpec(2, (4,))))
        cls = classify(spec)
        assert (cls.verdict, cls.rule) == ("C0", "Thm1.6a")
        assert cls.orientation_number == 4


def test_doubled_copies_with_small_branches_need_diameter_5():
    cls = classify(mkspec(2, a2=2, e=1))
    assert (cls.verdict, cls.rule, cls.orientation_number) == \
        ("C1", "Prop3.2", 5)
    assert verdict(mkspec(2, a2=1, a3=1, e=1)) == "C1"
    assert verdict(mkspec(2, a3=3)) == "C1"


def test_no_small_branches_is_always_orientable():
    assert classify(mkspec(2, a4=2, e=2)).rule == "Prop3.4"
    assert verdict(mkspec(2, a4=2, e=2)) == "C0"
    assert verdict(mkspec(5, a4=3, e=1, a4_mult=7)) == "C0"


def test_two_copy_only_thresholds():
    # C(3,2) = 3: full-degree allows 3, a leafless branch lowers it to 2
    assert verdict(mkspec(3, a2=3)) == "C0"
    assert verdict(mkspec(3, a2=2, e=1)) == "C0"
    assert verdict(mkspec(3, a2=3, e=1)) == "C1"
    assert verdict(mkspec(3, a2=4)) == "C1"
    # s=5: C(5,3) = 10
    assert verdict(mkspec(5, a2=10)) == "C0"
    assert verdict(mkspec(5, a2=9, e=2)) == "C0"
    assert verdict(mkspec(5, a2=10, e=2)) == "C1"
    assert verdict(mkspec(5, a2=11)) == "C1"


# ----------------------------------------------------------------------------
# even s >= 4
# ----------------------------------------------------------------------------

def test_even_three_copy_threshold():
    # C(4,2) + C(4,3) - 2 = 8
    assert verdict(mkspec(4, a3=8)) == "C0"
    assert verdict(mkspec(4, a3=8, a4=2, e=1)) == "C0"
    assert verdict(mkspec(4, a3=9)) == "C1"
    assert verdict(mkspec(4, a3=9, a4=2)) == "C1"


def test_even_heavy_mix_thresholds():
    # C(4,2) - 2 = 4 with two absorbers; C(4,2) - 1 = 5 with a single
    # absorber at full degree
    assert verdict(mkspec(4, a2=4, a4=2)) == "C0"
    assert verdict(mkspec(4, a2=5, a4=2)) == "C1"
    assert verdict(mkspec(4, a2=5, a4=1)) == "C0"
    assert verdict(mkspec(4, a2=6, a4=1)) == "C1"
    assert verdict(mkspec(4, a2=5, a4=1, e=1)) == "C1"


def test_even_single_three_copy_thresholds():
    assert verdict(mkspec(4, a2=5, a3=1)) == "C0"
    assert verdict(mkspec(4, a2=6, a3=1)) == "C1"
    assert verdict(mkspec(4, a2=4, a3=1, e=1)) == "C0"
    assert verdict(mkspec(4, a2=5, a3=1, e=1)) == "C1"


def test_even_mixed_regime_three_valued():
    # sufficient: s=4, |A2|=1, |A3|=3 plus two absorbers
    cls = classify(mkspec(4, a2=1, a3=3, a4=2))
    assert cls.verdict == "C0"
    assert cls.rule == "Prop3.12b"
    assert cls.k_witness == 2
    assert cls.case == "P312"
    # necessary bound violated: 2*5+3 = 13 > 10 - kappa*(6) = 12
    cls = classify(mkspec(4, a2=5, a3=3))
    assert (cls.verdict, cls.rule) == ("C1", "Prop3.12a")
    assert cls.case is None
    # in between: open
    cls = classify(mkspec(4, a2=4, a3=3))
    assert cls.verdict == "UnknownGap"
    assert cls.rule == "Prop3.12"
    assert cls.orientation_number is None
    assert cls.k_witness is None and cls.case is None
    assert cls.threshold_note.endswith(
        "sufficient bound fails for every k in [5,5]")
    # |A2| = C-1 = 5 leaves Prop3.12's range [|A2|+1, C-1] empty
    cls = classify(mkspec(4, a2=5, a3=1, a4=1))
    assert (cls.verdict, cls.rule) == ("UnknownGap", "Prop3.12")
    assert cls.threshold_note == (
        "2|A2|+|A3|=11: necessary bound 12 holds, sufficient bound has no "
        "admissible k (|A2|=5 >= C-1=5)")


# ----------------------------------------------------------------------------
# odd s >= 3
# ----------------------------------------------------------------------------

def test_odd_three_copy_threshold():
    # 2*C(3,2) - 2 = 4
    assert verdict(mkspec(3, a3=4)) == "C0"
    assert verdict(mkspec(3, a3=5)) == "C1"
    assert verdict(mkspec(3, a3=4, a4=2, e=1)) == "C0"
    # 2*C(5,3) - 2 = 18
    assert verdict(mkspec(5, a3=18)) == "C0"
    assert verdict(mkspec(5, a3=19)) == "C1"


def test_odd_two_copy_with_absorbers():
    assert verdict(mkspec(3, a2=2, a4=1)) == "C0"
    assert verdict(mkspec(3, a2=3, a4=1)) == "C1"


def test_odd_mixed_no_absorber_and_equality_clause():
    # |A3| = 1: up to C-1 two-copy branches
    assert verdict(mkspec(3, a2=2, a3=1)) == "C0"
    assert verdict(mkspec(3, a2=3, a3=1)) == "C1"
    # |A3| >= 2: weight threshold 2C - 2
    assert verdict(mkspec(3, a2=1, a3=2)) == "C0"
    assert verdict(mkspec(3, a2=1, a3=3)) == "C1"
    # equality clause at s=5: (6,7) passes, (5,9) has the same weight but
    # too few two-copy branches
    assert verdict(mkspec(5, a2=6, a3=7)) == "C0"
    assert verdict(mkspec(5, a2=5, a3=9)) == "C1"
    # and the clause needs s >= 5: no s=3 instance can use it
    assert verdict(mkspec(3, a2=2, a3=1, e=0)) == "C0"  # weight 5 = 2C-1
    assert verdict(mkspec(3, a2=2, a3=2)) == "C1"       # weight 6 via clause? no


def test_odd_mixed_with_absorbers():
    assert verdict(mkspec(3, a2=1, a3=1, a4=1)) == "C0"
    assert verdict(mkspec(3, a2=2, a3=1, a4=1)) == "C1"
    assert verdict(mkspec(3, a2=1, a3=2, a4=1)) == "C0"
    assert verdict(mkspec(3, a2=1, a3=3, a4=1)) == "C1"
    # equality clause is not available once an absorber exists
    assert verdict(mkspec(5, a2=6, a3=7, a4=1)) == "C1"


# ----------------------------------------------------------------------------
# invariances
# ----------------------------------------------------------------------------

def test_verdict_depends_only_on_class_counts():
    rng = random.Random(11)
    base = mkspec(4, a2=4, a3=1, e=1)
    want = classify(base).verdict
    for _ in range(30):
        branches = list(base.branches)
        rng.shuffle(branches)
        branches = [BranchSpec(b.multiplicity,
                               tuple(rng.randint(2, 8)
                                     for _ in b.leaf_multiplicities))
                    for b in branches]
        assert classify(TreeSpec(4, tuple(branches))).verdict == want


def test_monotone_in_class_sizes():
    # shrinking |A2| or |A3| never flips C0 to C1 (equality clause aside)
    for s, a2, a3, a4 in ((4, 4, 0, 2), (4, 0, 8, 1), (3, 1, 2, 0),
                          (4, 1, 3, 2), (3, 0, 4, 2)):
        spec = mkspec(s, a2=a2, a3=a3, a4=a4)
        if classify(spec).verdict != "C0":
            continue
        for da2 in range(a2 + 1):
            for da3 in range(a3 + 1):
                smaller = mkspec(s, a2=a2 - da2, a3=a3 - da3, a4=a4)
                try:
                    assert classify(smaller).verdict in ("C0", "UnknownGap")
                except UsageError:
                    pass  # shrank below a valid diameter-4 shape


def test_invalid_spec_propagates():
    with pytest.raises(UsageError):
        classify(TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, ()))))


# ----------------------------------------------------------------------------
# construction-case routing
# ----------------------------------------------------------------------------

def test_select_case_examples():
    assert select_case(mkspec(5, a2=4)) == "P35_D1"
    assert select_case(mkspec(5, a2=9, e=2)) == "P35_D4"
    assert select_case(mkspec(5, a2=6)) == "P35_D3"
    assert select_case(mkspec(5, a2=4, e=1)) == "P35_D2"
    assert select_case(mkspec(3, a2=1, a3=2)) == "P43_D2"
    assert select_case(mkspec(3, a2=2, a3=1)) == "P43_D1"
    assert select_case(mkspec(5, a2=6, a3=7)) == "P43_D3"
    assert select_case(mkspec(2, a4=2, e=2)) == "P34"
    assert select_case(TreeSpec(4, (BranchSpec(2, (2,)),
                                    BranchSpec(3, (2,))))) == "Thm16a"
    assert select_case(mkspec(4, a3=6, a4=2, e=2)) == "P39"
    assert select_case(mkspec(4, a2=4, a4=2)) == "P310"
    assert select_case(mkspec(4, a2=1, a3=3, a4=2)) == "P312"
    assert select_case(mkspec(3, a3=4, a4=2, e=2)) == "P41"
    assert select_case(mkspec(3, a2=2, a4=2, e=2)) == "P411"
    assert select_case(mkspec(3, a2=1, a3=2, a4=2, e=2)) == "P413"


def test_select_case_fallback_routes():
    # small heads demote to the generic two-copy recipes
    assert select_case(mkspec(4, a3=2, a4=1)).startswith("P35")
    assert select_case(mkspec(4, a2=2, a3=1, e=1)) == "P311"
    assert select_case(mkspec(5, a2=1, a3=1, a4=1)).startswith("P35")
    # mid-size odd mixes use the four-copy absorber with demoted 3-branches
    assert select_case(mkspec(5, a2=1, a3=1, a4=3)) == "P411"
    # the single-absorber full-degree even case demotes everything
    assert select_case(mkspec(4, a2=5, a4=1)).startswith("P35")


def test_select_case_refuses_non_orientable():
    with pytest.raises(UsageError):
        select_case(mkspec(2, a2=2, e=1))
    with pytest.raises(UsageError):
        select_case(mkspec(4, a2=4, a3=3))  # open regime


def test_routing_grid_is_pinned():
    # the whole decision (verdict, rule, note, split witness, recipe) over
    # s = 2..9, |A2|, |A3| <= 15, |A4+| <= 3, |E| <= 2, one sha256; covers
    # a degree-2 center with A2 = A3 = empty (rule Thm1.6a, recipe P34) and
    # Prop3.10's single absorber at full degree (a P35 variant)
    rows = []
    for s in range(2, 10):
        for n2 in range(16):
            for n3 in range(16):
                for n4 in range(4):
                    if n2 + n3 + n4 < 2:
                        continue
                    for ne in range(3):
                        spec = mkspec(s, a2=n2, a3=n3, a4=n4, e=ne)
                        cls = classify(spec)
                        assert (cls.case in CASE_IDS) == (cls.verdict == C0)
                        rows.append([s, n2, n3, n4, ne, cls.verdict,
                                     cls.rule, cls.threshold_note,
                                     cls.k_witness, cls.case])
    assert len(rows) == 24_480
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "aff2a52f9edfa0251194467c2ab2158f98fe553162be5a8763c3516b71506d6c"
