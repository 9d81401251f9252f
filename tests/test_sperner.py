"""Squashed-order toolkit against brute-force oracles and known values."""

import itertools
import json
import os
import pathlib
import subprocess
import sys
from math import comb

import pytest

import orient4
from orient4.errors import UsageError
from orient4.sperner import (first_m, kappa, kappa_star, last_m, level_size,
                             members, shade, shadow, shadow_size_kkt,
                             squashed_level)


# ----------------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------------

def brute_shadow(sets):
    out = set()
    for s in sets:
        for x in s:
            out.add(frozenset(s) - {x})
    return out


def brute_shade(sets, n):
    out = set()
    for s in sets:
        for x in range(1, n + 1):
            if x not in s:
                out.add(frozenset(s) | {x})
    return out


def all_subfamilies(level):
    for r in range(len(level) + 1):
        yield from itertools.combinations(level, r)


def mask(f):
    return sum(1 << (x - 1) for x in f)


def sets_of(fam):
    return [frozenset(members(x)) for x in fam]


def squash_key(f):
    """Brute-force squashed order: a <_s b iff the largest element of the
    symmetric difference lies in b, i.e. compare the members from the top."""
    return sorted(members(f) if isinstance(f, int) else f, reverse=True)


# ----------------------------------------------------------------------------
# squashed order
# ----------------------------------------------------------------------------

def test_squashed_listing_n5_k3():
    listing = [members(f) for f in squashed_level(5, 3)]
    assert listing == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5),
                       (1, 3, 5), (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5)]


def test_squashed_compare_examples():
    # the squash relation is the integer order of the masks
    assert mask({1, 2, 3}) < mask({1, 2, 4})
    assert mask({1, 4, 5}) > mask({2, 3, 4})
    assert mask({2, 3, 5}) == mask({5, 3, 2})


def test_compare_matches_rank_order():
    # on every level with n <= 12, the generated (rank) order is both the
    # integer order of the masks and the brute-force squash relation
    for n in range(13):
        for k in range(n + 1):
            level = list(squashed_level(n, k))
            assert level == sorted(level)
            brute = sorted(itertools.combinations(range(1, n + 1), k),
                           key=squash_key)
            assert [members(f) for f in level] == brute


# ----------------------------------------------------------------------------
# initial / final segments
# ----------------------------------------------------------------------------

def test_first_m_examples():
    fam = first_m(5, 3, 4)
    assert [members(s) for s in fam] == \
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert len(first_m(6, 2, 0)) == 0


def test_last_m_example():
    fam = last_m(6, 3, 13)
    listing = [members(s) for s in fam]
    assert listing[0] == (1, 4, 5)
    assert listing[1] == (2, 4, 5)
    assert listing[-1] == (4, 5, 6)
    assert len(listing) == 13


def test_first_last_partition_level():
    for n in range(1, 7):
        for k in range(n + 1):
            total = comb(n, k)
            for m in range(total + 1):
                f = set(first_m(n, k, m))
                l = set(last_m(n, k, total - m))
                assert not (f & l)
                assert len(f | l) == total


def test_segment_range_check():
    with pytest.raises(UsageError):
        first_m(5, 2, 11)
    with pytest.raises(UsageError):
        last_m(5, 2, -1)
    # a level is checked when asked for, before anything is generated
    for n, k in ((-1, 0), (3, 5), (3, -1)):
        with pytest.raises(UsageError, match=f"invalid level n={n}, k={k}"):
            squashed_level(n, k)
    assert level_size(40, 20) == comb(40, 20)


# ----------------------------------------------------------------------------
# shadow / shade
# ----------------------------------------------------------------------------

def test_shadow_single_set():
    assert set(shadow([mask({1, 2, 3})])) == \
        {mask({1, 2}), mask({1, 3}), mask({2, 3})}


def test_shadow_of_first_four():
    got = set(sets_of(shadow(first_m(5, 3, 4))))
    assert got == brute_shadow(sets_of(first_m(5, 3, 4)))
    assert got == {frozenset(c) for c in itertools.combinations(range(1, 5), 2)}


def test_shade_complement_of_last13():
    grown = set(sets_of(shade(last_m(6, 3, 13), 6)))
    level4 = {frozenset(c) for c in itertools.combinations(range(1, 7), 4)}
    assert level4 - grown == {frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 5})}


def test_shadow_rejects_mixed_family():
    with pytest.raises(UsageError):
        shadow([mask({1}), mask({1, 2})])
    with pytest.raises(UsageError):
        shade([mask({1}), mask({1, 2})], 4)


@pytest.mark.parametrize("run, message", [
    (lambda: shadow((0,)), "^shadow undefined for k=0 members$"),
    (lambda: shade((0b111,), 3), "^shade undefined for k=n members$"),
    (lambda: shadow_size_kkt(5, 0, 1), "^shadow size needs k >= 1$"),
], ids=["shadow-k0", "shade-kn", "cascade-k0"])
def test_undefined_levels_are_refused(run, message):
    with pytest.raises(UsageError, match=message):
        run()


def test_shadow_output_sorted_squashed():
    for sh in (shadow(last_m(6, 3, 7)), shade(first_m(6, 3, 7), 6)):
        assert list(sh) == sorted(sh, key=squash_key)
        assert len(set(sh)) == len(sh)


# ----------------------------------------------------------------------------
# cascade shadow size and kappa
# ----------------------------------------------------------------------------

def test_cascade_examples():
    assert shadow_size_kkt(5, 3, 4) == 6
    assert shadow_size_kkt(6, 3, 0) == 0
    assert shadow_size_kkt(6, 3, 13) == 13


def test_cascade_matches_brute_small():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for m in range(comb(n, k) + 1):
                fam = first_m(n, k, m)
                assert shadow_size_kkt(n, k, m) == \
                    len(brute_shadow(sets_of(fam)))


def test_kkt_is_a_lower_bound_exhaustively():
    # every uniform family on a ground set of size <= 5
    for n in range(2, 6):
        for k in range(1, n + 1):
            level = sets_of(squashed_level(n, k))
            for fam in all_subfamilies(level):
                assert len(brute_shadow(fam)) >= shadow_size_kkt(n, k, len(fam))


def test_shadow_equals_shade_of_reversed_segment():
    for n in range(1, 7):
        for k in range(1, n):
            for m in range(comb(n, k) + 1):
                lhs = len(shadow(first_m(n, k, m))) if m else 0
                rhs = len(shade(last_m(n, n - k, m), n)) if m else 0
                assert lhs == rhs


def test_kappa_values():
    assert kappa(6, 3, 13) == 0
    assert kappa(6, 3, 0) == 0
    assert kappa_star(4, 2, 4) == 0


def test_kappa_star_is_the_running_minimum_of_kappa():
    for n in range(13):
        for r in range(1, n + 1):
            want = 0
            for m in range(comb(n, r) + 1):
                want = min(want, kappa(n, r, m))
                assert kappa_star(n, r, m) == want, (n, r, m)


def test_kappa_star_at_level_zero():
    assert kappa_star(3, 0, 0) == 0
    with pytest.raises(UsageError, match="shadow size needs k >= 1"):
        kappa_star(3, 0, 1)
    with pytest.raises(UsageError, match=r"m=2 outside 0..C\(3,0\)=1"):
        kappa_star(3, 0, 2)


def test_kappa_star_cli_at_a_large_level():
    # one pass over the first m sets: seconds at most, not minutes
    src = pathlib.Path(orient4.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "orient4.cli", "sperner", "kappa", "--n",
         "10000", "--r", "5000", "--m", "100000", "--json"],
        capture_output=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert json.loads(proc.stdout) == {
        "kappa": kappa(10000, 5000, 100000), "kappa_star": 0}


def test_kappa_star_threshold_and_monotone():
    for n in (4, 6):
        r = n // 2
        # smallest m at which kappa*_{n,n/2} can go negative
        thresh = 1 + sum(comb(2 * i - 1, i) for i in range(1, r + 1))
        prev = 0
        for m in range(comb(n, r) + 1):
            ks = kappa_star(n, r, m)
            assert ks <= 0
            assert ks <= prev
            if m < thresh:
                assert ks == 0
            prev = ks
        # once past the threshold the minimum goes strictly negative
        if thresh <= comb(n, r):
            assert kappa_star(n, r, thresh) < 0


# ----------------------------------------------------------------------------
# antichains
# ----------------------------------------------------------------------------

def all_antichains(n):
    ground = list(range(1, n + 1))
    subsets = [frozenset(c) for r in range(n + 1)
               for c in itertools.combinations(ground, r)]
    out = []
    for pick in range(1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if (pick >> i) & 1]
        if all(not (a <= b) for a in fam for b in fam if a is not b):
            out.append(fam)
    return out


def test_sperner_bound_exhaustive():
    for n in (2, 3, 4):
        best = max(len(f) for f in all_antichains(n))
        assert best == comb(n, n // 2)


def test_cross_intersecting_maximum_exhaustive():
    # the maximum of |A| + |B| over cross-intersecting antichain pairs,
    # computed by exhaustion, matches the two-middle-binomial formula
    for n, expected in ((3, 6), (4, 10)):
        chains = all_antichains(n)
        best = 0
        for fa in chains:
            for fb in chains:
                if all(a & b for a in fa for b in fb):
                    best = max(best, len(fa) + len(fb))
        assert best == comb(n, (n + 1) // 2) + comb(n, (n + 2) // 2)
        assert best == expected
