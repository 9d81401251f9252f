"""Exact combinatorics of k-subsets of {1..n} in squashed (colexicographic) order.

A set is an int bitmask: bit i-1 is set iff i is a member.  On one level,
squashed order is the integer order of the masks, so Gosper's hack
generates a level in order, `sorted` puts any family in squashed order,
and a shadow or shade step clears or sets one bit.  Complement reverses
the order: the last m sets of level (n, k) are the complements of the
first m sets of level (n, n-k).  Besides initial and final segments,
shadows and shades, this holds the cascade (binomial-representation)
shadow size and the kappa deficiency functions.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import UsageError


def members(mask: int) -> tuple:
    """The members of a set, ascending."""
    return tuple(b.bit_length() for b in _bits(mask))


def _bits(mask):
    """The one-member masks of a set, ascending."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def level_size(n: int, k: int, m: int = 0) -> int:
    """C(n, k); UsageError unless level (n, k) exists and 0 <= m <= C(n, k)."""
    if n < 0 or not 0 <= k <= n:
        raise UsageError(f"invalid level n={n}, k={k}")
    size = comb(n, k)
    if not 0 <= m <= size:
        raise UsageError(f"m={m} outside 0..C({n},{k})={size}")
    return size


# ============================================================================
# Levels and segments in squashed order
# ============================================================================

def squashed_level(n: int, k: int):
    """All k-subsets of {1..n} in squashed order, generated lazily."""
    level_size(n, k)
    return _gosper(n, k)


def _gosper(n, k):
    # Gosper's hack (HAKMEM 175): the next larger integer with k bits set
    x, end = (1 << k) - 1, 1 << n
    while x < end:
        yield x
        if not x:
            return
        low = x & -x
        ripple = x + low
        x = (((ripple ^ x) >> 2) // low) | ripple


def first_m(n: int, k: int, m: int) -> tuple:
    """The first m k-subsets of {1..n} in squashed order."""
    level_size(n, k, m)
    return tuple(itertools.islice(_gosper(n, k), m))


def last_m(n: int, k: int, m: int) -> tuple:
    """The last m k-subsets of {1..n}, in squashed order: the complements
    of the first m (n-k)-subsets, reversed."""
    level_size(n, k, m)
    full = (1 << n) - 1
    return tuple(full ^ x for x in reversed(first_m(n, n - k, m)))


# ============================================================================
# Shadow / shade
# ============================================================================

def _uniform_k(sets) -> int:
    """Common cardinality of all members; UsageError if mixed."""
    ks = {x.bit_count() for x in sets}
    if len(ks) > 1:
        raise UsageError(f"family is not uniform, cardinalities {sorted(ks)}")
    return ks.pop() if ks else 0


def shadow(sets) -> tuple:
    """All (k-1)-sets contained in some member; deduplicated, squashed-sorted."""
    if sets and _uniform_k(sets) == 0:
        raise UsageError("shadow undefined for k=0 members")
    return tuple(sorted({x ^ b for x in sets for b in _bits(x)}))


def shade(sets, n: int) -> tuple:
    """All (k+1)-subsets of {1..n} containing some member; deduplicated,
    squashed-sorted."""
    if sets and _uniform_k(sets) >= n:
        raise UsageError("shade undefined for k=n members")
    full = (1 << n) - 1
    return tuple(sorted({x | b for x in sets for b in _bits(full ^ x)}))


def shadow_size_kkt(n: int, k: int, m: int) -> int:
    """Shadow size of the first m k-subsets, via the cascade representation.

    Writes m = C(a_k,k) + C(a_{k-1},k-1) + ... + C(a_t,t) greedily with
    a_k > a_{k-1} > ... > a_t >= t >= 1 and returns sum of C(a_i, i-1).
    """
    level_size(n, k, m)
    if k < 1:
        raise UsageError("shadow size needs k >= 1")
    total = 0
    r = k
    while m > 0:
        a = r
        while comb(a + 1, r) <= m:
            a += 1
        total += comb(a, r - 1)
        m -= comb(a, r)
        r -= 1
    return total


def kappa(n: int, r: int, m: int) -> int:
    """Shadow-size deficiency of the first m r-subsets: |shadow| - m."""
    if m > 0:
        return shadow_size_kkt(n, r, m) - m
    level_size(n, r, m)
    return 0


def kappa_star(n: int, r: int, m: int) -> int:
    """Running minimum of kappa over 0..m (always <= 0), in one pass.

    In squashed order, S - {x} is in the shadow of no earlier r-set iff
    every member below x is in S; so the j-th set S adds one new
    (r-1)-set per trailing one of S, and kappa moves by that count - 1."""
    level_size(n, r, m)
    if r < 1 and m:
        raise UsageError("shadow size needs k >= 1")
    best = value = 0
    for x in itertools.islice(_gosper(n, r), m):
        # x ^ (x + 1) is the trailing ones of x and the zero above them
        value += (x ^ (x + 1)).bit_length() - 2
        best = min(best, value)
    return best

