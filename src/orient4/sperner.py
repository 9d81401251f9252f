"""Exact combinatorics of k-subsets of {1..n} in squashed (colexicographic) order.

Everything here is small-n integer combinatorics: squashed comparison,
rank/unrank, initial and final segments, shadows and shades, the cascade
(binomial-representation) shadow size, the kappa deficiency functions, and
antichain / cross-intersecting predicates.  Sets are plain frozensets of
1-based integers; a `KSubset` pairs one with its ground-set size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import UsageError


# ============================================================================
# Domain types
# ============================================================================

@dataclass(frozen=True)
class KSubset:
    """A subset of {1..n}, remembering the ground-set size n."""

    n: int
    members: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise UsageError(f"ground-set size must be non-negative, got {self.n}")
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            if not 1 <= m <= self.n:
                raise UsageError(f"member {m} outside ground set 1..{self.n}")

    @property
    def k(self) -> int:
        return len(self.members)

    def complement(self) -> "KSubset":
        return KSubset(self.n, frozenset(range(1, self.n + 1)) - self.members)

    def bitmask(self) -> int:
        """Characteristic bit pattern; bit i-1 set iff i is a member."""
        mask = 0
        for m in self.members:
            mask |= 1 << (m - 1)
        return mask

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))

    def __repr__(self):
        return "{" + ",".join(str(m) for m in self.sorted_members()) + "}"


@dataclass(frozen=True)
class Family:
    """A finite sequence of KSubsets over one common ground set."""

    n: int
    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        for s in self.sets:
            if s.n != self.n:
                raise UsageError(f"member ground-set size {s.n} != family's {self.n}")

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def uniform_k(self) -> int:
        """Common cardinality of all members; UsageError if mixed."""
        ks = {s.k for s in self.sets}
        if len(ks) > 1:
            raise UsageError(f"family is not uniform, cardinalities {sorted(ks)}")
        return ks.pop() if ks else 0


def family_of(n, collections) -> Family:
    return Family(n, tuple(KSubset(n, frozenset(c)) for c in collections))


# ============================================================================
# Squashed order: comparison, rank, unrank
# ============================================================================

def squashed_compare(a: KSubset, b: KSubset) -> int:
    """-1, 0 or +1 according to the squash relation.

    a <_s b iff the largest element of the symmetric difference lies in b.
    Requires equal ground sets and equal cardinality.
    """
    if a.n != b.n:
        raise UsageError(f"ground sets differ: {a.n} vs {b.n}")
    if a.k != b.k:
        raise UsageError(f"cardinalities differ: {a.k} vs {b.k}")
    diff = a.members ^ b.members
    if not diff:
        return 0
    return 1 if max(diff) in a.members else -1


def squashed_rank(members) -> int:
    """Colex rank of a k-set of positive integers (0-based rank)."""
    return sum(comb(m - 1, i + 1) for i, m in enumerate(sorted(members)))


def squashed_unrank(rank: int, k: int) -> frozenset:
    """The k-set of positive integers with colex rank `rank`."""
    out = []
    r = k
    while r > 0:
        # largest e with comb(e-1, r) <= rank, elements 1-based
        e = r
        while comb(e, r) <= rank:
            e += 1
        out.append(e)
        rank -= comb(e - 1, r)
        r -= 1
    return frozenset(out)


def squashed_level(n: int, k: int):
    """All k-subsets of {1..n} in squashed order."""
    return [squashed_unrank(r, k) for r in range(comb(n, k))]


def first_m(n: int, k: int, m: int) -> Family:
    """The first m k-subsets of {1..n} in squashed order."""
    _check_level_args(n, k, m)
    return Family(n, tuple(KSubset(n, squashed_unrank(r, k)) for r in range(m)))


def last_m(n: int, k: int, m: int) -> Family:
    """The last m k-subsets of {1..n} in squashed order, in squashed order."""
    _check_level_args(n, k, m)
    total = comb(n, k)
    return Family(n, tuple(KSubset(n, squashed_unrank(r, k))
                           for r in range(total - m, total)))


def _check_level_args(n, k, m):
    if n < 0 or not 0 <= k <= n:
        raise UsageError(f"invalid level n={n}, k={k}")
    if not 0 <= m <= comb(n, k):
        raise UsageError(f"m={m} outside 0..C({n},{k})={comb(n, k)}")


# ============================================================================
# Shadow / shade
# ============================================================================

def shadow(f: Family) -> Family:
    """All (k-1)-sets contained in some member; deduplicated, squashed-sorted."""
    k = f.uniform_k()
    if k == 0 and len(f) > 0:
        raise UsageError("shadow undefined for k=0 members")
    seen = set()
    for s in f:
        for x in s.members:
            seen.add(s.members - {x})
    return Family(f.n, tuple(KSubset(f.n, t)
                             for t in sorted(seen, key=squashed_rank)))


def shade(f: Family) -> Family:
    """All (k+1)-sets containing some member; deduplicated, squashed-sorted."""
    k = f.uniform_k()
    if len(f) > 0 and k >= f.n:
        raise UsageError("shade undefined for k=n members")
    ground = range(1, f.n + 1)
    seen = set()
    for s in f:
        for x in ground:
            if x not in s.members:
                seen.add(s.members | {x})
    return Family(f.n, tuple(KSubset(f.n, t)
                             for t in sorted(seen, key=squashed_rank)))


def shadow_size_kkt(n: int, k: int, m: int) -> int:
    """Shadow size of the first m k-subsets, via the cascade representation.

    Writes m = C(a_k,k) + C(a_{k-1},k-1) + ... + C(a_t,t) greedily with
    a_k > a_{k-1} > ... > a_t >= t >= 1 and returns sum of C(a_i, i-1).
    """
    _check_level_args(n, k, m)
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
    return shadow_size_kkt(n, r, m) - m if m > 0 else _zero_checked(n, r, m)


def _zero_checked(n, r, m):
    _check_level_args(n, r, m)
    return 0


def kappa_star(n: int, r: int, m: int) -> int:
    """Running minimum of kappa over 0..m (always <= 0)."""
    _check_level_args(n, r, m)
    return min(kappa(n, r, j) for j in range(m + 1))


def kappa_star_threshold(n: int) -> int:
    """Smallest m at which kappa*_{n,n/2} can go negative: 1 + sum C(2i-1,i)."""
    if n % 2 != 0:
        raise UsageError("threshold defined for even n")
    return 1 + sum(comb(2 * i - 1, i) for i in range(1, n // 2 + 1))


# ============================================================================
# Antichain / cross-intersecting predicates
# ============================================================================

def is_antichain(f: Family) -> bool:
    """True iff no member set contains another (distinct) member set."""
    sets = [s.members for s in f]
    for a, b in itertools.combinations(sets, 2):
        if a <= b or b <= a:
            return False
    return True


def is_cross_intersecting(a: Family, b: Family) -> bool:
    """True iff every member of a meets every member of b."""
    if a.n != b.n:
        raise UsageError(f"ground sets differ: {a.n} vs {b.n}")
    return all(x.members & y.members for x in a for y in b)


def disjoint_pair_matching(a: Family, b: Family):
    """Size of the disjointness matching between a and b, or None.

    Builds the bipartite graph of index pairs (i, j) with a[i] disjoint from
    b[j].  If that graph is a (partial) matching, returns its size k: the
    families can then be reordered so disjoint pairs occur only at equal
    indices <= k.  A vertex on two disjoint pairs makes this impossible, so
    None is returned.
    """
    if a.n != b.n:
        raise UsageError(f"ground sets differ: {a.n} vs {b.n}")
    pairs = [(i, j)
             for i, x in enumerate(a)
             for j, y in enumerate(b)
             if not (x.members & y.members)]
    left = [i for i, _ in pairs]
    right = [j for _, j in pairs]
    if len(set(left)) != len(pairs) or len(set(right)) != len(pairs):
        return None
    return len(pairs)
