"""Explicit diameter-4 orientations for every orientable instance.

The pipeline mirrors the sufficiency recipes behind the classifier: shrink
the instance to a small core `H` (multiplicities in {2,3,4} plus the center),
orient `H` from a deterministic schedule of half-sized center subsets, check
the result, then lift to the full multiplicities by letting new copies mimic
old ones.

Branches are rearranged into construction *slots* (multiplicity-2 block,
then inlet-style 3-copy block, outlet-style 3-copy block, 4-copy block,
leafless block); `reduce` records the slot-to-user permutation so outputs
are expressed in the caller's original branch labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .classify import (C0, Classification, classify, half_binom, p35_variant,
                       select_case)
from .digraph import (Orientation, diameter, extend_orientation, from_arcs,
                      is_strong, pull_back, shortest_cycle_lengths)
from .errors import ConstructionError, Refusal, UsageError
from .sperner import kappa, squashed_level
from .tree import (BranchSpec, TreeSpec, branch_copy, center, leaf_copy,
                   partition, require_valid)


# ============================================================================
# Set schedules
# ============================================================================

@dataclass(frozen=True)
class SetSchedule:
    """Ordered center-subset sequences consumed by the slot recipes.

    `lam` lists ceil(s/2)-subsets of {1..s}: the first s are the
    consecutive-cyclic ones (lam[i] starts at copy i+1), the rest are the
    remaining level in squashed order.  `mu`, `gamma` and `psi` are only
    populated for the recipes that need them.
    """

    s: int
    lam: tuple = ()
    psi: tuple = ()
    mu: tuple = ()
    gamma: tuple = ()


def cyclic_half_sets(s: int) -> list:
    """The s consecutive-cyclic ceil(s/2)-subsets of {1..s}."""
    h = (s + 1) // 2
    return [frozenset((i + j) % s + 1 for j in range(h)) for i in range(s)]


def _lam_sequence(s: int) -> tuple:
    cyc = cyclic_half_sets(s)
    used = set(cyc)
    rest = [f for f in squashed_level(s, (s + 1) // 2) if f not in used]
    return tuple(cyc + rest)


def make_schedule(s: int, case: str, k: int | None = None) -> SetSchedule:
    """Deterministic schedule for a construction case.

    `k` is accepted only for the mixed even-multiplicity recipe (P312), where
    it fixes how many half-sets are reserved for the 2-copy block.
    """
    if s < 2:
        raise UsageError(f"center multiplicity {s} < 2")
    if (k is not None) != (case == "P312"):
        raise UsageError("k must be supplied exactly for case P312")

    if case == "P312":
        if s % 2 != 0 or s < 4:
            raise UsageError("P312 schedule needs even s >= 4")
        c = comb(s, s // 2)
        if not 1 <= k <= c - 1:
            raise UsageError(f"k={k} outside 1..{c - 1}")
        mu = tuple(squashed_level(s, s // 2))
        # the last k half-sets; supersets of any of them are unusable outlets
        tail = set(mu[c - k:])
        shade_of_tail = {y for y in squashed_level(s, s // 2 + 1)
                         if any(x <= y for x in tail)}
        level_up = squashed_level(s, s // 2 + 1)
        psi = tuple([y for y in level_up if y not in shade_of_tail]
                    + [y for y in level_up if y in shade_of_tail])
        return SetSchedule(s, lam=_lam_sequence(s), psi=psi, mu=mu)

    if case == "P43_D3":
        if s % 2 == 0 or s < 5:
            raise UsageError("P43_D3 schedule needs odd s >= 5")
        low = frozenset(range(1, s // 2 + 1))
        level = squashed_level(s, (s + 1) // 2)
        touch_one = [f for f in level if len(f & low) == 1]
        supersets = [f for f in level if low < f]
        low_bar = frozenset(range(1, s + 1)) - low
        gamma_mid = [f for f in level
                     if f not in set(touch_one) and f != low_bar]
        gamma = tuple(touch_one + gamma_mid + [low_bar])
        mu_rest = [f for f in level if f not in set(supersets)]
        mu = tuple(supersets + mu_rest)
        return SetSchedule(s, lam=_lam_sequence(s), mu=mu, gamma=gamma)

    if case == "P39":
        psi = tuple(squashed_level(s, s // 2 + 1))
        return SetSchedule(s, lam=_lam_sequence(s), psi=psi)

    return SetSchedule(s, lam=_lam_sequence(s))


# ============================================================================
# Reduction to the core instance H
# ============================================================================

@dataclass(frozen=True)
class ReducedSpec:
    """The core instance H in slot order, plus the bookkeeping to undo it."""

    case: str
    s: int
    h_spec: TreeSpec
    slot_to_user: tuple          # slot j (1-based) -> user branch index
    n_a2: int = 0                # leading 2-copy slots
    n_bi: int = 0                # inlet-style 3-copy slots
    n_bo: int = 0                # outlet-style 3-copy slots
    n_a4: int = 0                # 4-copy slots
    n_e: int = 0                 # trailing leafless slots
    k: int | None = None         # P312 block split
    demoted: tuple = ()          # user branch indices given a smaller core t


def _h_spec(spec, order, t_values, t_center):
    branches = tuple(
        BranchSpec(t, (2,) * spec.branch(u).leaf_count)
        for u, t in zip(order, t_values))
    return TreeSpec(t_center, branches)


def _feasible_split(s, n2, n3, k):
    """Outlet half-set budget for the 2-copy/3-copy split at k (P312):
    unused-superset count must cover the outlet block."""
    c = comb(s, s // 2)
    n_bo = n2 + n3 - (c - 2)
    if n_bo <= 0:
        return True
    c2 = comb(s, s // 2 + 1)
    return n_bo <= c2 - (kappa(s, s // 2, k) + k)


def choose_split(spec: TreeSpec, k_witness: int | None) -> int:
    """Construction split for the mixed even regime: the classifier's
    witness when its schedule is completable, else the smallest qualifying
    split that is."""
    part = partition(spec)
    s = spec.s
    n2, n3 = len(part.a2), len(part.a3)
    c, c2 = comb(s, s // 2), comb(s, s // 2 + 1)
    qualifying = [k for k in range(n2 + 1, min(n2 + n3, c - 1) + 1)
                  if 2 * n2 + n3 <= c + c2 - kappa(s, s // 2, k) - 3]
    if k_witness in qualifying and _feasible_split(s, n2, n3, k_witness):
        return k_witness
    for k in qualifying:
        if _feasible_split(s, n2, n3, k):
            return k
    raise ConstructionError(
        "the sufficiency schedule cannot be completed for this instance: "
        "every qualifying split leaves an outlet block that must reuse a "
        "half-set superset already claimed by the 2-copy block")


def reduce(spec: TreeSpec, case: str, k: int | None = None) -> ReducedSpec:
    """Apply the case's core multiplicities and quota promotions.

    Promotions ("absorb spare high-multiplicity branches into a smaller
    class to fill a block quota") always pick the lowest user indices.
    """
    require_valid(spec)
    part = partition(spec)
    s = spec.s
    a2 = sorted(part.a2)
    a3 = sorted(part.a3)
    a4 = sorted(part.a4plus)
    e = sorted(part.e)
    c = half_binom(s)

    if case == "P34":
        order = a4 + e
        ts = [4] * len(a4) + [2] * len(e)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, 2),
                           tuple(order), n_a4=len(a4), n_e=len(e))

    if case in ("Thm16a", "P311", "P35_D1", "P35_D2", "P35_D3", "P35_D4"):
        internal = sorted(part.internal)
        order = internal + e
        ts = [2] * len(order)
        demoted = tuple(i for i in internal if spec.branch(i).multiplicity > 2)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_a2=len(internal), n_e=len(e),
                           demoted=demoted)

    if case == "P39":
        need = max(0, (c - 2) - len(a3))
        if need > len(a4):
            raise ConstructionError("not enough high-multiplicity branches "
                                    "to fill the inlet block")
        a3_star = a3 + a4[:need]
        a4_star = a4[need:]
        order = a3_star + a4_star + e
        ts = [3] * len(a3_star) + [4] * len(a4_star) + [2] * len(e)
        n_bi = min(len(a3_star), c - 2)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_bi=n_bi,
                           n_bo=len(a3_star) - n_bi, n_a4=len(a4_star),
                           n_e=len(e), demoted=tuple(a4[:need]))

    if case == "P310":
        need = max(0, s - len(a2))
        if need > len(a4):
            raise ConstructionError("not enough high-multiplicity branches "
                                    "to fill the 2-copy block")
        a2_star = a2 + a4[:need]
        a4_star = a4[need:]
        if not a4_star:
            raise ConstructionError("no 4-copy slot left after promotion")
        order = a2_star + a4_star + e
        ts = [2] * len(a2_star) + [4] * len(a4_star) + [2] * len(e)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_a2=len(a2_star),
                           n_a4=len(a4_star), n_e=len(e),
                           demoted=tuple(a4[:need]))

    if case == "P312":
        k = choose_split(spec, k)
        demote3 = max(0, (k - 1) - len(a2))
        a2_star = a2 + a3[:demote3]
        a3_rest = a3[demote3:]
        need_bi = max(0, (c - 2) - (len(a2_star) + len(a3_rest)))
        if need_bi > len(a4):
            raise ConstructionError("not enough high-multiplicity branches "
                                    "to fill the inlet block")
        a3_star = a3_rest + a4[:need_bi]
        a4_star = a4[need_bi:]
        order = a2_star + a3_star + a4_star + e
        ts = ([2] * len(a2_star) + [3] * len(a3_star)
              + [4] * len(a4_star) + [2] * len(e))
        n_bi = min(len(a3_star), (c - 2) - len(a2_star))
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_a2=len(a2_star), n_bi=n_bi,
                           n_bo=len(a3_star) - n_bi, n_a4=len(a4_star),
                           n_e=len(e), k=k,
                           demoted=tuple(a3[:demote3] + a4[:need_bi]))

    if case == "P41":
        need = max(0, c - len(a3))
        if need > len(a4):
            raise ConstructionError("not enough high-multiplicity branches "
                                    "to fill the inlet block")
        a3_star = a3 + a4[:need]
        a4_star = a4[need:]
        order = a3_star + a4_star + e
        ts = [3] * len(a3_star) + [4] * len(a4_star) + [2] * len(e)
        n_bi = min(len(a3_star), c - 1)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_bi=n_bi,
                           n_bo=len(a3_star) - n_bi, n_a4=len(a4_star),
                           n_e=len(e), demoted=tuple(a4[:need]))

    if case == "P43_D1":
        order = a3 + a2 + e
        ts = [3] * len(a3) + [2] * len(a2) + [2] * len(e)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_a2=len(a2), n_bo=1, n_e=len(e))

    if case in ("P43_D2", "P43_D3", "P413"):
        if case == "P43_D3":
            # outlet block first, then inlet block
            n_bo = c - len(a2)
            order = a2 + a3 + e
            ts = [2] * len(a2) + [3] * len(a3) + [2] * len(e)
            return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                               tuple(order), n_a2=len(a2), n_bo=n_bo,
                               n_bi=len(a3) - n_bo, n_e=len(e))
        n_bi = (c - 1) - len(a2)
        order = a2 + a3 + a4 + e
        ts = ([2] * len(a2) + [3] * len(a3) + [4] * len(a4) + [2] * len(e))
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_a2=len(a2), n_bi=n_bi,
                           n_bo=len(a3) - n_bi, n_a4=len(a4), n_e=len(e))

    if case == "P411":
        base = a2 + a3  # a3 nonempty only on the demotion route
        need = max(0, (s - 1) - len(base))
        if need > len(a4):
            raise ConstructionError("not enough high-multiplicity branches "
                                    "to fill the 2-copy block")
        a2_star = base + a4[:need]
        a4_star = a4[need:]
        if not a4_star:
            raise ConstructionError("no 4-copy slot left after promotion")
        order = a2_star + a4_star + e
        ts = [2] * len(a2_star) + [4] * len(a4_star) + [2] * len(e)
        return ReducedSpec(case, s, _h_spec(spec, order, ts, s),
                           tuple(order), n_a2=len(a2_star),
                           n_a4=len(a4_star), n_e=len(e),
                           demoted=tuple(a3 + a4[:need]))

    raise UsageError(f"unknown construction case {case!r}")


# ============================================================================
# Arc emission
# ============================================================================

def _center_split(arcs, s, slot, copy, in_set):
    """Orient every center edge of one branch copy: arcs in from `in_set`,
    out to its complement."""
    b = branch_copy(slot, copy)
    for x in range(1, s + 1):
        if x in in_set:
            arcs.append((center(x), b))
        else:
            arcs.append((b, center(x)))


# Leaf patterns of the core, whose leaves all have two copies: row z-1 has
# "i" at position y-1 if branch copy y feeds leaf copy z, "o" if leaf copy z
# drains into branch copy y.
C4_WITHIN = ("oi", "io")         # copy 2, leaf 1, copy 1, leaf 2: a 4-cycle
TWO_IN_ONE_OUT = ("oi", "oi")    # copy 2 feeds both leaf copies
THREE_SINK = ("ooi", "ooi")      # copy 3 is the sole feeder
THREE_SOURCE = ("iio", "iio")    # copy 3 is the sole drain
THREE_SPLIT_OUT = ("iio", "ioi")
THREE_SPLIT_IN = ("ooi", "oio")  # mirror of THREE_SPLIT_OUT
FOUR_C4 = ("oioi", "ioio")       # copies 2,4 feed leaf copy 1, 1,3 copy 2
FOUR_C4_P34 = ("oiio", "iooi")   # copies 2,3 feed leaf copy 1, 1,4 copy 2


def _leaf_pattern(arcs, spec_h, slot, pattern):
    """Orient every leaf edge of one slot by `pattern`."""
    for a in range(1, spec_h.branch(slot).leaf_count + 1):
        for z, row in enumerate(pattern, start=1):
            for y, way in enumerate(row, start=1):
                arc = (branch_copy(slot, y), leaf_copy(slot, a, z))
                arcs.append(arc if way == "i" else arc[::-1])


def _four_copy_slot(arcs, spec_h, s, slot, first, second):
    """4-copy slot: copies 1,4 sit between `second` and `first` halves,
    copies 2,3 the other way round; leaf pattern closes 4-cycles."""
    _leaf_pattern(arcs, spec_h, slot, FOUR_C4)
    _center_split(arcs, s, slot, 1, second)
    _center_split(arcs, s, slot, 4, second)
    _center_split(arcs, s, slot, 2, first)
    _center_split(arcs, s, slot, 3, first)


def _e_slot(arcs, s, slot, in_set):
    for y in (1, 2):
        _center_split(arcs, s, slot, y, in_set)


# ============================================================================
# The per-case recipes
# ============================================================================

def build_base_orientation(case: str, rspec: ReducedSpec,
                           sched: SetSchedule) -> Orientation:
    """Orient every edge of the core instance per the case recipe, then check
    the two structural guarantees: a directed 4-cycle through every vertex,
    and diameter exactly 4."""
    h = rspec.h_spec
    s = h.s
    ground = frozenset(range(1, s + 1))
    lam = sched.lam
    arcs = []

    def comp(f):
        return ground - f

    if case == "P34":
        for slot in range(1, rspec.n_a4 + 1):
            _leaf_pattern(arcs, h, slot, FOUR_C4_P34)
            _center_split(arcs, 2, slot, 1, {2})
            _center_split(arcs, 2, slot, 2, {2})
            _center_split(arcs, 2, slot, 3, {1})
            _center_split(arcs, 2, slot, 4, {1})
        for slot in range(rspec.n_a4 + 1, rspec.n_a4 + rspec.n_e + 1):
            _e_slot(arcs, 2, slot, {2})

    elif case in ("Thm16a", "P311", "P35_D1", "P35_D2", "P35_D3", "P35_D4"):
        a = rspec.n_a2
        if case == "Thm16a":
            variant = "D1"
        elif case == "P311":
            variant = p35_variant(a, rspec.n_e, s)[-2:]
        else:
            variant = case[-2:]
        if variant in ("D1", "D3") and rspec.n_e:
            raise ConstructionError(f"variant {variant} admits no leafless "
                                    f"branches")
        for slot in range(1, a + 1):
            _leaf_pattern(arcs, h, slot, C4_WITHIN)
        if variant == "D1":
            # each of the first a-1 slots drains into its own center copy;
            # the last slot drains into all remaining copies
            for slot in range(1, a):
                for y in (1, 2):
                    _center_split(arcs, s, slot, y, ground - {slot})
            tail = set(range(a, s + 1))
            for y in (1, 2):
                _center_split(arcs, s, a, y, ground - tail)
        elif variant == "D2":
            for slot in range(1, a + 1):
                for y in (1, 2):
                    _center_split(arcs, s, slot, y, ground - {slot})
            head = frozenset(range(1, a + 1))
            for slot in range(a + 1, a + rspec.n_e + 1):
                _e_slot(arcs, s, slot, head)
        else:  # D3 / D4
            for slot in range(1, a + 1):
                for y in (1, 2):
                    _center_split(arcs, s, slot, y, lam[slot - 1])
            if variant == "D4":
                last = lam[half_binom(s) - 1]
                for slot in range(a + 1, a + rspec.n_e + 1):
                    _e_slot(arcs, s, slot, last)

    elif case in ("P39", "P312"):
        even_first = lam[0] if case == "P39" else sched.mu[0]
        even_second = comp(even_first)
        if case == "P39":
            bi_in = [lam[i] for i in range(1, s // 2)] + \
                    [lam[i] for i in range(s // 2 + 1, half_binom(s))]
            off = 0
        else:
            mu = sched.mu
            bi_in = [mu[i] for i in range(1, half_binom(s) - 1)]
            off = rspec.n_a2
            for slot in range(1, off + 1):
                _leaf_pattern(arcs, h, slot, C4_WITHIN)
                for y in (1, 2):
                    _center_split(arcs, s, slot, y, bi_in[slot - 1])
        for j in range(rspec.n_bi):
            slot = off + 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SINK)
            _center_split(arcs, s, slot, 1, even_second)
            _center_split(arcs, s, slot, 2, even_first)
            _center_split(arcs, s, slot, 3, bi_in[off + j])
        for j in range(rspec.n_bo):
            slot = off + rspec.n_bi + 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SOURCE)
            _center_split(arcs, s, slot, 1, even_first)
            _center_split(arcs, s, slot, 2, even_second)
            _center_split(arcs, s, slot, 3, comp(sched.psi[j]))
        for j in range(rspec.n_a4):
            slot = off + rspec.n_bi + rspec.n_bo + 1 + j
            _four_copy_slot(arcs, h, s, slot, even_first, even_second)
        for j in range(rspec.n_e):
            slot = off + rspec.n_bi + rspec.n_bo + rspec.n_a4 + 1 + j
            _e_slot(arcs, s, slot, even_first)

    elif case == "P310":
        bi_in = [lam[i] for i in range(1, s // 2)] + \
                [lam[i] for i in range(s // 2 + 1, half_binom(s))]
        for slot in range(1, rspec.n_a2 + 1):
            _leaf_pattern(arcs, h, slot, C4_WITHIN)
            for y in (1, 2):
                _center_split(arcs, s, slot, y, bi_in[slot - 1])
        for j in range(rspec.n_a4):
            slot = rspec.n_a2 + 1 + j
            _four_copy_slot(arcs, h, s, slot, lam[0], comp(lam[0]))
        for j in range(rspec.n_e):
            slot = rspec.n_a2 + rspec.n_a4 + 1 + j
            _e_slot(arcs, s, slot, lam[0])

    elif case == "P41":
        lam1 = lam[0]
        for j in range(rspec.n_bi):
            slot = 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SINK)
            _center_split(arcs, s, slot, 1, comp(lam1))
            _center_split(arcs, s, slot, 2, lam1)
            _center_split(arcs, s, slot, 3, lam[slot])
        for j in range(rspec.n_bo):
            slot = rspec.n_bi + 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SOURCE)
            _center_split(arcs, s, slot, 1, lam1)
            _center_split(arcs, s, slot, 2, comp(lam1))
            _center_split(arcs, s, slot, 3, comp(lam[j + 1]))
        for j in range(rspec.n_a4):
            slot = rspec.n_bi + rspec.n_bo + 1 + j
            _four_copy_slot(arcs, h, s, slot, lam1, comp(lam1))
        for j in range(rspec.n_e):
            slot = rspec.n_bi + rspec.n_bo + rspec.n_a4 + 1 + j
            _e_slot(arcs, s, slot, lam1)

    elif case == "P43_D1":
        lam1 = lam[0]
        _leaf_pattern(arcs, h, 1, THREE_SPLIT_OUT)
        _center_split(arcs, s, 1, 1, lam1)
        _center_split(arcs, s, 1, 2, comp(lam1))
        _center_split(arcs, s, 1, 3, comp(lam1))
        for slot in range(2, rspec.n_a2 + 2):
            _leaf_pattern(arcs, h, slot, TWO_IN_ONE_OUT)
            _center_split(arcs, s, slot, 1, comp(lam[slot - 1]))
            _center_split(arcs, s, slot, 2, lam[slot - 1])
        for j in range(rspec.n_e):
            slot = rspec.n_a2 + 2 + j
            _e_slot(arcs, s, slot, lam1)

    elif case in ("P43_D2", "P413", "P411"):
        lam1 = lam[0]
        for slot in range(1, rspec.n_a2 + 1):
            _leaf_pattern(arcs, h, slot, TWO_IN_ONE_OUT)
            _center_split(arcs, s, slot, 1, comp(lam[slot]))
            _center_split(arcs, s, slot, 2, lam[slot])
        for j in range(rspec.n_bi):
            slot = rspec.n_a2 + 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SINK)
            _center_split(arcs, s, slot, 1, comp(lam1))
            _center_split(arcs, s, slot, 2, lam1)
            _center_split(arcs, s, slot, 3, lam[slot])
        for j in range(rspec.n_bo):
            slot = rspec.n_a2 + rspec.n_bi + 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SOURCE)
            _center_split(arcs, s, slot, 1, lam1)
            _center_split(arcs, s, slot, 2, comp(lam1))
            _center_split(arcs, s, slot, 3, comp(lam[rspec.n_a2 + 1 + j]))
        for j in range(rspec.n_a4):
            slot = rspec.n_a2 + rspec.n_bi + rspec.n_bo + 1 + j
            _four_copy_slot(arcs, h, s, slot, lam1, comp(lam1))
        for j in range(rspec.n_e):
            slot = rspec.n_a2 + rspec.n_bi + rspec.n_bo + rspec.n_a4 + 1 + j
            _e_slot(arcs, s, slot, lam1)

    elif case == "P43_D3":
        mu, gamma = sched.mu, sched.gamma
        low = comp(gamma[-1])  # the pivot: first floor(s/2) center copies
        for slot in range(1, rspec.n_a2 + 1):
            _leaf_pattern(arcs, h, slot, TWO_IN_ONE_OUT)
            _center_split(arcs, s, slot, 1, comp(mu[slot - 1]))
            _center_split(arcs, s, slot, 2, gamma[slot - 1])
        for j in range(rspec.n_bo):
            slot = rspec.n_a2 + 1 + j
            _leaf_pattern(arcs, h, slot, THREE_SPLIT_OUT)
            _center_split(arcs, s, slot, 1, comp(low))
            _center_split(arcs, s, slot, 2, comp(mu[slot - 1]))
            _center_split(arcs, s, slot, 3, comp(mu[slot - 1]))
        for j in range(rspec.n_bi):
            slot = rspec.n_a2 + rspec.n_bo + 1 + j
            idx = rspec.n_a2 + j  # 1-based position in gamma after the a2 block
            _leaf_pattern(arcs, h, slot, THREE_SPLIT_IN)
            _center_split(arcs, s, slot, 1, comp(low))
            _center_split(arcs, s, slot, 2, gamma[idx])
            _center_split(arcs, s, slot, 3, gamma[idx])
        for j in range(rspec.n_e):
            slot = rspec.n_a2 + rspec.n_bo + rspec.n_bi + 1 + j
            _e_slot(arcs, s, slot, comp(low))

    else:
        raise UsageError(f"unknown construction case {case!r}")

    try:
        d = from_arcs(h, arcs)
    except UsageError as exc:
        raise ConstructionError(f"recipe {case} left the edge set "
                                f"inconsistent: {exc}") from exc

    worst_cycle = max(shortest_cycle_lengths(d))
    if worst_cycle > 4:
        raise ConstructionError(
            f"recipe {case}: a vertex's shortest directed cycle is "
            f"{worst_cycle} > 4")
    dia = diameter(d)
    if dia != 4:
        raise ConstructionError(f"recipe {case}: core diameter is {dia}, "
                                f"expected 4")
    return d


# ============================================================================
# Full pipeline
# ============================================================================

@dataclass(frozen=True)
class ConstructionResult:
    orientation: Orientation
    classification: Classification
    case: str
    reduced: ReducedSpec
    schedule: SetSchedule


def relabel_orientation(d: Orientation, slot_to_user: tuple,
                        user_spec: TreeSpec) -> Orientation:
    """Map branch slots back to the user's original branch indices."""
    user_to_slot = {u: j for j, u in enumerate(slot_to_user, start=1)}

    def to_slot(v):
        if v.role == "c":
            return v
        return type(v)(v.role, v.copy, user_to_slot[v.i], v.alpha)

    return pull_back(d, user_spec, to_slot)


def construct_optimal(spec: TreeSpec) -> ConstructionResult:
    """Classify, pick the recipe, build the core, relabel, lift, verify.

    The core is relabelled to user branch order before the lift: relabelling
    changes only branch indices and the mimic step only copies, so the two
    commute, and only the small core is relabelled.

    Raises `Refusal` for orientation-number-5 instances and for the open
    regime; raises `ConstructionError` (an internal failure, never a normal
    outcome) if the verified result were not a strong diameter-4 orientation.
    """
    require_valid(spec)
    cls = classify(spec)
    if cls.verdict == "C1":
        raise Refusal("orientation number is 5, no diameter-4 orientation "
                      "exists", rule=cls.rule)
    if cls.verdict != C0:
        raise Refusal("open case: neither bound settles this instance",
                      rule=cls.rule)

    case = select_case(spec)
    k = cls.k_witness if case == "P312" else None
    rspec = reduce(spec, case, k)
    sched = make_schedule(rspec.h_spec.s, case,
                          rspec.k if case == "P312" else None)
    base = build_base_orientation(case, rspec, sched)
    h = rspec.h_spec
    by_user = sorted(zip(rspec.slot_to_user, h.branches), key=lambda p: p[0])
    h_user = TreeSpec(h.s, tuple(b for _, b in by_user))
    base_user = relabel_orientation(base, rspec.slot_to_user, h_user)
    final = extend_orientation(base_user, spec, 4)

    if diameter(final) != 4 or not is_strong(final):
        raise ConstructionError(
            f"internal verification failure for case {case}: lifted "
            f"orientation is not a strong diameter-4 orientation")
    return ConstructionResult(final, cls, case, rspec, sched)
