"""Explicit diameter-4 orientations for every orientable instance.

The pipeline follows the sufficiency recipe that the classifier's C0
verdict names (`Classification.case`): shrink the instance to a small core
`H` (multiplicities in {2,3,4} plus the center), orient `H` from a
deterministic schedule of half-sized center subsets, lift to the full
multiplicities by letting new copies mimic old ones (Koh and Tay's
extension lemma), then check the lift, whose one sweep is the proof.

Each construction case is data, stated once in `reduce`: an ordered list
of *slot blocks*, each with its kind (`two_copy`, `inlet_three_copy`,
`outlet_three_copy`, `four_copy` or `leafless`, the names `--explain`
prints its size under), user branches, core multiplicity, leaf pattern
and one row per slot, the center in-set of every branch copy, read off
one level of the case's set schedule in order.  The blocks fix the slot
order and the slot-to-user permutation; `build_base_orientation` walks
the core's layout table, `tree._blocks`, once, writing each block's
direction bits from its slot's row or leaf pattern.  One pull-back then
relabels slots to the caller's branch indices and lifts in the same pass,
tiling each block's bits from the core's.

Center sets are int masks (bit x-1 for copy x), so squashed order is
integer order and complement, which reverses it, is one xor.  Each
schedule sequence is a generator that a recipe reads only as far as it
needs, so a core costs O(deg_c + s) sets, not a whole half-set level.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import NamedTuple

from .classify import (C0, Classification, classify, half_binom, p35_variant,
                       qualifying_splits)
from .digraph import (Orientation, diameter, is_strong, pull_back,
                      shortest_cycle_lengths)
from .errors import ConstructionError, Refusal, UsageError
from .sperner import kappa, squashed_level
from .tree import BranchSpec, TreeSpec, _blocks, partition


# ============================================================================
# Set schedules
# ============================================================================

def cyclic_half_sets(s: int) -> list:
    """The s consecutive-cyclic ceil(s/2)-subsets of {1..s}; set i starts
    at copy i+1."""
    h, full = (s + 1) // 2, (1 << s) - 1
    low = (1 << h) - 1
    return [(low << i | low >> (s - i)) & full for i in range(s)]


def _without(level, skip):
    skip = set(skip)
    return (x for x in level if x not in skip)


class SetSchedule(NamedTuple):
    """Ordered center-subset sequences consumed by the slot recipes.

    Each sequence orders one whole level of subsets of {1..s} (masks, as
    in `sperner`) and is generated lazily, so a recipe pays only for the
    prefix it reads.  A case that does not use a sequence reads it empty.
    `lam` is defined for every case; `psi` for P39 and P312, `mu` for
    P312 and P43_D3, `gamma` for P43_D3.
    """

    s: int
    case: str

    def lam(self):
        """The ceil(s/2)-sets: the s consecutive-cyclic ones (lam[i] starts
        at copy i+1), then the rest of the level in squashed order."""
        cyc = cyclic_half_sets(self.s)
        yield from cyc
        yield from _without(squashed_level(self.s, (self.s + 1) // 2), cyc)

    def lam_last(self) -> int:
        """The last set of `lam`.  Complement reverses squashed order, so
        the level read backwards is the complements of level
        (s, floor(s/2)) in order; the first that is not cyclic (for s <= 3
        every set is)."""
        cyc = cyclic_half_sets(self.s)
        full = (1 << self.s) - 1
        back = (full ^ x for x in squashed_level(self.s, self.s // 2))
        return next(_without(back, cyc), cyc[-1])

    def psi(self):
        """P39 and P312: the (floor(s/2)+1)-sets in squashed order.  For
        P312 the outlets must avoid the shade of the last k half-sets; that
        shade is a final segment of this level (complement turns it into
        the shadow of an initial segment, Kruskal-Katona), so the sets
        outside it come first and `_feasible_split` keeps the outlets
        among them."""
        if self.case in ("P39", "P312"):
            yield from squashed_level(self.s, self.s // 2 + 1)

    def mu(self):
        """P312: the half-sets in squashed order.  P43_D3: the supersets
        of the pivot {1..floor(s/2)}, then the rest of the level."""
        s = self.s
        if self.case == "P312":
            yield from squashed_level(s, s // 2)
        elif self.case == "P43_D3":
            low = (1 << s // 2) - 1
            supersets = [low | 1 << x for x in range(s // 2, s)]
            yield from supersets
            yield from _without(squashed_level(s, (s + 1) // 2), supersets)

    def gamma(self):
        """P43_D3: the ceil(s/2)-sets meeting the pivot {1..floor(s/2)} in
        one copy a, in squashed order (the missing high copy b from s
        down, then a upwards), then the rest of the level; the last set
        is the complement of the pivot."""
        if self.case != "P43_D3":
            return
        s, lo = self.s, self.s // 2
        low, high = (1 << lo) - 1, (1 << s) - (1 << lo)
        yield from (high ^ 1 << b | 1 << a
                    for b in range(s - 1, lo - 1, -1) for a in range(lo))
        yield from (f for f in squashed_level(s, (s + 1) // 2)
                    if (f & low).bit_count() != 1)


def make_schedule(s: int, case: str) -> SetSchedule:
    """Deterministic schedule for a construction case.  The order of the
    sets does not depend on the P312 split (see `SetSchedule.psi`)."""
    if s < 2:
        raise UsageError(f"center multiplicity {s} < 2")
    if case == "P312" and (s % 2 != 0 or s < 4):
        raise UsageError("P312 schedule needs even s >= 4")
    if case == "P43_D3" and (s % 2 == 0 or s < 5):
        raise UsageError("P43_D3 schedule needs odd s >= 5")
    return SetSchedule(s, case)


# ============================================================================
# The core instance H: reduction, slot rows, direction bits
# ============================================================================

# Leaf patterns of the core, whose leaves all have two copies: row z-1 has
# "i" at position y-1 if branch copy y feeds leaf copy z, "o" if leaf copy z
# drains into branch copy y.  Leafless branches have the empty pattern.
C4_WITHIN = ("oi", "io")         # copy 2, leaf 1, copy 1, leaf 2: a 4-cycle
TWO_IN_ONE_OUT = ("oi", "oi")    # copy 2 feeds both leaf copies
THREE_SINK = ("ooi", "ooi")      # copy 3 is the sole feeder
THREE_SOURCE = ("iio", "iio")    # copy 3 is the sole drain
THREE_SPLIT_OUT = ("iio", "ioi")
THREE_SPLIT_IN = ("ooi", "oio")  # mirror of THREE_SPLIT_OUT
FOUR_C4 = ("oioi", "ioio")       # copies 2,4 feed leaf copy 1, 1,3 copy 2
FOUR_C4_P34 = ("oiio", "iooi")   # copies 2,3 feed leaf copy 1, 1,4 copy 2


class ReducedSpec(NamedTuple):
    """The core instance H in slot order, plus the bookkeeping to undo it."""

    case: str
    h_spec: TreeSpec
    slot_to_user: tuple          # slot j (1-based) -> user branch index
    slots: tuple                 # per slot: (leaf pattern, in-set per copy)
    block_sizes: tuple           # (block kind, slot count), all five kinds
    k: int | None = None         # P312 block split


def _feasible_split(s, n2, n3, k):
    """Outlet half-set budget for the 2-copy/3-copy split at k (P312):
    unused-superset count must cover the outlet block."""
    c = comb(s, s // 2)
    n_bo = n2 + n3 - (c - 2)
    if n_bo <= 0:
        return True
    c2 = comb(s, s // 2 + 1)
    return n_bo <= c2 - (kappa(s, s // 2, k) + k)


def _fill(base, donors, quota, block):
    """Absorb the lowest-index donors into `base` until it has `quota`
    branches; returns the filled block and the donors left over."""
    need = max(0, quota - len(base))
    if need > len(donors):
        raise ConstructionError("not enough high-multiplicity branches "
                                f"to fill the {block} block")
    return base + donors[:need], donors[need:]


def _one_level(sched, a2, bi, bo, a4):
    """The blocks, and the leafless in-set, of the recipes that read one
    level of half-sets in order (P312: mu; the others: lam).  `first` and
    its complement orient the 3- and 4-copy slots; the rest of the level
    goes to the 2-copy slots, then the inlets, and for odd s the outlets
    too.  For even s the outlets read `psi`."""
    full, even = (1 << sched.s) - 1, sched.s % 2 == 0
    level = sched.mu() if sched.case == "P312" else sched.lam()
    first = next(level)
    second = full ^ first
    n2 = len(a2)
    rest = list(islice((f for f in level if f != second),
                       n2 + max(len(bi), len(bo))))
    outlet_in = (islice(sched.psi(), len(bo)) if even
                 else rest[n2:n2 + len(bo)])
    return [("two_copy", 2, a2, C4_WITHIN if even else TWO_IN_ONE_OUT,
             [(x, x) if even else (full ^ x, x) for x in rest[:n2]]),
            ("inlet_three_copy", 3, bi, THREE_SINK,
             [(second, first, x) for x in rest[n2:n2 + len(bi)]]),
            ("outlet_three_copy", 3, bo, THREE_SOURCE,
             [(first, second, full ^ z) for z in outlet_in]),
            ("four_copy", 4, a4, FOUR_C4, [(second, first, first, second)]
             * len(a4))], first


def reduce(spec: TreeSpec, case: str) -> ReducedSpec:
    """Apply the case's core multiplicities and quota promotions, and read
    each slot's row off the case's schedule.

    Each case lists its blocks in slot order as (kind, core multiplicity
    t, user branches, leaf pattern, rows), the kind being the name under
    which `ReducedSpec.block_sizes` counts its slots; a row is the
    center in-set of each branch copy of one slot.  Leafless branches come
    last with t = 2 and the case's in-set `e_in`.  Promotions (absorb
    spare high-multiplicity branches into a smaller class to fill a block
    quota) pick the lowest user indices."""
    part = partition(spec)
    s = spec.s
    a2, a3, a4 = sorted(part.a2), sorted(part.a3), sorted(part.a4plus)
    n_e = len(part.e)
    c = half_binom(s)
    center_t, split = (2 if case == "P34" else s), None
    sched = make_schedule(center_t, case)
    full = (1 << center_t) - 1

    if case == "P34":
        blocks = [("four_copy", 4, a4, FOUR_C4_P34,
                   [(0b10, 0b10, 0b01, 0b01)] * len(a4))]
        e_in = 0b10
    elif case in ("Thm16a", "P311") or case.startswith("P35_"):
        # every internal branch gets two copies
        internal = sorted(part.a2 | part.a3 | part.a4plus)
        n2 = len(internal)
        variant = (case if case.startswith("P35_")
                   else p35_variant(n2, n_e, s))[-2:]
        if variant in ("D1", "D3") and n_e:
            raise ConstructionError(f"variant {variant} admits no leafless "
                                    f"branches")
        if variant == "D1":
            # each of the first n2-1 slots drains into its own center copy;
            # the last slot drains into all remaining copies
            ins = ([full ^ 1 << j for j in range(n2 - 1)]
                   + [full >> max(s + 1 - n2, 0)])   # copies 1..n2-1
        elif variant == "D2":
            ins = [full ^ 1 << j for j in range(n2)]
        else:  # D3 / D4
            ins = list(islice(sched.lam(), n2))
        blocks = [("two_copy", 2, internal, C4_WITHIN, [(x, x) for x in ins])]
        e_in = (full & (1 << n2) - 1 if variant == "D2"
                else sched.lam_last())
    elif case in ("P39", "P41"):
        quota, n_bi = (c - 2, c - 2) if case == "P39" else (c, c - 1)
        a3, a4 = _fill(a3, a4, quota, "inlet")
        blocks, e_in = _one_level(sched, [], a3[:n_bi], a3[n_bi:], a4)
    elif case in ("P310", "P411"):
        # a3 is nonempty only on the P411 demotion route
        a2, a4 = _fill(a2 + a3, a4, s if case == "P310" else s - 1,
                       "2-copy")
        if not a4:
            raise ConstructionError("no 4-copy slot left after promotion")
        blocks, e_in = _one_level(sched, a2, [], [], a4)
    elif case == "P312":
        # the first qualifying split is the classifier's `k_witness`; if it
        # is infeasible, so is every later one: kappa(s, s/2, k) + k, the
        # shadow of the first k half-sets, never shrinks as k grows
        split = next(qualifying_splits(s, len(a2), len(a3)), None)
        if split is None or not _feasible_split(s, len(a2), len(a3), split):
            raise ConstructionError(
                "the sufficiency schedule cannot be completed for this "
                "instance: every qualifying split leaves an outlet block that "
                "must reuse a half-set superset already claimed by the 2-copy "
                "block")
        a2, a3 = _fill(a2, a3, split - 1, "2-copy")
        n_bi = (c - 2) - len(a2)
        a3, a4 = _fill(a3, a4, n_bi, "inlet")
        blocks, e_in = _one_level(sched, a2, a3[:n_bi], a3[n_bi:], a4)
    elif case in ("P43_D2", "P413"):
        n_bi = max(0, (c - 1) - len(a2))
        blocks, e_in = _one_level(sched, a2, a3[:n_bi], a3[n_bi:], a4)
    elif case == "P43_D3":
        # outlet block first, then inlet block
        n2, n_bo = len(a2), max(0, c - len(a2))
        bo, bi = a3[:n_bo], a3[n_bo:]
        mu = list(islice(sched.mu(), n2 + len(bo)))
        gamma = list(islice(sched.gamma(), n2 + len(bi)))
        hub = e_in = full ^ (1 << s // 2) - 1  # gamma's last set
        blocks = [("two_copy", 2, a2, TWO_IN_ONE_OUT,
                   [(full ^ m, g) for m, g in zip(mu[:n2], gamma[:n2])]),
                  ("outlet_three_copy", 3, bo, THREE_SPLIT_OUT,
                   [(hub, full ^ m, full ^ m) for m in mu[n2:]]),
                  ("inlet_three_copy", 3, bi, THREE_SPLIT_IN,
                   [(hub, g, g) for g in gamma[n2:]])]
    elif case == "P43_D1":  # exactly one 3-copy slot, an outlet
        first, *rest = islice(sched.lam(), len(a2) + 1)
        blocks = [("outlet_three_copy", 3, a3, THREE_SPLIT_OUT,
                   [(first, full ^ first, full ^ first)]),
                  ("two_copy", 2, a2, TWO_IN_ONE_OUT,
                   [(full ^ x, x) for x in rest])]
        e_in = first
    else:
        raise UsageError(f"unknown construction case {case!r}")
    blocks.append(("leafless", 2, sorted(part.e), (), [(e_in, e_in)] * n_e))

    order, branches, slots = [], [], []
    for _, t, users, pattern, rows in blocks:
        for u in users:
            order.append(u)
            branches.append(BranchSpec(t, (2,) * spec.branch(u).leaf_count))
        slots += [(pattern, row) for row in rows]
    counts = {kind: len(users) for kind, _, users, _, _ in blocks}
    sizes = tuple((kind, counts.get(kind, 0)) for kind in (
        "two_copy", "inlet_three_copy", "outlet_three_copy", "four_copy",
        "leafless"))
    return ReducedSpec(case, TreeSpec(center_t, tuple(branches)),
                       tuple(order), tuple(slots), sizes, split)


def _core_bits(case, h, rows):
    """The core's direction bits, block by block of `tree._blocks`, from
    the slot rows: a branch block's center edge points into branch copy y
    exactly when center copy x is in the row's in-set, and a leaf block's
    edge follows the slot's pattern ("o": leaf copy z drains into copy y)."""
    bits = []
    for (role, j, _), (_, t, _, up, _) in _blocks(h).items():
        if role == "b":
            pattern, row = rows[j - 1]
            leaves = h.branch(j).leaf_multiplicities
            if {len(row), *map(len, pattern)} != {t} or any(
                    lm != len(pattern) for lm in leaves):
                raise ConstructionError(f"recipe {case}: slot {j} does not "
                                        f"fit its multiplicity {t}")
            bits += [1 - (in_set >> x & 1) for x in range(up)
                     for in_set in row]
        elif role == "l":
            bits += [int(ways[y] == "o") for y in range(up)
                     for ways in rows[j - 1][0]]
    return bits


def build_base_orientation(rspec: ReducedSpec) -> Orientation:
    """Orient every edge of the core instance from its slot rows.  The
    extension lemma's hypothesis is not swept here: `construct_optimal`
    sweeps the core only when the lift fails its check."""
    case, h, rows = rspec.case, rspec.h_spec, rspec.slots
    if len(rows) != h.deg_c:
        raise ConstructionError(f"recipe {case}: the schedule gives "
                                f"{len(rows)} rows for {h.deg_c} slots")
    return Orientation(h, _core_bits(case, h, rows))


# ============================================================================
# Full pipeline
# ============================================================================

class ConstructionResult(NamedTuple):
    orientation: Orientation
    classification: Classification
    reduced: ReducedSpec

    @property
    def case(self) -> str:
        return self.reduced.case

    @property
    def schedule(self) -> SetSchedule:   # the one the core's rows read
        return make_schedule(self.reduced.h_spec.s, self.case)


def relabel_orientation(d: Orientation, slot_to_user: tuple,
                        user_spec: TreeSpec) -> Orientation:
    """Map branch slots back to the user's original branch indices, and
    lift to `user_spec`'s multiplicities in the same pull-back: copy x of
    each vertex mimics copy x mod the core's multiplicity there."""
    slot = {0: 0}   # the center's `tree._blocks` key has branch index 0
    slot.update((u, j) for j, u in enumerate(slot_to_user, start=1))
    return pull_back(d, user_spec, lambda key: (key[0], slot[key[1]], key[2]))


def construct_optimal(spec: TreeSpec) -> ConstructionResult:
    """Classify, which names the recipe, then reduce to the core (the
    P312 split is chosen and the slot rows are read there), build the
    core, relabel and lift it, verify.

    Relabelling slots to user branches is an isomorphism and the mimic step
    only copies, so the two are one pull-back (`relabel_orientation`).
    The lifted witness is swept once, on its own arcs; diameter 4 and
    strong is the proof, and it also gives the extension lemma's
    hypothesis on the witness: for an arc v -> w the path back from w has
    length <= 4, so v lies on a cycle of length <= 5, and the multiplied
    graph is bipartite, so that cycle is even, of length 4.  Only a lift
    that fails has the core swept, to name the hypothesis that broke
    first.

    Raises `Refusal` for orientation-number-5 instances and for the open
    regime; raises `ConstructionError` (an internal failure, never a normal
    outcome) if the verified result were not a strong diameter-4 orientation.
    """
    cls = classify(spec)
    if cls.verdict == "C1":
        raise Refusal("orientation number is 5, no diameter-4 orientation "
                      "exists", rule=cls.rule)
    if cls.verdict != C0:
        raise Refusal("open case: neither bound settles this instance",
                      rule=cls.rule)

    rspec = reduce(spec, cls.case)
    base = build_base_orientation(rspec)
    final = relabel_orientation(base, rspec.slot_to_user, spec)
    if diameter(final) == 4 and is_strong(final):
        return ConstructionResult(final, cls, rspec)

    case, worst = rspec.case, max(shortest_cycle_lengths(base))
    if worst > 4:
        raise ConstructionError(f"recipe {case}: a vertex's shortest "
                                f"directed cycle is {worst} > 4")
    if diameter(base) != 4:
        raise ConstructionError(f"recipe {case}: core diameter is "
                                f"{diameter(base)}, expected 4")
    raise ConstructionError(
        f"internal verification failure for case {case}: lifted "
        f"orientation is not a strong diameter-4 orientation")
