"""Decide whether a multiplied diameter-4 tree has orientation number 4 or 5.

The verdict depends only on the center multiplicity s and the partition
counts (|A2|, |A3|, |A4+|, |E|).  Every rule is an explicit threshold on
those counts, walked once: each sufficiency proof is a construction, so a
C0 verdict also names its recipe (`Classification.case`) and, for
Prop3.12b, the first qualifying split (`k_witness`).  The one genuinely
open regime (even s >= 4 with mixed small branch classes) is reported
three-valued: the necessary bound holds, the sufficient one fails, and the
note carries the arithmetic.

Rule identifiers (e.g. "Prop3.9") name the decision rules and match the
identifiers printed by the CLI.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import UsageError
from .sperner import kappa, kappa_star
from .tree import TreeSpec, partition, require_valid

C0 = "C0"
C1 = "C1"
UNKNOWN_GAP = "UnknownGap"


class Classification(NamedTuple):
    verdict: str
    rule: str
    threshold_note: str
    k_witness: int | None = None
    case: str | None = None     # the recipe of a C0 verdict, from CASE_IDS

    @property
    def orientation_number(self) -> int | None:
        return {C0: 4, C1: 5}.get(self.verdict)


def _c0(rule, note, case, k_witness=None):
    return Classification(C0, rule, note, k_witness=k_witness, case=case)


def _c1(rule, note):
    return Classification(C1, rule, note)


def _at_most(rule, case, quantity, value, bound, name="", why=""):
    """C0 by `case`'s recipe when value <= bound, the rule's sufficient
    bound, else C1; the note states the same comparison, as
    `quantity=value <= name=bound (why)`, with `>` when it fails."""
    holds = value <= bound
    rhs = f"{name}={bound}" if name else f"{bound}"
    note = f"{quantity}={value} {'<=' if holds else '>'} {rhs}"
    note += f" ({why})" if why else ""
    return _c0(rule, note, case) if holds else _c1(rule, note)


def half_binom(s: int) -> int:
    """C(s, ceil(s/2)), the central level size used by every threshold."""
    return comb(s, (s + 1) // 2)


def qualifying_splits(s: int, n2: int, n3: int):
    """The splits k of Prop3.12b (even s) in increasing order: k in
    [|A2|+1, min(|A2|+|A3|, C-1)] with 2|A2|+|A3| <= C+C2-kappa(k)-3."""
    c, c2 = comb(s, s // 2), comb(s, s // 2 + 1)
    return (k for k in range(n2 + 1, min(n2 + n3, c - 1) + 1)
            if 2 * n2 + n3 <= c + c2 - kappa(s, s // 2, k) - 3)


def classify(spec: TreeSpec) -> Classification:
    """Walk the count regions once; the first that matches gives the
    verdict and, for C0, the recipe of the region's sufficiency proof."""
    require_valid(spec)
    part = partition(spec)
    s = spec.s
    n2, n3, n4, ne = part.counts()
    deg = spec.deg_c
    c = half_binom(s)
    # the all-two-copy recipe a region falls back on when its head is small
    p35 = p35_variant(n2 + n3 + n4, ne, s)

    # Degree-2 centers are always orientable at diameter 4.
    if deg == 2:
        return _c0("Thm1.6a", "deg_T(c)=2",
                   "P34" if n2 == n3 == 0 else "Thm16a")

    if s == 2:
        if n2 + n3 >= 1:
            return _c1("Prop3.2",
                       f"s=2 with |A2 u A3|={n2 + n3}>=1 and deg_T(c)={deg}>2")
        return _c0("Prop3.4", "s=2 and A2=A3=empty", "P34")

    if n2 == 0 and n3 == 0:
        return _c0("Prop3.4", f"A2=A3=empty (|A>=4|={n4})", "P34")

    if n3 == 0 and n4 == 0:
        # all internal branches have multiplicity 2
        name = f"C({s},{(s + 1) // 2})"
        if n2 == deg:
            return _at_most("Prop3.5", p35, "|A2|", n2, c, name,
                            "|A2|=deg_T(c)")
        return _at_most("Prop3.5", p35, "|A2|", n2, c - 1, name + "-1",
                        "|A2|<deg_T(c)")

    if s % 2 == 0:
        return _classify_even(s, n2, n3, n4, deg, c, p35)
    return _classify_odd(s, n2, n3, n4, c, p35)


def _classify_even(s, n2, n3, n4, deg, c, p35):
    c2 = comb(s, s // 2 + 1)

    if n2 == 0 and n3 >= 1:
        return _at_most("Prop3.9", "P39" if n3 + n4 >= c else p35, "|A3|",
                        n3, c + c2 - 2,
                        f"C({s},{s // 2})+C({s},{s // 2 + 1})-2")

    if n2 >= 1 and n3 == 0 and n4 >= 1:
        if n4 >= 2 or n2 + n3 + n4 < deg:
            bound, why = c - 2, "|A>=4|>=2 or |A>=2|<deg_T(c)"
            case = "P310" if n2 + n4 >= c else p35
        else:
            # a single absorber at full degree: demote everything
            bound, why, case = c - 1, "|A>=4|=1 and |A>=2|=deg_T(c)", p35
        return _at_most("Prop3.10", case, "|A2|", n2, bound, why=why)

    if n2 >= 1 and n3 == 1 and n4 == 0:
        if n2 + n3 < deg:
            bound, why = c - 2, "|A>=2|<deg_T(c)"
        else:
            bound, why = c - 1, "|A>=2|=deg_T(c)"
        return _at_most("Prop3.11", "P311", "|A2|", n2, bound, why=why)

    # remaining even regime: A2 nonempty with |A3|>=2, or |A3|=1 and A4 nonempty
    weight = 2 * n2 + n3
    k_cap = min(n2 + n3, c)  # kappa* argument cannot exceed the level size
    necessary_bound = c + c2 - kappa_star(s, s // 2, k_cap)
    if weight > necessary_bound:
        note = (f"2|A2|+|A3|={weight} > C+C2-kappa*({k_cap})={necessary_bound} "
                f"for every admissible k")
        return _c1("Prop3.12a", note)

    k_witness = next(qualifying_splits(s, n2, n3), None)
    if k_witness is not None:
        note = (f"2|A2|+|A3|={weight} <= C+C2-kappa({k_witness})-3="
                f"{c + c2 - kappa(s, s // 2, k_witness) - 3}")
        return _c0("Prop3.12b", note, "P312" if n2 + n3 + n4 >= c else p35,
                   k_witness)

    if n2 >= c - 1:  # |A3| >= 1 here, so only |A2| can empty the range
        why = (f"sufficient bound has no admissible k "
               f"(|A2|={n2} >= C-1={c - 1})")
    else:
        why = (f"sufficient bound fails for every k in "
               f"[{n2 + 1},{min(n2 + n3, c - 1)}]")
    note = (f"2|A2|+|A3|={weight}: necessary bound {necessary_bound} "
            f"holds, {why}")
    return Classification(UNKNOWN_GAP, "Prop3.12", note)


def _classify_odd(s, n2, n3, n4, c, p35):
    if n2 == 0 and n3 >= 1:
        return _at_most("Prop4.1", "P41" if n3 + n4 >= c else p35, "|A3|",
                        n3, 2 * c - 2, f"2C({s},{(s + 1) // 2})-2")

    if n2 >= 1 and n3 == 0 and n4 >= 1:
        return _at_most("Prop4.11", "P411" if n2 + n4 >= c else p35, "|A2|",
                        n2, c - 1, "C-1")

    if n2 >= 1 and n4 == 0:
        if n3 == 1:
            return _at_most("Prop4.3", "P43_D1" if n2 == c - 1 else p35,
                            "|A2|", n2, c - 1, "C-1", "|A3|=1")
        weight = 2 * n2 + n3
        if weight <= 2 * c - 2:
            return _c0("Prop4.3", f"2|A2|+|A3|={weight} <= 2C-2={2 * c - 2}",
                       "P43_D2" if n2 + n3 >= c else p35)
        if weight == 2 * c - 1 and n2 >= ((s + 1) // 2) * (s // 2) and s >= 5:
            return _c0("Prop4.3",
                       f"2|A2|+|A3|={weight} = 2C-1 with |A2|={n2} >= "
                       f"{((s + 1) // 2) * (s // 2)} and s={s} >= 5", "P43_D3")
        return _c1("Prop4.3",
                   f"2|A2|+|A3|={weight} > 2C-2={2 * c - 2} and equality "
                   f"clause fails")

    # n2 >= 1, n3 >= 1, n4 >= 1: the full mixed recipe when the small
    # classes fill the half-set level, else the multiplicity-4 absorber with
    # A3 demoted to two copies (when enough branches exist to pad it), else
    # demote everything
    case = ("P413" if n2 + n3 >= c else
            "P411" if n2 + n3 + n4 >= s else p35)
    if n3 == 1:
        return _at_most("Prop4.13", case, "|A2|", n2, c - 2, "C-2",
                        "|A3|=1, A>=4 nonempty")
    return _at_most("Prop4.13", case, "2|A2|+|A3|", 2 * n2 + n3, 2 * c - 2,
                    "2C-2")


# ============================================================================
# Construction cases
# ============================================================================

CASE_IDS = ("P34", "P35_D1", "P35_D2", "P35_D3", "P35_D4", "P39", "P310",
            "P311", "P312", "P41", "P43_D1", "P43_D2", "P43_D3", "P411",
            "P413", "Thm16a")


def p35_variant(n_internal: int, n_e: int, s: int) -> str:
    """Pick the two-copy-branch construction variant from the head counts."""
    if n_e == 0:
        return "P35_D1" if n_internal <= s else "P35_D3"
    return "P35_D2" if n_internal < s else "P35_D4"


def select_case(spec: TreeSpec) -> str:
    """The construction case whose recipe yields a diameter-4 witness.

    Only meaningful for instances classified C0; calling this on a C1 or
    open-gap instance is a usage error.
    """
    cls = classify(spec)
    if cls.case is None:
        raise UsageError(f"no construction case for verdict {cls.verdict} "
                         f"(rule {cls.rule})")
    return cls.case
