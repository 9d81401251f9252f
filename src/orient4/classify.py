"""Decide whether a multiplied diameter-4 tree has orientation number 4 or 5.

The verdict depends only on the center multiplicity s and the partition
counts (|A2|, |A3|, |A4+|, |E|).  Every rule is an explicit threshold on
those counts; the one genuinely open regime (even s >= 4 with mixed small
branch classes) is reported three-valued, with both bound evaluations
attached so callers can see how far inside the gap an instance sits.

Rule identifiers (e.g. "Prop3.9") name the decision rules and match the
identifiers printed by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import UsageError
from .sperner import kappa, kappa_star
from .tree import TreeSpec, partition, require_valid

C0 = "C0"
C1 = "C1"
UNKNOWN_GAP = "UnknownGap"


@dataclass(frozen=True)
class GapDetail:
    necessary_bound_holds: bool
    sufficient_bound_holds: bool
    k_witness: int | None


@dataclass(frozen=True)
class Classification:
    verdict: str
    rule: str
    threshold_note: str
    orientation_number: int | None = None
    k_witness: int | None = None
    gap_detail: GapDetail | None = None

    def __post_init__(self):
        expected = {C0: 4, C1: 5, UNKNOWN_GAP: None}[self.verdict]
        if self.orientation_number != expected:
            raise UsageError(
                f"verdict {self.verdict} cannot carry orientation number "
                f"{self.orientation_number}")


def _c0(rule, note, k_witness=None):
    return Classification(C0, rule, note, orientation_number=4,
                          k_witness=k_witness)


def _c1(rule, note):
    return Classification(C1, rule, note, orientation_number=5)


def half_binom(s: int) -> int:
    """C(s, ceil(s/2)), the central level size used by every threshold."""
    return comb(s, (s + 1) // 2)


def classify(spec: TreeSpec) -> Classification:
    """Apply the decision tables; first matching rule wins."""
    require_valid(spec)
    part = partition(spec)
    s = spec.s
    n2, n3, n4, ne = part.counts()
    deg = part.deg_c
    n_internal = n2 + n3 + n4
    c = half_binom(s)

    # Degree-2 centers are always orientable at diameter 4.
    if deg == 2:
        return _c0("Thm1.6a", "deg_T(c)=2")

    if s == 2:
        if n2 + n3 >= 1:
            return _c1("Prop3.2",
                       f"s=2 with |A2 u A3|={n2 + n3}>=1 and deg_T(c)={deg}>2")
        return _c0("Prop3.4", "s=2 and A2=A3=empty")

    if n2 == 0 and n3 == 0:
        return _c0("Prop3.4", f"A2=A3=empty (|A>=4|={n4})")

    if n3 == 0 and n4 == 0:
        # all internal branches have multiplicity 2
        if n2 == deg:
            bound = c
            note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} C({s},{(s + 1) // 2})={bound} (|A2|=deg_T(c))"
        else:
            bound = c - 1
            note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} C({s},{(s + 1) // 2})-1={bound} (|A2|<deg_T(c))"
        return _c0("Prop3.5", note) if n2 <= bound else _c1("Prop3.5", note)

    if s % 2 == 0:
        return _classify_even(spec, s, n2, n3, n4, ne, deg, c)
    return _classify_odd(spec, s, n2, n3, n4, ne, deg, c)


def _classify_even(spec, s, n2, n3, n4, ne, deg, c):
    c2 = comb(s, s // 2 + 1)

    if n2 == 0 and n3 >= 1:
        bound = c + c2 - 2
        note = (f"|A3|={n3} {'<=' if n3 <= bound else '>'} "
                f"C({s},{s // 2})+C({s},{s // 2 + 1})-2={bound}")
        return _c0("Prop3.9", note) if n3 <= bound else _c1("Prop3.9", note)

    if n2 >= 1 and n3 == 0 and n4 >= 1:
        if n4 >= 2 or n2 + n3 + n4 < deg:
            bound, why = c - 2, "|A>=4|>=2 or |A>=2|<deg_T(c)"
        else:
            bound, why = c - 1, "|A>=4|=1 and |A>=2|=deg_T(c)"
        note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} {bound} ({why})"
        return _c0("Prop3.10", note) if n2 <= bound else _c1("Prop3.10", note)

    if n2 >= 1 and n3 == 1 and n4 == 0:
        if n2 + n3 < deg:
            bound, why = c - 2, "|A>=2|<deg_T(c)"
        else:
            bound, why = c - 1, "|A>=2|=deg_T(c)"
        note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} {bound} ({why})"
        return _c0("Prop3.11", note) if n2 <= bound else _c1("Prop3.11", note)

    # remaining even regime: A2 nonempty with |A3|>=2, or |A3|=1 and A4 nonempty
    weight = 2 * n2 + n3
    k_cap = min(n2 + n3, c)  # kappa* argument cannot exceed the level size
    necessary_bound = c + c2 - kappa_star(s, s // 2, k_cap)
    if weight > necessary_bound:
        note = (f"2|A2|+|A3|={weight} > C+C2-kappa*({k_cap})={necessary_bound} "
                f"for every admissible k")
        return _c1("Prop3.12a", note)

    k_witness = None
    for k in range(n2 + 1, min(n2 + n3, c - 1) + 1):
        if weight <= c + c2 - kappa(s, s // 2, k) - 3:
            k_witness = k
            break
    if k_witness is not None:
        note = (f"2|A2|+|A3|={weight} <= C+C2-kappa({k_witness})-3="
                f"{c + c2 - kappa(s, s // 2, k_witness) - 3}")
        return _c0("Prop3.12b", note, k_witness=k_witness)

    note = (f"2|A2|+|A3|={weight}: necessary bound {necessary_bound} holds, "
            f"sufficient bound fails for every k in "
            f"[{n2 + 1},{min(n2 + n3, c - 1)}]")
    return Classification(
        UNKNOWN_GAP, "Prop3.12", note,
        gap_detail=GapDetail(necessary_bound_holds=True,
                             sufficient_bound_holds=False, k_witness=None))


def _classify_odd(spec, s, n2, n3, n4, ne, deg, c):
    if n2 == 0 and n3 >= 1:
        bound = 2 * c - 2
        note = f"|A3|={n3} {'<=' if n3 <= bound else '>'} 2C({s},{(s + 1) // 2})-2={bound}"
        return _c0("Prop4.1", note) if n3 <= bound else _c1("Prop4.1", note)

    if n2 >= 1 and n3 == 0 and n4 >= 1:
        bound = c - 1
        note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} C-1={bound}"
        return _c0("Prop4.11", note) if n2 <= bound else _c1("Prop4.11", note)

    if n2 >= 1 and n4 == 0:
        if n3 == 1:
            bound = c - 1
            note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} C-1={bound} (|A3|=1)"
            return _c0("Prop4.3", note) if n2 <= bound else _c1("Prop4.3", note)
        weight = 2 * n2 + n3
        if weight <= 2 * c - 2:
            return _c0("Prop4.3", f"2|A2|+|A3|={weight} <= 2C-2={2 * c - 2}")
        if weight == 2 * c - 1 and n2 >= ((s + 1) // 2) * (s // 2) and s >= 5:
            return _c0("Prop4.3",
                       f"2|A2|+|A3|={weight} = 2C-1 with |A2|={n2} >= "
                       f"{((s + 1) // 2) * (s // 2)} and s={s} >= 5")
        return _c1("Prop4.3",
                   f"2|A2|+|A3|={weight} > 2C-2={2 * c - 2} and equality "
                   f"clause fails")

    # n2 >= 1, n3 >= 1, n4 >= 1
    if n3 == 1:
        bound = c - 2
        note = f"|A2|={n2} {'<=' if n2 <= bound else '>'} C-2={bound} (|A3|=1, A>=4 nonempty)"
        return _c0("Prop4.13", note) if n2 <= bound else _c1("Prop4.13", note)
    weight = 2 * n2 + n3
    bound = 2 * c - 2
    note = f"2|A2|+|A3|={weight} {'<=' if weight <= bound else '>'} 2C-2={bound}"
    return _c0("Prop4.13", note) if weight <= bound else _c1("Prop4.13", note)


# ============================================================================
# Construction-case routing
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
    return case_for(spec, classify(spec))


def case_for(spec: TreeSpec, cls: Classification) -> str:
    """`select_case` for a spec whose classification `cls` is already made."""
    if cls.verdict != C0:
        raise UsageError(f"no construction case for verdict {cls.verdict} "
                         f"(rule {cls.rule})")
    part = partition(spec)
    s = spec.s
    n2, n3, n4, ne = part.counts()
    n_internal = n2 + n3 + n4
    c = half_binom(s)

    if n2 == 0 and n3 == 0:
        return "P34"
    if part.deg_c == 2:
        return "Thm16a"
    if n3 == 0 and n4 == 0:
        return p35_variant(n2, ne, s)

    if s % 2 == 0:
        if n2 == 0:
            # branches of multiplicity >= 3 only
            return "P39" if n3 + n4 >= c else p35_variant(n_internal, ne, s)
        if n3 == 0:
            if n4 == 1 and ne == 0:
                # single absorber at full degree: demote everything instead
                return p35_variant(n_internal, ne, s)
            return "P310" if n2 + n4 >= c else p35_variant(n_internal, ne, s)
        if n3 == 1 and n4 == 0:
            return "P311"
        return "P312" if n_internal >= c else p35_variant(n_internal, ne, s)

    # odd s >= 3
    if n2 == 0:
        return "P41" if n3 + n4 >= c else p35_variant(n_internal, ne, s)
    if n3 == 0:
        return "P411" if n2 + n4 >= c else p35_variant(n_internal, ne, s)
    if n4 == 0:
        if n3 == 1:
            return "P43_D1" if n2 == c - 1 else p35_variant(n_internal, ne, s)
        if n2 + n3 < c:
            return p35_variant(n_internal, ne, s)
        return "P43_D3" if 2 * n2 + n3 == 2 * c - 1 else "P43_D2"
    # A2, A3 and A>=4 all nonempty: the full mixed recipe when the small
    # classes fill the half-set level, else the multiplicity-4 absorber with
    # A3 demoted to two copies (when enough branches exist to pad it), else
    # demote everything.
    if n2 + n3 >= c:
        return "P413"
    if n_internal >= s:
        return "P411"
    return p35_variant(n_internal, ne, s)
