"""Walk through the squashed-order toolkit.

Squashed (colexicographic) order ranks the k-subsets of {1..n} by their
largest point of difference.  Initial segments of this order have the
smallest possible shadows, which is what makes the order useful: the
cascade formula turns a family size into a sharp shadow bound, and the
deficiency functions built on it become classification thresholds.

Run:  python demos/sperner_toolkit.py
"""

from math import comb

from orient4 import (first_m, kappa, kappa_star, last_m, members, shade,
                     shadow, shadow_size_kkt, squashed_level)


def show(family):
    """Sets are int masks (bit i-1 for member i); print each as digits."""
    return " ".join("".join(map(str, members(s))) for s in family)


def main():
    print("== The 3-subsets of {1..5} in squashed order ==")
    print(show(squashed_level(5, 3)))
    print()

    print("== Initial segments minimize the shadow ==")
    fam = first_m(5, 3, 4)
    print(f"first 4 sets: {show(fam)}")
    print(f"their shadow: {show(shadow(fam))}")
    print(f"cascade formula agrees: {shadow_size_kkt(5, 3, 4)} sets")
    print()

    print("== Final segments mirror that for the shade ==")
    tail = last_m(6, 3, 13)
    print(f"last 13 sets of the (6,3) level: {show(tail)}")
    grown = set(shade(tail, 6))
    missing = [f for f in squashed_level(6, 4) if f not in grown]
    print("4-sets their shade misses:", show(missing))
    print()

    print("== Deficiency kappa = |shadow| - family size ==")
    print("kappa_{6,3}(m) for m = 0..20:")
    print(" ", [kappa(6, 3, m) for m in range(comb(6, 3) + 1)])
    print("its running minimum kappa* stays at 0 until the level is nearly")
    print("half used, then dives; that dive is exactly what the even-center")
    print("classification thresholds subtract:")
    print(" ", [kappa_star(6, 3, m) for m in range(comb(6, 3) + 1)])


if __name__ == "__main__":
    main()
