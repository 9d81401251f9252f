"""Cross-check the classifier against brute force on tiny instances.

The oracle decides every one of the 2^|E| direction assignments strong or
not with bit-parallel reachability, computes the exact diameter of each
that ties the best of its batch, and reports the minimum over the
strong ones together with the first optimal assignment.
Permuting the copies of one tree vertex keeps the diameter, so the search
decides one assignment per orbit of these permutations; at 16-26 edges
that is 64k-67M assignments, and numpy keeps it under a second.

Run:  python demos/oracle_small_trees.py
"""

import time

from orient4 import (BranchSpec, TreeSpec, bipartite_orientation_number,
                     classify, orientation_number)


def report(name, spec, max_edges=24):
    t0 = time.perf_counter()
    res = orientation_number(spec, max_edges=max_edges, symmetry=True)
    dt = time.perf_counter() - t0
    cls = classify(spec)
    verdict_number = 4 if cls.verdict == "C0" else 5
    tick = "agree" if verdict_number == res.orientation_number else "DISAGREE"
    print(f"{name}: oracle {res.orientation_number}, classifier "
          f"{verdict_number} ({cls.rule}) -> {tick}")
    print(f"  examined {res.orientations_examined} assignments, one per "
          f"reversal pair ({res.strong_count} strong) in {dt:.2f}s")


def main():
    print("== The two smallest interesting trees ==")
    report("path shape, all doubled",
           TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,)))))
    report("degree-3 center, all doubled",
           TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(2, ()))))
    print("(the next one has 26 edges, past the default limit of 24)")
    report("degree-3 center, tripled center",
           TreeSpec(3, (BranchSpec(2, (2,)), BranchSpec(2, (2,)),
                        BranchSpec(2, ()))), max_edges=26)
    print()

    print("== Complete bipartite sanity check ==")
    print("K(p,q) has orientation number 3 exactly when q <= C(p, p//2):")
    for p, q in ((2, 2), (2, 3), (3, 3), (3, 4)):
        res = bipartite_orientation_number(p, q)
        print(f"  K({p},{q}) -> {res.orientation_number}")


if __name__ == "__main__":
    main()
