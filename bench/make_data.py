"""Write bench/pinned.json: the verdicts, recipes, witnesses and expected
orientation numbers the benchmark's inputs are made from.

    PYTHONPATH=src python3 bench/make_data.py

This is the only benchmark file that uses orient4 to make inputs.  Its
output is committed, so the inputs for a seed do not depend on the commit
under test.  Running it again redefines the benchmark; the oracle checks
take a few minutes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

from orient4.build import construct_optimal
from orient4.classify import classify, select_case
from orient4.errors import ConstructionError
from orient4.oracle import orientation_number
from orient4.tree import (BranchSpec, TreeSpec, edge_count, partition,
                          spec_from_dict, validate)

sys.path.insert(0, str(Path(__file__).parent))
import corpus  # noqa: E402

NATURAL_SEED = 20260810        # the acceptance suite's generator seed
NATURAL_DRAWS = 150
VERIFY_SMALL = 30
VERIFY_TARGETS = (1000, 1500, 2200, 3000, 5000)

# one shape (s, |A2|, |A3|, |A4+|, |E|) per recipe, mostly the acceptance
# suite's reference parameter sets
REFERENCE_SHAPES = [
    (2, 0, 0, 2, 2), (5, 4, 0, 0, 0), (5, 4, 0, 0, 2), (5, 6, 0, 0, 0),
    (5, 9, 0, 0, 2), (4, 0, 6, 2, 2), (4, 4, 0, 2, 0), (6, 12, 8, 2, 2),
    (3, 0, 4, 2, 2), (3, 2, 1, 0, 2), (3, 1, 2, 0, 2), (5, 6, 7, 0, 0),
    (3, 2, 0, 2, 2), (3, 1, 2, 2, 2), (3, 2, 0, 0, 0), (4, 2, 1, 0, 1),
]


def natural_c0_specs(seed):
    """The acceptance suite's random orientable-instance generator."""
    rng = random.Random(seed)
    while True:
        s = rng.randint(2, 6)
        deg = rng.randint(2, 8) if rng.random() < 0.6 else rng.randint(8, 24)
        branches = []
        for _ in range(deg):
            mult = rng.choice((2, 2, 2, 3, 3, 4, 5, 6))
            nl = rng.choice((0, 1, 1, 1, 2))
            branches.append(BranchSpec(mult, tuple(
                rng.randint(2, 4) for _ in range(nl))))
        spec = TreeSpec(s, tuple(branches))
        if validate(spec) or classify(spec).verdict != "C0":
            continue
        yield spec


def shape_of(spec):
    return [spec.s, *partition(spec).counts(), select_case(spec)]


def construct_shapes():
    source = natural_c0_specs(NATURAL_SEED)
    return [shape_of(next(source)) for _ in range(NATURAL_DRAWS)]


def reference_shapes():
    out = []
    rng = random.Random(0)
    for shape in REFERENCE_SHAPES:
        spec = spec_from_dict(corpus.make_spec(shape, rng))
        assert classify(spec).verdict == "C0", shape
        out.append(shape_of(spec))
    return out


def verify_witnesses(shapes):
    """Witnesses for the first shapes that construct, at natural sizes and
    at the scaled targets."""
    rng = random.Random("verify-pool")
    targets = [None] * VERIFY_SMALL + list(VERIFY_TARGETS)
    out = []
    for shape in shapes:
        if len(out) == len(targets):
            break
        doc = corpus.make_spec(shape[:5], rng, targets[len(out)])
        try:
            res = construct_optimal(spec_from_dict(doc))
        except ConstructionError:
            continue   # no witness to verify; the construct workload keeps it
        bits = sum(b << j for j, b in enumerate(res.orientation.bits))
        out.append({"spec": doc, "recipe": res.case, "bits": f"{bits:x}"})
    return out


def oracle_specs():
    """Every small spec with 20, 22 or 24 edges, with the orientation
    number the classifier gives, confirmed by exhaustive search."""
    options = [(m, lm) for m in (2, 3, 4) for nl in range(3)
               for lm in itertools.combinations_with_replacement((2, 3), nl)]
    sizes = {slot[0] for slot in corpus.ORACLE_SLOTS}
    out = []
    for s in (2, 3, 4):
        for nb in (2, 3, 4):
            for combo in itertools.combinations_with_replacement(options, nb):
                spec = TreeSpec(s, tuple(BranchSpec(m, lm) for m, lm in combo))
                if validate(spec) or edge_count(spec) not in sizes:
                    continue
                cls = classify(spec)
                if cls.orientation_number is None:
                    continue
                got = orientation_number(spec, symmetry=True)
                assert got.orientation_number == cls.orientation_number, spec
                out.append({
                    "spec": {"center_multiplicity": s,
                             "branches": [{"multiplicity": m,
                                           "leaf_multiplicities": list(lm)}
                                          for m, lm in combo]},
                    "edges": edge_count(spec), "verdict": cls.verdict,
                    "orientation_number": cls.orientation_number})
    return out


def main():
    shapes = construct_shapes()
    refs = reference_shapes()
    assert len({r[5] for r in refs}) == len(refs), refs
    doc = {"construct_shapes": shapes, "reference_shapes": refs,
           "verify_witnesses": verify_witnesses(shapes),
           "oracle_specs": oracle_specs()}
    with open(corpus.PINNED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
