"""Tree specs, validation, the branch-class partition, and the edge layout."""

import json
import random

import pytest

from orient4.errors import UsageError
from orient4.tree import (BranchSpec, TreeSpec, edge_count, load_spec,
                          multiplied_edges, partition, spec_from_dict,
                          spec_to_dict, validate, vertex_names)


def p5_all2():
    return TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, (2,))))


def fig_tree_all2():
    # four branches: two carrying leaves, two bare
    return TreeSpec(2, (BranchSpec(2, (2, 2)), BranchSpec(2, (2,)),
                        BranchSpec(2, ()), BranchSpec(2, ())))


# ----------------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------------

def test_minimal_valid_instance():
    assert validate(p5_all2()) == []


def test_too_few_leafy_branches():
    spec = TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(2, ()),
                        BranchSpec(2, ()), BranchSpec(2, ())))
    diags = validate(spec)
    assert any("diameter < 4" in d for d in diags)


def test_small_multiplicity_rejected():
    spec = TreeSpec(2, (BranchSpec(1, (2,)), BranchSpec(2, (2,))))
    assert any("multiplicity < 2" in d for d in validate(spec))
    spec = TreeSpec(1, (BranchSpec(2, (2,)), BranchSpec(2, (2,))))
    assert any("multiplicity < 2" in d for d in validate(spec))
    spec = TreeSpec(2, (BranchSpec(2, (1,)), BranchSpec(2, (2,))))
    assert any("multiplicity < 2" in d for d in validate(spec))


# ----------------------------------------------------------------------------
# partition
# ----------------------------------------------------------------------------

def test_partition_of_figure_tree():
    part = partition(fig_tree_all2())
    assert part.a2 == frozenset({1, 2})
    assert part.e == frozenset({3, 4})
    assert part.a3 == part.a4plus == frozenset()


def test_partition_all_heavy():
    spec = TreeSpec(2, (BranchSpec(4, (2,)), BranchSpec(4, (2,))))
    part = partition(spec)
    assert part.a4plus == frozenset({1, 2})
    assert part.a2 == part.a3 == part.e == frozenset()


def test_partition_by_multiplicity():
    spec = TreeSpec(2, (BranchSpec(2, (2,)), BranchSpec(3, (2,)),
                        BranchSpec(4, (2,)), BranchSpec(5, (2,))))
    part = partition(spec)
    assert part.a2 == frozenset({1})
    assert part.a3 == frozenset({2})
    assert part.a4plus == frozenset({3, 4})


def test_partition_ignores_leaf_multiplicities():
    rng = random.Random(7)
    base = TreeSpec(3, (BranchSpec(2, (2, 5)), BranchSpec(3, (4,)),
                        BranchSpec(6, (2, 2)), BranchSpec(2, ())))
    want = partition(base).counts()
    for _ in range(25):
        branches = tuple(
            BranchSpec(b.multiplicity,
                       tuple(rng.randint(2, 9) for _ in b.leaf_multiplicities))
            for b in base.branches)
        assert partition(TreeSpec(3, branches)).counts() == want


# ----------------------------------------------------------------------------
# multiplied graph
# ----------------------------------------------------------------------------

def test_edge_counts():
    assert len(multiplied_edges(p5_all2())) == 16
    assert len(multiplied_edges(fig_tree_all2())) == 28
    assert edge_count(p5_all2()) == 16
    assert edge_count(fig_tree_all2()) == 28


def test_edge_count_formula():
    rng = random.Random(3)
    for _ in range(20):
        branches = []
        for _ in range(rng.randint(2, 5)):
            nl = rng.randint(0, 2)
            branches.append(BranchSpec(rng.randint(2, 5),
                                       tuple(rng.randint(2, 4)
                                             for _ in range(nl))))
        while sum(1 for b in branches if b.leaf_count) < 2:
            branches.append(BranchSpec(2, (2,)))
        spec = TreeSpec(rng.randint(2, 5), tuple(branches))
        expect = sum(spec.s * b.multiplicity
                     + b.multiplicity * sum(b.leaf_multiplicities)
                     for b in spec.branches)
        assert len(multiplied_edges(spec)) == expect


def test_edges_canonical_and_unique():
    spec = fig_tree_all2()
    edges = multiplied_edges(spec)
    assert edges == multiplied_edges(spec)
    assert len({frozenset(edge) for edge in edges}) == len(edges)
    # center-branch blocks come first, ordered by branch index
    assert edges[0] == ("c.1", "b1.1")
    verts = vertex_names(spec)
    assert len(verts) == len(set(verts))


def test_vertex_names_match_vertex_ids():
    # (role, i, alpha, copy) of each vertex, named by the copy convention
    spec = TreeSpec(3, (BranchSpec(2, (2, 4)), BranchSpec(5, (3,))))
    ids = ([("c", 0, 0, x) for x in (1, 2, 3)]
           + [("b", 1, 0, y) for y in (1, 2)]
           + [("b", 2, 0, y) for y in (1, 2, 3, 4, 5)]
           + [("l", 1, 1, z) for z in (1, 2)]
           + [("l", 1, 2, z) for z in (1, 2, 3, 4)]
           + [("l", 2, 1, z) for z in (1, 2, 3)])
    assert vertex_names(spec) == [
        f"c.{x}" if role == "c" else f"b{i}.{x}" if role == "b"
        else f"l{i}.{alpha}.{x}" for role, i, alpha, x in ids]


# ----------------------------------------------------------------------------
# JSON format
# ----------------------------------------------------------------------------

def test_json_roundtrip():
    spec = TreeSpec(3, (BranchSpec(2, (2, 4)), BranchSpec(5, (3,)),
                        BranchSpec(2, ())))
    doc = spec_to_dict(spec)
    assert spec_from_dict(doc) == spec
    assert load_spec(json.dumps(doc).encode()) == spec


def test_json_malformed():
    with pytest.raises(UsageError):
        load_spec(b"{not json")
    with pytest.raises(UsageError):
        load_spec(b'{"center_multiplicity": 2}')
    with pytest.raises(UsageError, match="^malformed tree document: "
                       "repeated key 'branches'$"):
        load_spec(b'{"center_multiplicity": 2, "branches": [], '
                  b'"branches": []}')


@pytest.mark.parametrize("value", [2.7, 2.0, True, "3", float("inf"), None])
def test_spec_from_dict_rejects_non_integer_multiplicities(value):
    def doc():
        return spec_to_dict(TreeSpec(3, (BranchSpec(2, (2, 4)),
                                         BranchSpec(5, (3,)))))
    center, branch, leaf = doc(), doc(), doc()
    center["center_multiplicity"] = value
    branch["branches"][0]["multiplicity"] = value
    leaf["branches"][1]["leaf_multiplicities"][0] = value
    for bad in (center, branch, leaf):
        with pytest.raises(UsageError, match="is not an integer"):
            spec_from_dict(bad)


def test_spec_from_dict_needs_lists():
    doc = spec_to_dict(TreeSpec(3, (BranchSpec(2, (2,)), BranchSpec(2, (2,)))))
    with pytest.raises(UsageError, match="leaf_multiplicities is not a list"):
        spec_from_dict({**doc, "branches": [{"multiplicity": 2,
                                             "leaf_multiplicities": 2}]})
    with pytest.raises(UsageError, match="branches is not a list"):
        spec_from_dict({**doc, "branches": {"multiplicity": 2}})


@pytest.mark.parametrize("doc, message", [
    ([], "the document is not an object"),
    (None, "the document is not an object"),
    ({"center_multiplicity": 2}, "missing key 'branches' in the document"),
    ({"branches": []}, "missing key 'center_multiplicity' in the document"),
    ({"center_multiplicity": 2, "branches": [5]}, "branch 1 is not an object"),
    ({"center_multiplicity": 2,
      "branches": [{"multiplicity": 2}, {"leaf_multiplicities": [2]}]},
     "missing key 'multiplicity' in branch 2"),
    ({"center_multiplicity": 2,
      "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]},
                   {"multiplicity": 2, "leaf_multiplicites": [2]}]},
     "unknown key 'leaf_multiplicites' in branch 2"),
    ({"center_multiplicity": 2, "branches": [], "name": "P5"},
     "unknown key 'name' in the document"),
])
def test_spec_from_dict_names_the_field(doc, message):
    # the message names what is wrong, not Python's own TypeError or
    # KeyError text
    with pytest.raises(UsageError) as info:
        spec_from_dict(doc)
    assert str(info.value) == f"malformed tree document: {message}"
