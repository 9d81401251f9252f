"""Diameter-4 trees with vertex multiplicities.

A tree of diameter 4 has a unique center; its neighbours are `branches`
(1-based indices), and each branch may carry leaf children.  A `TreeSpec`
attaches a multiplicity to the center, to every branch, and to every leaf;
the multiplied graph replaces each vertex by that many independent copies,
with copies adjacent exactly when the originals were.

A vertex of the multiplied graph is an index in canonical order, and its
one name is the one the program prints (`vertex_names`): center copies
`c.x`, branch copies `b<i>.y`, and leaf copies `l<i>.<alpha>.z`, every
number in decimal from 1, with no sign or leading zero.  The table of
`_blocks` states this layout, vertex and edge order alike, once.
"""

from __future__ import annotations

import io
import json
from typing import NamedTuple

from .errors import UsageError


# ============================================================================
# Specs
# ============================================================================

class BranchSpec(NamedTuple):
    multiplicity: int
    leaf_multiplicities: tuple = ()

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_multiplicities)


class TreeSpec(NamedTuple):
    center_multiplicity: int
    branches: tuple

    @property
    def s(self) -> int:
        return self.center_multiplicity

    @property
    def deg_c(self) -> int:
        return len(self.branches)

    def branch(self, i: int) -> BranchSpec:
        """1-based branch access."""
        return self.branches[i - 1]


class NeighborPartition(NamedTuple):
    """Branch indices split by multiplicity class; `e` holds leaf branches."""

    a2: frozenset
    a3: frozenset
    a4plus: frozenset
    e: frozenset

    def counts(self):
        return len(self.a2), len(self.a3), len(self.a4plus), len(self.e)


def _prefix(role: str, i: int, alpha: int) -> str:
    """A vertex name without its copy number: c., b<i>. or l<i>.<alpha>."""
    return ("c." if role == "c" else f"b{i}." if role == "b"
            else f"l{i}.{alpha}.")


# ============================================================================
# Operations
# ============================================================================

def validate(spec: TreeSpec) -> list:
    """Diagnostics for a spec; empty list means the spec is a valid
    multiplicity assignment for a diameter-4 tree."""
    diags = []
    if spec.center_multiplicity < 2:
        diags.append(f"multiplicity < 2: center has {spec.center_multiplicity}")
    for i, b in enumerate(spec.branches, start=1):
        if b.multiplicity < 2:
            diags.append(f"multiplicity < 2: branch {i} has {b.multiplicity}")
        for alpha, lm in enumerate(b.leaf_multiplicities, start=1):
            if lm < 2:
                diags.append(f"multiplicity < 2: leaf {alpha} of branch {i} has {lm}")
    leafy = sum(1 for b in spec.branches if b.leaf_count > 0)
    if leafy < 2:
        diags.append(f"diameter < 4: only {leafy} branch(es) carry leaves, need 2")
    return diags


def require_valid(spec: TreeSpec) -> None:
    diags = validate(spec)
    if diags:
        raise UsageError("; ".join(diags))


def partition(spec: TreeSpec) -> NeighborPartition:
    """Split branch indices into multiplicity classes; leaf branches go to e."""
    a2, a3, a4, e = set(), set(), set(), set()
    for i, b in enumerate(spec.branches, start=1):
        if b.leaf_count == 0:
            e.add(i)
        elif b.multiplicity == 2:
            a2.add(i)
        elif b.multiplicity == 3:
            a3.add(i)
        else:
            a4.add(i)
    return NeighborPartition(frozenset(a2), frozenset(a3), frozenset(a4),
                             frozenset(e))


def _blocks(spec: TreeSpec) -> dict:
    """The one statement of the layout: (role, i, alpha) of each tree
    vertex -> (start, size, parent start, parent size, first edge).  The
    blocks come in canonical order, center, branches, leaves; a block's
    copies are indices start.., and its edges to its parent block are edge
    indices first.., parent copy outer, own copy inner.  The center has
    no parent, (-1, 0), and no edges."""
    s = spec.s
    blocks, n, m = {("c", 0, 0): (0, s, -1, 0, 0)}, s, 0
    for i, b in enumerate(spec.branches, start=1):
        t = b.multiplicity
        blocks[("b", i, 0)] = (n, t, 0, s, m)
        n, m = n + t, m + s * t
    for i, b in enumerate(spec.branches, start=1):
        up, t = blocks[("b", i, 0)][:2]
        for alpha, lm in enumerate(b.leaf_multiplicities, start=1):
            blocks[("l", i, alpha)] = (n, lm, up, t, m)
            n, m = n + lm, m + t * lm
    return blocks


def vertex_names(spec: TreeSpec) -> list:
    """The name of each vertex of the multiplied graph, as the program
    prints it, in canonical order: the block prefix and the copy number."""
    names = []
    for key, (_, size, _, _, _) in _blocks(spec).items():
        prefix = _prefix(*key)
        names += [prefix + str(x) for x in range(1, size + 1)]
    return names


def edge_pairs(spec: TreeSpec):
    """Each undirected edge of the multiplied graph once, as an index pair
    (parent end, child end) into `vertex_names` order, in the edge order
    `_blocks` states; plus the vertex count."""
    blocks = _blocks(spec).values()
    return ([(up + x, start + y) for start, size, up, up_size, _ in blocks
             for x in range(up_size) for y in range(size)],
            sum(size for _, size, *_ in blocks))


def multiplied_edges(spec: TreeSpec) -> list:
    """`edge_pairs` as (parent name, child name) pairs."""
    names = vertex_names(spec)
    return [(names[u], names[v]) for u, v in edge_pairs(spec)[0]]


def edge_count(spec: TreeSpec) -> int:
    total = 0
    for b in spec.branches:
        total += spec.s * b.multiplicity
        total += b.multiplicity * sum(b.leaf_multiplicities)
    return total


# ============================================================================
# JSON input format
# ============================================================================

def _integer(x):
    # bool is an int subclass, and int() would truncate 2.7 and fail on 1e400
    if type(x) is not int:
        raise TypeError(f"multiplicity {x!r} is not an integer")
    return x


def _list(x, what):
    if not isinstance(x, list):
        raise TypeError(f"{what} is not a list")
    return x


def _object(x, what, keys, optional=()):
    """Check that `x` is a JSON object with every key of `keys`, and no key
    but those and `optional`."""
    if not isinstance(x, dict):
        raise TypeError(f"{what} is not an object")
    for key in keys:
        if key not in x:
            raise TypeError(f"missing key {key!r} in {what}")
    for key in x:
        if key not in keys and key not in optional:
            raise TypeError(f"unknown key {key!r} in {what}")


def _unique(pairs):
    """`json.load`'s object hook: a dict, unless a key repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise TypeError(f"repeated key {max(keys, key=keys.count)!r}")
    return doc


def spec_from_dict(doc: dict) -> TreeSpec:
    """A spec from its JSON document; the document and every branch must be
    objects with their keys and no others, every multiplicity an integer
    (not a bool or a float), and every sequence a list."""
    try:
        _object(doc, "the document", ("center_multiplicity", "branches"))
        branches = []
        for i, b in enumerate(_list(doc["branches"], "branches"), 1):
            _object(b, f"branch {i}", ("multiplicity",), ("leaf_multiplicities",))
            mult = _integer(b["multiplicity"])
            leaves = _list(b.get("leaf_multiplicities", []),
                           "leaf_multiplicities")
            branches.append(BranchSpec(mult, tuple(map(_integer, leaves))))
        return TreeSpec(_integer(doc["center_multiplicity"]), tuple(branches))
    except TypeError as exc:
        raise UsageError(f"malformed tree document: {exc}") from exc


def spec_to_dict(spec: TreeSpec) -> dict:
    return {
        "center_multiplicity": spec.center_multiplicity,
        "branches": [
            {"multiplicity": b.multiplicity,
             "leaf_multiplicities": list(b.leaf_multiplicities)}
            for b in spec.branches],
    }


def load_spec(raw: bytes) -> TreeSpec:
    """A spec from the bytes of its JSON file, read as UTF-8 text with
    universal newlines, as `open(path, encoding="utf-8")` reads it."""
    try:
        doc = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),
                        object_pairs_hook=_unique)
    except (ValueError, RecursionError) as exc:
        # also undecodable bytes, over-long ints and too deep nesting
        raise UsageError(f"not valid JSON: {exc}") from exc
    except TypeError as exc:
        raise UsageError(f"malformed tree document: {exc}") from exc
    return spec_from_dict(doc)
