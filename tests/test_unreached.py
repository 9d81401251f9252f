"""The top-level names of `src/orient4` that no command or demo reaches.

A name is reached when some module of the package other than `__init__`,
or a demo, loads it, or when it is a `cmd_*` function that `cli.main`
dispatches to by subcommand name.  `bench/` does not count: its tracer
names the functions it wraps as strings.  Whatever else is defined and
never reached is dead code, unless it is pinned below with its reason.
"""

import ast
import pathlib

from orient4 import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_CHANGE = "bench/ names it; waits on ROADMAP's 'One benchmark change'"

UNREACHED = {
    "CASE_IDS": "the recipe vocabulary, which tests and digests name",
    "extend_orientation": BENCHMARK_CHANGE,
    "find_bridge": BENCHMARK_CHANGE,
    "from_arcs": BENCHMARK_CHANGE,
    "multiplied_edges": BENCHMARK_CHANGE,
    "search_rank_range": BENCHMARK_CHANGE,
    "select_case": BENCHMARK_CHANGE,
    "spec_to_dict": "the spec format's writer, kept beside its reader",
}


def defined(tree):
    """The top-level functions, classes and assigned names of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets)


def loaded(tree):
    """Every name a module reads, bare or as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            yield node.attr


def dispatched():
    """`cmd_<name>` for each subcommand of the CLI's parser."""
    action = next(a for a in cli._parser()._actions if a.dest == "command")
    return {f"cmd_{name}" for name in action.choices}


def test_unreached_names_are_the_pinned_ones():
    package = sorted((ROOT / "src" / "orient4").glob("*.py"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert package and demos
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in package + demos}
    names = {name for path in package for name in defined(trees[path])
             if not (name.startswith("__") and name.endswith("__"))}
    reached = dispatched().union(*(
        loaded(tree) for path, tree in trees.items()
        if path.name != "__init__.py"))
    assert names - reached == set(UNREACHED)
