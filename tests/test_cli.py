"""CLI surface: exit codes, formats, and round trips."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orient4 import build, cli, digraph, tree
from orient4.cli import main


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def c1_doc():
    return {"center_multiplicity": 2,
            "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]},
                         {"multiplicity": 2, "leaf_multiplicities": [2]},
                         {"multiplicity": 2, "leaf_multiplicities": []}]}


def c0_doc():
    return {"center_multiplicity": 3,
            "branches": [{"multiplicity": 2, "leaf_multiplicities": [2, 3]},
                         {"multiplicity": 2, "leaf_multiplicities": [2]},
                         {"multiplicity": 2, "leaf_multiplicities": []}]}


def gap_doc():
    return {"center_multiplicity": 4,
            "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]}] * 4
            + [{"multiplicity": 3, "leaf_multiplicities": [2]}] * 3}


def test_classify_c1_exits_zero(tmp_path, capsys):
    path = write_spec(tmp_path, c1_doc())
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "C1 (orientation number 5), rule Prop3.2" in out


def test_classify_json(tmp_path, capsys):
    path = write_spec(tmp_path, c0_doc())
    assert main(["classify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "C0"
    assert doc["orientation_number"] == 4
    assert doc["rule"] == "Prop3.5"


def test_classify_gap_reports_bounds(tmp_path, capsys):
    path = write_spec(tmp_path, gap_doc())
    assert main(["classify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "UnknownGap"
    assert doc["gap_detail"] == {"necessary_bound_holds": True,
                                 "sufficient_bound_holds": False,
                                 "k_witness": None}


def test_construct_refusals(tmp_path, capsys):
    assert main(["construct", write_spec(tmp_path, c1_doc())]) == 1
    assert "rule Prop3.2" in capsys.readouterr().err
    assert main(["construct", write_spec(tmp_path, gap_doc())]) == 1
    assert "open case" in capsys.readouterr().err


def test_construct_verify_roundtrip(tmp_path, capsys):
    spec_path = write_spec(tmp_path, c0_doc())
    assert main(["construct", spec_path]) == 0
    edges = capsys.readouterr().out
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(edges)
    assert main(["verify", spec_path, str(edge_path)]) == 0
    out = capsys.readouterr().out
    assert "diameter 4" in out and "strong" in out and "edges match" in out


# a name `construct` prints, and the same vertex written another way
@pytest.mark.parametrize("name, written", [
    ("c.1", "c.0_1"), ("b1.1", "b+1.1"), ("l1.1.2", "l1.1. 2"),
    ("c.3", "c.\u0663"), ("c.1", "c.01")])
def test_verify_takes_names_only_as_printed(tmp_path, capsys, name, written):
    spec_path = write_spec(tmp_path, c0_doc())
    assert main(["construct", spec_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    j = next(j for j, line in enumerate(lines) if name in line.split(" -> "))
    tail, head = (written if end == name else end
                  for end in lines[j].split(" -> "))
    lines[j] = f"{tail} -> {head}"
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", spec_path, str(edge_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: arc {tail}->{head} is not an edge of the multiplied graph\n")


def test_construct_output_is_byte_stable(tmp_path, capsys):
    spec_path = write_spec(tmp_path, c0_doc())
    main(["construct", spec_path, "--explain"])
    first = capsys.readouterr().out
    main(["construct", spec_path, "--explain"])
    assert capsys.readouterr().out == first


def test_construct_dot(tmp_path, capsys):
    spec_path = write_spec(tmp_path, c0_doc())
    assert main(["construct", spec_path, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_construct_json_explains(tmp_path, capsys):
    spec_path = write_spec(tmp_path, c0_doc())
    assert main(["construct", spec_path, "--json", "--explain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diameter"] == 4
    assert doc["strong"] is True
    assert doc["explain"]["case"].startswith("P35")


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["classify", str(bad)]) == 2
    capsys.readouterr()
    missing = write_spec(tmp_path, {"center_multiplicity": 2}, "m.json")
    assert main(["classify", missing]) == 2
    assert capsys.readouterr().err == ("error: malformed tree document: "
                                       "missing key 'branches' in the "
                                       "document\n")
    # a document or a branch that is not a JSON object is named as such
    for doc, what in (([], "the document"),
                      ({"center_multiplicity": 2, "branches": [5]},
                       "branch 1")):
        assert main(["classify", write_spec(tmp_path, doc, "o.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: malformed tree document: {what} is not an object\n"
    # a misspelt key is named, not read as an absent optional one, and a
    # repeated key is not resolved to its last value
    branch = '{"multiplicity": 2, "leaf_multiplicities": [2]}'
    for text, message in (
            ('{"center_multiplicity": 2, "branches": [%s, '
             '{"multiplicity": 2, "leaf_multiplicites": [2]}]}' % branch,
             "unknown key 'leaf_multiplicites' in branch 2"),
            ('{"center_multiplicity": 2, "branches": [%s, '
             '{"multiplicity": 2, "multiplicity": 3, '
             '"leaf_multiplicities": [2]}]}' % branch,
             "repeated key 'multiplicity'")):
        keyed = tmp_path / "k.json"
        keyed.write_text(text)
        assert main(["classify", str(keyed)]) == 2
        assert capsys.readouterr().err == \
            f"error: malformed tree document: {message}\n"
    invalid = write_spec(tmp_path, {
        "center_multiplicity": 1,
        "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]},
                     {"multiplicity": 2, "leaf_multiplicities": [2]}]},
        "i.json")
    assert main(["classify", invalid]) == 2
    capsys.readouterr()
    # two output formats asked for at once
    c0 = write_spec(tmp_path, c0_doc(), "c0.json")
    assert main(["construct", c0, "--json", "--format", "dot"]) == 2
    assert capsys.readouterr() == \
        ("", "error: give --json or --format dot, not both\n")
    # more digits than Python 3.11 converts from text
    huge = tmp_path / "huge.json"
    huge.write_text('{"center_multiplicity": %s, "branches": []}'
                    % ("9" * 5000))
    assert main(["classify", str(huge)]) == 2
    capsys.readouterr()
    # nested deeper than the JSON parser goes, for every command that
    # reads a spec
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (["classify"], ["construct"], ["verify", str(deep)],
                 ["oracle"]):
        assert main(argv[:1] + [str(deep)] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON")


def test_construction_failure_exits_three(tmp_path, capsys):
    # (s; |A2|,|A3|,|A4+|,|E|) = (4; 3,2,1,0) is C0 by Prop3.12b, but the
    # P312 half-set schedule cannot be completed for it: an internal
    # failure, not malformed input
    doc = {"center_multiplicity": 4,
           "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]}] * 3
           + [{"multiplicity": 3, "leaf_multiplicities": [2]}] * 2
           + [{"multiplicity": 4, "leaf_multiplicities": [2]}]}
    spec_path = write_spec(tmp_path, doc)
    assert main(["classify", spec_path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "C0"
    assert main(["construct", spec_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal failure" in captured.err


def test_oracle_cli(tmp_path, capsys):
    spec_path = write_spec(tmp_path, {
        "center_multiplicity": 2,
        "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]},
                     {"multiplicity": 2, "leaf_multiplicities": [2]}]})
    assert main(["oracle", spec_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orientation_number"] == 4
    assert doc["orientations_examined"] == 1 << 16


def test_oracle_budget_refusal_exit_one(tmp_path, capsys):
    spec_path = write_spec(tmp_path, {
        "center_multiplicity": 3,
        "branches": [{"multiplicity": 3, "leaf_multiplicities": [3, 3]},
                     {"multiplicity": 3, "leaf_multiplicities": [3, 3]}]})
    assert main(["oracle", spec_path]) == 1
    assert "refused" in capsys.readouterr().err


def test_construct_and_verify_refuse_over_edge_budget(tmp_path, capsys,
                                                      monkeypatch):
    # 10**9 copies of one branch: refused from the spec's edge count alone;
    # the per-edge stages are replaced so a missing check fails fast
    def per_edge_stage(*args):
        raise AssertionError("reached a per-edge stage")

    monkeypatch.setattr(build, "construct_optimal", per_edge_stage)
    monkeypatch.setattr(digraph, "from_edge_list", per_edge_stage)
    doc = c0_doc()
    doc["branches"][0]["multiplicity"] = 10 ** 9
    spec_path = write_spec(tmp_path, doc)
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text("c.1 -> b1.1\n")
    start = time.perf_counter()
    assert main(["construct", spec_path]) == 1
    assert "edge budget exceeded" in capsys.readouterr().err
    assert main(["verify", spec_path, str(edge_path)]) == 1
    assert "edge budget exceeded" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_verify_refuses_undecodable_edge_list(tmp_path, capsys):
    spec_path = write_spec(tmp_path, c0_doc())
    edge_path = tmp_path / "edges.txt"
    edge_path.write_bytes(b"\xff c.1 -> b1.1\n")
    assert main(["verify", spec_path, str(edge_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: edge list is not valid UTF-8: ")


def test_verify_refuses_an_edge_list_over_the_byte_bound(tmp_path, capsys,
                                                          monkeypatch):
    spec_path = write_spec(tmp_path, c0_doc())
    assert main(["construct", spec_path]) == 0
    edges = capsys.readouterr().out.encode()
    edge_path = tmp_path / "edges.txt"
    edge_path.write_bytes(edges)
    monkeypatch.setattr(cli, "MAX_EDGE_LIST_BYTES", len(edges))
    assert main(["verify", spec_path, str(edge_path)]) == 0
    capsys.readouterr()

    # one byte more is refused before it is decoded or parsed
    def parse(*args):
        raise AssertionError("parsed an edge list over the bound")

    monkeypatch.setattr(digraph, "from_edge_list", parse)
    edge_path.write_bytes(edges + b"\xff")
    assert main(["verify", spec_path, str(edge_path)]) == 1
    assert capsys.readouterr().err == (
        f"refused: edge list exceeds the bound {len(edges)} bytes\n")


def test_spec_commands_refuse_a_spec_over_the_byte_bound(tmp_path, capsys,
                                                        monkeypatch):
    # the most branches MAX_EDGES allows, printed with indent 8, is served
    doc = {"center_multiplicity": 2,
           "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]}] * 2
           + [{"multiplicity": 2, "leaf_multiplicities": []}] * 24_996}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc, indent=8))
    assert tree.edge_count(tree.spec_from_dict(doc)) == cli.MAX_EDGES
    assert path.stat().st_size < cli.MAX_SPEC_BYTES
    assert main(["classify", str(path)]) == 0
    # padded with spaces to exactly the bound, a valid spec still loads
    text = json.dumps(c0_doc()).encode()
    path.write_bytes(text + b" " * (cli.MAX_SPEC_BYTES - len(text)))
    assert main(["classify", str(path)]) == 0
    capsys.readouterr()

    # one byte more is refused before it is decoded or parsed, by every
    # command that reads a spec
    def parse(raw):
        raise AssertionError("parsed a spec over the bound")

    monkeypatch.setattr(tree, "load_spec", parse)
    with path.open("ab") as fh:
        fh.write(b" ")
    for argv in (["classify"], ["construct"], ["verify", str(path)],
                 ["oracle"]):
        assert main(argv[:1] + [str(path)] + argv[1:]) == cli.EXIT_REFUSAL
        assert capsys.readouterr().err == (
            f"refused: spec exceeds the bound {cli.MAX_SPEC_BYTES} bytes\n")


def test_verify_bounds_an_edge_list_read_from_a_pipe(tmp_path):
    spec_path = write_spec(tmp_path, c0_doc())
    src = pathlib.Path(cli.__file__).parents[1]
    code = ("import sys; from orient4 import cli; "
            "cli.MAX_EDGE_LIST_BYTES = 100; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", spec_path, "/dev/stdin"],
        input=b"c.1 -> b1.1\n" * 1000, capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr == b"refused: edge list exceeds the bound 100 bytes\n"


# Runs `cli.main` on each argv in argv[2] (JSON) in a fresh interpreter;
# with argv[1] == "block", numpy cannot be imported there.  Prints, as
# JSON, the watched modules loaded by `import orient4.cli` and, per call,
# its exit code, its stdout, its stderr and the watched modules loaded
# after it.  Watched are numpy's modules, and `dataclasses` and `inspect`
# (which cost a cold start its `ast`, `dis` and `tokenize` too), unless
# the bare interpreter had already loaded them.
COLD_START = """
import sys
bare = set(sys.modules)
import contextlib, io, json
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from orient4 import cli
def loaded():
    return sorted(name for name, module in sys.modules.items()
                  if (name.partition(".")[0] == "numpy"
                      or name in ("dataclasses", "inspect"))
                  and module is not None and name not in bare)
at_import, runs = loaded(), []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue(), loaded()])
print(json.dumps({"at_import": at_import, "runs": runs}))
"""

# the oracle's elapsed seconds, masked as bench/run.py masks them
ELAPSED = re.compile(r"(strong, )\d+\.\d+s$", re.M)


def _fresh_runs(mode, argvs):
    src = pathlib.Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, mode, json.dumps(argvs)],
        capture_output=True, check=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(proc.stdout)


def _in_process_runs(capsys, argvs):
    runs = []
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        runs.append([code, out, err])
    return runs


def test_every_command_but_the_oracle_runs_without_numpy(tmp_path, capsys):
    spec_path = write_spec(tmp_path, c0_doc())
    assert main(["construct", spec_path]) == 0
    witness = capsys.readouterr().out
    lines = witness.splitlines(keepends=True)
    tail, head = lines[0].split()[::2]   # the center edge c.1 -- b1.1
    edge_lists = {"witness": witness,
                  "flipped": f"{head} -> {tail}\n" + "".join(lines[1:]),
                  "unknown": witness + "c.1 -> x.1\n",
                  "repeated": witness + lines[0],
                  "missing": "".join(lines[1:])}
    for name, text in edge_lists.items():
        (tmp_path / f"{name}.txt").write_text(text)
    argvs = [["classify", spec_path], ["classify", spec_path, "--json"],
             ["construct", spec_path, "--verify"],
             ["construct", spec_path, "--json", "--explain"],
             ["construct", spec_path, "--format", "dot"],
             ["sperner", "kappa", "--n", "6", "--r", "3", "--m", "17",
              "--json"],
             ["sperner", "shadow", "--n", "5", "--k", "3", "--m", "4"],
             ["sperner", "squashed", "--n", "5", "--k", "3"]]
    argvs += [["verify", spec_path, str(tmp_path / f"{name}.txt")]
              for name in edge_lists]
    fresh = _fresh_runs("block", argvs)
    runs = fresh["runs"]
    expected = _in_process_runs(capsys, argvs)
    assert [run[:3] for run in runs] == expected
    # neither the import nor any of these commands loads a watched module
    assert fresh["at_import"] == [] and [run[3] for run in runs] == \
        [[]] * len(argvs)
    assert all(code == 0 and err == "" for code, _, err in expected[:-3])
    assert [out for _, out, _ in expected[-5:-3]] == [
        "diameter 4, strong, edges match\n",
        "diameter 6, strong, edges match\n"]
    assert expected[-3:] == [
        [2, "", "error: arc c.1->x.1 is not an edge of the multiplied "
                "graph\n"],
        [2, "", "error: edge c.1 -- b1.1 assigned twice\n"],
        [2, "", "error: 1 edge(s) left unoriented, e.g. c.1 -- b1.1\n"]]


def test_oracle_loads_numpy_on_first_use(capsys):
    argvs = [["oracle", "--bipartite", "2", "3"]]
    fresh = _fresh_runs("load", argvs)
    assert fresh["at_import"] == []
    [[code, out, err, loaded]] = fresh["runs"]
    [[code_in, out_in, err_in]] = _in_process_runs(capsys, argvs)
    assert [code, ELAPSED.sub(r"\1<s>", out), err] == \
        [code_in, ELAPSED.sub(r"\1<s>", out_in), err_in]
    assert code == 0 and "numpy" in loaded


def test_oracle_bipartite(capsys):
    assert main(["oracle", "--bipartite", "2", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orientation_number"] == 4


def test_oracle_spec_with_bipartite_is_refused_before_search(
        tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched despite conflicting arguments")
    monkeypatch.setattr(cli.oracle, "orientation_number", no_search)
    monkeypatch.setattr(cli.oracle, "bipartite_orientation_number",
                        no_search)
    spec_path = write_spec(tmp_path, {
        "center_multiplicity": 2,
        "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]},
                     {"multiplicity": 2, "leaf_multiplicities": [2]}]})
    assert main(["oracle", spec_path, "--bipartite", "2", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: give a spec file or --bipartite P Q, not both\n"


def test_oracle_without_an_instance_is_a_usage_error(capsys):
    assert main(["oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need a spec file or --bipartite P Q\n"


@pytest.mark.parametrize("arcs, want", [
    ("constructed", '{\n  "diameter": 4,\n  "edges_match": true,\n'
                    '  "strong": true\n}\n'),
    # every edge from parent to child: the leaf copies are sinks
    ("parent to child", '{\n  "diameter": null,\n  "edges_match": true,\n'
                        '  "strong": false\n}\n'),
])
def test_verify_json(tmp_path, capsys, arcs, want):
    spec_path = write_spec(tmp_path, c0_doc())
    spec = tree.spec_from_dict(c0_doc())
    d = (build.construct_optimal(spec).orientation if arcs == "constructed"
         else digraph.Orientation(spec, (0,) * tree.edge_count(spec)))
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(digraph.to_edge_list(d))
    assert main(["verify", spec_path, str(edge_path), "--json"]) == 0
    assert capsys.readouterr().out == want


def test_construct_verify_roundtrip_over_corpus(tmp_path, capsys):
    corpus = [
        {"center_multiplicity": 2,
         "branches": [{"multiplicity": 4, "leaf_multiplicities": [2, 2]},
                      {"multiplicity": 4, "leaf_multiplicities": [2]},
                      {"multiplicity": 2, "leaf_multiplicities": []}]},
        {"center_multiplicity": 4,
         "branches": [{"multiplicity": 3, "leaf_multiplicities": [2]}] * 6
         + [{"multiplicity": 5, "leaf_multiplicities": [3]}] * 2},
        {"center_multiplicity": 5,
         "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]}] * 6
         + [{"multiplicity": 3, "leaf_multiplicities": [2]}] * 7},
        {"center_multiplicity": 3,
         "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]},
                      {"multiplicity": 3, "leaf_multiplicities": [4]},
                      {"multiplicity": 6, "leaf_multiplicities": [2, 2]},
                      {"multiplicity": 2, "leaf_multiplicities": []}]},
    ]
    for i, doc in enumerate(corpus):
        spec_path = write_spec(tmp_path, doc, f"spec{i}.json")
        assert main(["construct", spec_path]) == 0
        edges = capsys.readouterr().out
        edge_path = tmp_path / f"edges{i}.txt"
        edge_path.write_text(edges)
        assert main(["verify", spec_path, str(edge_path)]) == 0
        assert "diameter 4" in capsys.readouterr().out


def test_sperner_subcommands(capsys):
    assert main(["sperner", "kappa", "--n", "6", "--r", "3", "--m", "13"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["sperner", "squashed", "--n", "5", "--k", "3"]) == 0
    out = capsys.readouterr().out.split()
    assert out[:4] == ["123", "124", "134", "234"]
    assert main(["sperner", "shadow", "--n", "5", "--k", "3", "--m", "4"]) == 0
    assert "|shadow| = 6" in capsys.readouterr().out


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


LEVEL_5_3 = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5],
             [1, 3, 5], [2, 3, 5], [1, 4, 5], [2, 4, 5], [3, 4, 5]]
SHADOW_OF_FIRST_4 = [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4]]

SPERNER_STDOUT = [
    ("kappa --n 6 --r 3 --m 13", "0\n"),
    ("kappa --n 6 --r 3 --m 13 --json",
     _json_text({"kappa": 0, "kappa_star": 0})),
    ("kappa --n 6 --r 3 --m 17 --json",
     _json_text({"kappa": -2, "kappa_star": -2})),
    ("squashed --n 5 --k 3",
     "123 124 134 234 125 135 235 145 245 345\n"),
    ("squashed --n 5 --k 3 --json", _json_text({"level": LEVEL_5_3})),
    ("shadow --n 5 --k 3 --m 4",
     "|shadow| = 6 (cascade formula: 6)\n12 13 23 14 24 34\n"),
    ("shadow --n 5 --k 3 --m 4 --json",
     _json_text({"cascade_size": 6, "shadow": SHADOW_OF_FIRST_4,
                 "shadow_size": 6})),
]


@pytest.mark.parametrize("argv,stdout", SPERNER_STDOUT,
                         ids=[a for a, _ in SPERNER_STDOUT])
def test_sperner_stdout_is_pinned(capsys, argv, stdout):
    assert main(["sperner"] + argv.split()) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv", ["squashed --n -1 --k 0",
                                  "squashed --n 3 --k 5",
                                  "shadow --n 3 --k 5 --m 1",
                                  "kappa --n -2 --r 1 --m 0"])
def test_sperner_invalid_level_exits_two(capsys, argv):
    n, k = argv.split()[2], argv.split()[4]
    assert main(["sperner"] + argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid level n={n}, k={k}\n"


def _no_enumeration(*args):
    raise AssertionError("enumeration started")


# argv -> the one-line refusal, each raised before anything is enumerated
SPERNER_REFUSALS = {
    "squashed --n 30 --k 15": "C(30,15) sets exceed the bound 100000",
    "squashed --n 30 --k 15 --json": "C(30,15) sets exceed the bound 100000",
    "kappa --n 40 --r 20 --m 1000000000 --json":
        "1000000000 sets exceed the bound 100000",
    "kappa --n 40 --r 20 --m 100001": "100001 sets exceed the bound 100000",
    "shadow --n 40 --k 20 --m 100001": "100001 sets exceed the bound 100000",
    # n past MAX_CENTER: C(15000, 7500) has more digits than str() prints
    "squashed --n 15000 --k 7500": "n=15000 exceeds the bound 10000",
    "squashed --n 100000 --k 99999": "n=100000 exceeds the bound 10000",
    "shadow --n 15000 --k 7500 --m 5": "n=15000 exceeds the bound 10000",
    "kappa --n 1000000 --r 500000 --m 5": "n=1000000 exceeds the bound 10000",
}


def _assert_refused(capsys, argv, reason):
    assert main(["sperner"] + argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {reason}\n"


@pytest.mark.parametrize("argv", SPERNER_REFUSALS)
def test_sperner_refuses_more_than_max_sets(capsys, monkeypatch, argv):
    stubs = ["squashed_level", "first_m", "kappa", "kappa_star", "shadow",
             "shadow_size_kkt"]
    if SPERNER_REFUSALS[argv].startswith("n="):
        stubs.append("level_size")     # not even C(n, k) is computed
    for name in stubs:
        monkeypatch.setattr(cli.sperner, name, _no_enumeration)
    _assert_refused(capsys, argv, SPERNER_REFUSALS[argv])


MEMBER_REFUSALS = {
    "squashed --n 10000 --k 9999":
        "C(10000,9999) sets of 9999 members exceed the bound 1000000 members",
    "squashed --n 400 --k 398 --json":
        "C(400,398) sets of 398 members exceed the bound 1000000 members",
    # the shadow of the first 5 sets is 5 * 5000 - 10 sets: the cascade
    "shadow --n 10000 --k 5000 --m 5":
        "24990 sets of 4999 members exceed the bound 1000000 members",
}


@pytest.mark.parametrize("argv", MEMBER_REFUSALS)
def test_sperner_refuses_more_than_max_members(capsys, monkeypatch, argv):
    for name in ("squashed_level", "first_m", "shadow"):
        monkeypatch.setattr(cli.sperner, name, _no_enumeration)
    _assert_refused(capsys, argv, MEMBER_REFUSALS[argv])


def test_explain_is_bounded_by_members_at_a_large_center(tmp_path,
                                                          capsys):
    # (200; three (2,[2])): each half-set has 100 members, so the member
    # budget prints 10,000 whole sets of the C(200, 100)
    doc = {"center_multiplicity": 200,
           "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]}] * 3}
    path = write_spec(tmp_path, doc)
    assert main(["construct", path, "--verify", "--explain"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 8 * 2 ** 20
    assert "# verified: diameter 4, strong=True\n" in out
    line = next(x for x in out.splitlines() if x.startswith("# half_sets:"))
    sets, _, more = line.partition(" ... and ")
    shown = sets.split()[2:]
    assert len(shown) == cli.MAX_MEMBERS // 100
    assert all(x.count(",") == 99 for x in shown)
    assert int(more.split()[0]) + len(shown) == comb(200, 100)
    assert main(["construct", path, "--json", "--explain"]) == 0
    explain = json.loads(capsys.readouterr().out)["explain"]
    assert explain["half_sets"] == shown
    assert explain["half_sets_more"] == int(more.split()[0])


DEMO_DIGESTS = {
    "sperner_toolkit":
        "cc4b5ebe8569d20cec752f7666e0d13d7b6e2c18f88fe09937996d7d0bb7ab29",
    "classify_and_construct":
        "ff60b9fa6fa25a7c9739909f08e8fa17f9dc58feaf09b05dff20d59b6fd3e28a",
}


@pytest.mark.parametrize("name", DEMO_DIGESTS)
def test_demo_stdout_is_pinned(name):
    demo = pathlib.Path(__file__).parents[1] / "demos" / f"{name}.py"
    src = pathlib.Path(cli.__file__).parents[1]
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)},
                         ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[name]


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
        monkeypatch):
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "cmd_classify", lambda args: 7)
    assert main(["classify", "unused.json"]) == 7


def test_center_bound_refuses_before_classify(tmp_path, capsys):
    # C(s, ceil(s/2)) at these s has more digits than int-to-str allows;
    # the construct spec is under the edge budget
    doc = {"center_multiplicity": 20_000,
           "branches": [{"multiplicity": m, "leaf_multiplicities": [2]}
                        for m in (2, 2, 3)]}
    assert main(["classify", write_spec(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        "refused: center multiplicity 20000 exceeds the bound 10000\n")
    doc = {"center_multiplicity": 15_000,
           "branches": [{"multiplicity": 2, "leaf_multiplicities": [2]}] * 3}
    assert tree.edge_count(tree.spec_from_dict(doc)) == 90_012 \
        <= cli.MAX_EDGES
    assert main(["construct", write_spec(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "refused: center multiplicity 15000 exceeds the bound 10000\n")


@pytest.mark.parametrize("value", ["1e400", "2.7", "2.0", "true", '"3"'])
def test_non_integer_multiplicity_exits_two(tmp_path, capsys, value):
    path = tmp_path / "spec.json"
    path.write_text('{"center_multiplicity": %s, "branches": '
                    '[{"multiplicity": 2, "leaf_multiplicities": [2]}, '
                    '{"multiplicity": 2, "leaf_multiplicities": [2]}]}'
                    % value)
    assert main(["classify", str(path)]) == 2
    assert "is not an integer" in capsys.readouterr().err


ODD_VALUES = st.one_of(st.sampled_from((float("inf"), 2.7, True, 20_000,
                                        10 ** 30)),
                       st.booleans(), st.floats(), st.none(),
                       st.integers(-10 ** 30, 10 ** 30), st.text(max_size=2),
                       st.lists(st.integers(0, 3), max_size=2))
DAMAGE = ("none", "none", "center", "branches", "multiplicity", "leaf",
          "leaves", "extra keys", "document")


@st.composite
def documents(draw):
    """A well-formed spec document, then at most one field replaced by an
    odd value: bools, floats, negatives, huge ints, non-lists, extra keys."""
    small = st.integers(2, 5)
    doc = {"center_multiplicity": draw(st.one_of(
               small, st.integers(9_990, 10_010))),
           "branches": [{"multiplicity": draw(small),
                         "leaf_multiplicities": draw(st.lists(
                             small, min_size=int(j < 2), max_size=2))}
                        for j in range(draw(st.integers(2, 5)))]}
    damage, value = draw(st.sampled_from(DAMAGE)), draw(ODD_VALUES)
    first, last = doc["branches"][0], doc["branches"][-1]
    if damage == "center":
        doc["center_multiplicity"] = value
    elif damage == "branches":
        doc["branches"] = value
    elif damage == "multiplicity":
        first["multiplicity"] = value
    elif damage == "leaf":
        first["leaf_multiplicities"] = [2, value]
    elif damage == "leaves":
        last["leaf_multiplicities"] = value
    elif damage == "extra keys":
        doc["name"] = first["colour"] = value
    elif damage == "document":
        doc = value
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
@example(doc={"center_multiplicity": float("inf"), "branches": []})
@example(doc={"center_multiplicity": 20_000,
              "branches": [{"multiplicity": m, "leaf_multiplicities": [2]}
                           for m in (2, 2, 3)]})
def test_classify_exit_code_on_any_document(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) in (0, 1, 2)
    capsys.readouterr()
