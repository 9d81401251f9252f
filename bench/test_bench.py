"""Tests of the benchmark itself: checker, corpus and tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import contextlib
import io
from time import perf_counter

import pytest

import checker
import corpus
import tracing

RECIPES = {"P34", "P35_D1", "P35_D2", "P35_D3", "P35_D4", "P39", "P310",
           "P311", "P312", "P41", "P43_D1", "P43_D2", "P43_D3", "P411",
           "P413", "Thm16a"}


@pytest.fixture(scope="module")
def pinned():
    return corpus.load_pinned()


def witness(pinned, j=0):
    w = pinned["verify_witnesses"][j]
    names, edges = checker.multiplied_graph(w["spec"])
    bits = int(w["bits"], 16)
    arcs = [(v, u) if (bits >> k) & 1 else (u, v)
            for k, (u, v) in enumerate(edges)]
    return w["spec"], names, edges, arcs


def construct_stdout(arcs):
    return ("".join(f"{t} -> {h}\n" for t, h in arcs)
            + "# verified: diameter 4, strong=True\n")


def test_checker_accepts_a_witness(pinned):
    spec, _, _, arcs = witness(pinned)
    assert checker.check_construct(spec, construct_stdout(arcs)) is None


def test_checker_rejects_a_flip_to_diameter_over_4(pinned):
    spec, names, edges, arcs = witness(pinned)
    for k in range(len(arcs)):
        flipped = list(arcs)
        flipped[k] = arcs[k][::-1]
        dia = checker.diameter(checker.out_lists(names, edges, flipped))
        if dia is not None and dia > 4:
            break
    else:
        pytest.fail("no single flip gives a strong orientation of diameter > 4")
    why = checker.check_construct(spec, construct_stdout(flipped))
    assert why == f"diameter is {dia}, not 4"
    assert checker.check_verify(dia, f"diameter {dia}, strong, edges match\n") \
        is None
    assert checker.check_verify(4, f"diameter {dia}, strong, edges match\n")


def test_checker_rejects_a_missing_edge(pinned):
    spec, _, _, arcs = witness(pinned)
    why = checker.check_construct(spec, construct_stdout(arcs[1:]))
    assert why == "1 edge(s) not oriented"


def test_checker_diameter_of_a_directed_cycle():
    assert checker.diameter([[1], [2], [3], [0]]) == 3
    assert checker.diameter([[1], [], [0]]) is None


@pytest.mark.parametrize("workload", sorted(corpus.CORPORA))
def test_corpus_is_deterministic_per_seed(workload, pinned):
    def inputs(seed):
        return [(r.name, r.argv, r.files, r.edges)
                for r in corpus.CORPORA[workload](seed, pinned)]
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_construct_corpus_covers_recipes_sizes_and_parities(pinned):
    reqs = corpus.construct_corpus(3, pinned)
    assert {r.info["recipe"] for r in reqs} == RECIPES
    summary = corpus.summary(reqs)
    assert summary["edges_min"] <= 100 and summary["edges_max"] >= 5000
    assert summary["s_parities"] == ["even", "odd"]


def test_oracle_corpus_covers_verdicts_and_modes(pinned):
    reqs = corpus.oracle_corpus(3, pinned)
    assert {"C0", "C1"} <= {r.info["verdict"] for r in reqs}
    assert {r.info["symmetry"] for r in reqs} == {False, True}
    assert any("--bipartite" in r.argv for r in reqs)
    assert all(20 <= r.edges <= 24 for r in reqs)


def run_cli(cli, reqs, tmp_path):
    for r in reqs:
        argv = []
        for a in r.argv:
            if a in r.files:
                path = tmp_path / f"{r.name}-{a}"
                path.write_text(r.files[a])
                a = str(path)
            argv.append(a)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)


def test_traced_self_times_fit_in_wall_time(pinned, tmp_path):
    from orient4 import build, cli
    reqs = sorted(corpus.construct_corpus(1, pinned), key=lambda r: r.edges)
    reqs = reqs[50:60]
    original = build.diameter
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert build.diameter is not original
        t0 = perf_counter()
        run_cli(cli, reqs, tmp_path)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    own = tracing.self_times(tracer.spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) <= wall
    m = tracing.layer_metrics(tracer.spans, 1, 0, 1.0)
    assert m["classify.classify.calls"][0] >= len(reqs)
    assert m["build.stage.final_verify_s"][0] > 0
    assert m["digraph.cli_recheck_s"][0] > 0
    assert m["oracle.assignments"][0] == 0
    assert sum(m[f"build.stage.{s}_s"][0] for s in tracing.STAGE_NAMES) \
        <= sum(s.end - s.start for s in tracer.spans
               if s.name == "build.construct_optimal")


def test_tracer_reports_missing_functions_and_restores_bindings():
    from orient4 import build, digraph
    before = build.diameter
    tracer = tracing.Tracer(targets={"digraph": ("diameter", "no_such_fn"),
                                     "no_such_layer": ("main",)})
    tracer.install()
    try:
        assert build.diameter is not before
        assert digraph.diameter is build.diameter
    finally:
        tracer.uninstall()
    assert build.diameter is before and digraph.diameter is before
    assert tracer.absent == ["digraph.no_such_fn", "no_such_layer.main"]


def test_pinned_oracle_expectations_are_orientation_numbers(pinned):
    for o in pinned["oracle_specs"]:
        assert o["orientation_number"] == {"C0": 4, "C1": 5}[o["verdict"]]
        assert corpus.edge_count(o["spec"]) == o["edges"]
