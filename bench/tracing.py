"""Spans recorded from outside the program, and the per-layer metrics.

`Tracer.install` replaces every binding of each wrapped function in every
loaded orient4 module (`build.diameter`, `cli.classify_spec`, ...), so
calls the program makes internally are captured too; `uninstall` puts the
originals back.  A wrapped function that no longer exists is reported in
`absent` instead of failing the run.  Untraced runs install nothing, so
they measure the program as it is.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer -> functions wrapped; span names are "<layer>.<function>"
TARGETS = {
    "cli": ("main", "cmd_construct", "cmd_verify", "cmd_oracle"),
    "tree": ("load_spec", "multiplied_edges"),
    "classify": ("classify", "select_case"),
    "sperner": ("kappa", "kappa_star", "squashed_level"),
    "build": ("construct_optimal", "reduce", "make_schedule",
              "build_base_orientation", "relabel_orientation"),
    "digraph": ("from_arcs", "from_edge_list", "eccentricities",
                "shortest_cycle_lengths", "diameter", "is_strong",
                "extend_orientation"),
    "oracle": ("orientation_number", "bipartite_orientation_number",
               "find_bridge", "search_rank_range"),
}

# ROADMAP construct stages, named by (caller, callee)
STAGES = {
    ("build.construct_optimal", "classify.classify"): "classify",
    ("build.construct_optimal", "classify.select_case"): "select_case",
    ("build.construct_optimal", "build.reduce"): "reduce",
    ("build.construct_optimal", "build.make_schedule"): "schedule",
    ("build.construct_optimal", "build.build_base_orientation"): "core_build",
    ("build.build_base_orientation", "digraph.shortest_cycle_lengths"):
        "core_checks",
    ("build.build_base_orientation", "digraph.diameter"): "core_checks",
    ("build.construct_optimal", "digraph.extend_orientation"): "lift",
    ("build.construct_optimal", "build.relabel_orientation"): "relabel",
    ("build.construct_optimal", "digraph.diameter"): "final_verify",
    ("build.construct_optimal", "digraph.is_strong"): "final_verify",
}
STAGE_NAMES = ("classify", "select_case", "reduce", "schedule", "core_build",
               "core_checks", "lift", "relabel", "final_verify")
SWEEPS = ("digraph.eccentricities", "digraph.shortest_cycle_lengths")


class Span:
    __slots__ = ("name", "parent", "start", "end", "size", "error")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.size = None     # len() of a sweep's result, or (examined, strong)
        self.error = None    # exception type name when the call raised


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if name in SWEEPS:
                span.size = len(result)
            elif name == "oracle.search_rank_range":
                span.size = (result.examined, result.strong_count)
            return result
        return traced

    def install(self):
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "orient4"
                                         or k.startswith("orient4."))]
        for layer, names in self.targets.items():
            home = sys.modules.get(f"orient4.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.end - s.start
    return own


def layer_metrics(spans, passes, stdout_bytes, overhead):
    """Per-layer metrics for one corpus pass (totals divided by `passes`)."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def secs(*names):
        return sum(s.end - s.start for n in names
                   for s in by_name.get(n, ())) / passes

    def layer_self(layer):
        return sum(own[id(s)] for s in spans
                   if s.name.startswith(layer + ".")) / passes

    stage = dict.fromkeys(STAGE_NAMES, 0.0)
    for s in spans:
        key = STAGES.get((s.parent.name if s.parent else None, s.name))
        if key:
            stage[key] += s.end - s.start
            if s.parent.parent is not None:
                outer = STAGES.get((s.parent.parent.name, s.parent.name))
                if outer:   # core checks are not core build
                    stage[outer] -= s.end - s.start

    sweeps = [s for n in SWEEPS for s in by_name.get(n, ())]
    searched = [s.size for s in by_name.get("oracle.search_rank_range", ())]
    examined = sum(e for e, _ in searched)
    strong = sum(k for _, k in searched)
    recheck = [s for n in ("digraph.diameter", "digraph.is_strong")
               for s in by_name.get(n, ())
               if s.parent is not None and s.parent.name == "cli.cmd_construct"]

    count, sec = "count", "s"
    m = {
        "tree.multiplied_edges.calls": (calls("tree.multiplied_edges"), count),
        "tree.multiplied_edges.s": (secs("tree.multiplied_edges"), sec),
        "tree.load_spec.s": (secs("tree.load_spec"), sec),
        "classify.classify.calls": (calls("classify.classify"), count),
        "classify.classify.s": (secs("classify.classify"), sec),
        "classify.select_case.s": (secs("classify.select_case"), sec),
        "sperner.kappa.calls": (calls("sperner.kappa"), count),
        "sperner.squashed_level.calls": (calls("sperner.squashed_level"),
                                         count),
        "sperner.s": (layer_self("sperner"), sec),
    }
    for key in STAGE_NAMES:
        m[f"build.stage.{key}_s"] = (stage[key] / passes, sec)
    m.update({
        "build.construct_errors": (
            sum(1 for s in by_name.get("build.construct_optimal", ())
                if s.error == "ConstructionError") / passes, count),
        "digraph.sweeps": (len(sweeps) / passes, count),
        "digraph.sweep_vertices": (sum(s.size or 0 for s in sweeps) / passes,
                                   count),
        "digraph.sweep_s": (secs(*SWEEPS), sec),
        "digraph.is_strong.calls": (calls("digraph.is_strong"), count),
        "digraph.from_arcs.s": (secs("digraph.from_arcs"), sec),
        "digraph.from_edge_list.s": (secs("digraph.from_edge_list"), sec),
        "digraph.cli_recheck_s": (
            sum(s.end - s.start for s in recheck) / passes, sec),
        "cli.self_s": (layer_self("cli"), sec),
        "cli.stdout_bytes": (stdout_bytes / passes, "bytes"),
        "oracle.assignments": (examined / passes, count),
        "oracle.strong_ratio": (strong / examined if examined else 0.0,
                                "ratio"),
        "oracle.find_bridge_s": (secs("oracle.find_bridge"), sec),
        "oracle.search_s": (secs("oracle.search_rank_range"), sec),
        "trace_overhead_ratio": (overhead, "ratio"),
    })
    return m
