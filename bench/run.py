"""orient4 benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload construct|verify|oracle --seed N \
        --seconds S --trace 0|1

The program is imported from `src/` next to this directory and driven
in-process through `orient4.cli.main`, one request at a time (a closed loop
with one client).  Requests cycle through the seeded corpus until S seconds
have passed, and always at least once through all of it.  Every output of
the first pass is checked by `checker.py`, which shares no code with the
program; later passes must repeat the first pass's output byte for byte.

The machine this runs on changes speed by up to 1.7x from one minute to the
next, under load from other processes.  So after every request the runner
times a fixed pure-Python loop (the probe), and the end-to-end times are
wall times scaled to the speed at which the probe takes REFERENCE_PROBE_S:
each request by the median of the five probes nearest it in time.  The
unscaled figures are printed on the line before the result.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per layer with --trace 1).  The line
before it holds the stdout digest, corpus summary and provenance.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checker
import corpus
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
PROBE_ITERATIONS = 20000
REFERENCE_PROBE_S = 0.001
_ELAPSED = re.compile(r"(strong, )\d+\.\d+s$", re.M)
_EXAMINED = re.compile(r"^examined (\d+) assignments", re.M)


def import_cli():
    """orient4.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        from orient4 import cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import orient4 from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: orient4 was imported from {cli.__file__}, "
                 f"not from {SRC}")
    return cli


def probe():
    """Seconds this machine takes, right now, for a fixed slice of work."""
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return perf_counter() - t0


def scaled(seconds, probes):
    """`seconds` at the reference speed, given the probes taken around it."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def call(cli, argv):
    """Run one CLI request; (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:   # a crash is a failed request, not ours
            code = f"crash: {type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


def masked(text):
    """Stdout with the oracle's elapsed seconds masked."""
    return _ELAPSED.sub(r"\1<s>", text)


def digest(text):
    return hashlib.sha256(masked(text).encode()).hexdigest()


def materialise(requests, work):
    """Write each request's files under `work`; its argv with real paths."""
    argvs = []
    for req in requests:
        where = work / req.name
        where.mkdir()
        for fname, text in req.files.items():
            (where / fname).write_text(text, encoding="utf-8")
        argvs.append([str(where / a) if a in req.files else a
                      for a in req.argv])
    return argvs


def warmup_request(workload, requests):
    """A tiny request of the workload's kind for warm-up and set-up time."""
    if workload == "oracle":
        return corpus.Request("warmup", ["oracle", "--bipartite", "2", "3"],
                              {}, 6, lambda out: None)
    if workload == "construct":
        spec = {"center_multiplicity": 2, "branches": [
            {"multiplicity": 2, "leaf_multiplicities": [2]}] * 2}
        return corpus.Request(
            "warmup", ["construct", "spec.json", "--verify"],
            {"spec.json": json.dumps(spec)}, corpus.edge_count(spec),
            lambda out: checker.check_construct(spec, out))
    small = min(requests, key=lambda r: r.edges)
    return corpus.Request("warmup", small.argv, small.files, small.edges,
                          small.check)


def setup_seconds(argv):
    """Median time, scaled and unscaled, for a fresh interpreter to import
    orient4.cli and serve one tiny request."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from orient4 import cli; sys.exit(cli.main(sys.argv[2:]))")
    raw, times = [], []
    for _ in range(SETUP_RUNS):
        before = probe()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), *argv],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=True, timeout=120)
        raw.append(perf_counter() - t0)
        times.append(scaled(raw[-1], [before, probe()]))
    return statistics.median(times), statistics.median(raw)


class Log:
    """What the requests of one run did, in order."""

    def __init__(self, n):
        self.n = n
        self.first = []     # (code, stdout, stderr) of the first pass
        self.rows = []      # (corpus index, seconds, code, digest)
        self.probes = []    # probe seconds after each row

    def record(self, j, seconds, code, out, err):
        if len(self.first) < self.n:
            self.first.append((code, out, err))
        self.rows.append((j, seconds, code, digest(out)))


def run_passes(cli, argvs, log, until=None):
    """Go through the corpus once, and on round it while the perf_counter
    clock is before `until`.  Returns the busy seconds."""
    busy = 0.0
    n = len(argvs)
    i = 0
    while i < n or (until is not None and perf_counter() < until):
        seconds, code, out, err = call(cli, argvs[i % n])
        busy += seconds
        log.record(i % n, seconds, code, out, err)
        log.probes.append(probe())
        i += 1
    return busy


def verdicts(requests, log):
    """Per corpus index: None when the first-pass output is right, else a
    reason.  Also whether every output the program printed was right."""
    first = []
    outputs_right = True
    for req, (code, out, err) in zip(requests, log.first):
        if code != 0:
            first.append(f"exit {code}: {err.strip()[:200]}")
            continue
        why = req.check(out)
        outputs_right &= why is None
        first.append(why)
    want = [digest(out) for _, out, _ in log.first]
    rows_ok = []
    for j, _, code, dig in log.rows:
        same = dig == want[j]
        outputs_right &= same or code != 0
        rows_ok.append(first[j] is None and code == 0 and same)
    return first, rows_ok, outputs_right


def instances_ok(n, log, rows_ok):
    """Per corpus index: whether every request made for it succeeded."""
    good = [True] * n
    for (j, _, _, _), ok in zip(log.rows, rows_ok):
        good[j] &= ok
    return good


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(requests, log, rows_ok, row_seconds):
    """Rates and latencies from per-row request times.  Each corpus instance
    is timed by the median of its samples, which keeps a burst of load out
    of the figures; rates and percentiles are taken over those medians.  A
    failed instance counts as slower than any limit in the percentiles and
    does no work in the rates."""
    samples = [[] for _ in requests]
    for (j, _, _, _), seconds in zip(log.rows, row_seconds):
        samples[j].append(seconds)
    good = instances_ok(len(requests), log, rows_ok)
    busy = edges = assignments = 0.0
    lat = []
    for req, runs, ok, (_, out, _) in zip(requests, samples, good, log.first):
        typical = statistics.median(runs)
        busy += typical
        lat.append(typical if ok else math.inf)
        if ok:
            edges += req.edges
            m = _EXAMINED.search(out)
            assignments += int(m.group(1)) if m else 1
    lat.sort()
    return {
        "edges_per_s": (edges / busy, "1/s"),
        "assignments_per_s": (assignments / busy, "1/s"),
        "p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
        "p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
    }


def provenance(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "orient4").glob("*.py")))
    return {"seed": seed, "src_lines": src_lines,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.CORPORA))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    requests = corpus.CORPORA[args.workload](args.seed)
    warm = warmup_request(args.workload, requests)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        work = Path(tmp)
        argvs = materialise(requests, work)
        (warm_argv,) = materialise([warm], work)
        setup_s, setup_raw = setup_seconds(warm_argv)
        _, code, out, err = call(cli, warm_argv)
        if code != 0 or warm.check(out):
            sys.exit(f"bench: warm-up request failed: {code} {err.strip()}")

        log = Log(len(requests))
        absent = []
        if args.trace:
            # untraced and traced passes alternate, so that drift in the
            # machine's speed falls on both sides of the overhead ratio
            tracer = tracing.Tracer()
            traced_rows = []
            untraced = traced = 0.0
            passes = 0
            until = perf_counter() + args.seconds
            while passes == 0 or perf_counter() < until:
                untraced += run_passes(cli, argvs, log)
                start = len(log.rows)
                tracer.install()
                try:
                    traced += run_passes(cli, argvs, log)
                finally:
                    tracer.uninstall()
                traced_rows += log.rows[start:]
                passes += 1
            absent = tracer.absent
        else:
            run_passes(cli, argvs, log, until=perf_counter() + args.seconds)

    first, rows_ok, outputs_right = verdicts(requests, log)
    if args.trace:
        stdout_bytes = sum(len(log.first[j][1].encode())
                           for j, _, _, _ in traced_rows)
        metrics = tracing.layer_metrics(tracer.spans, passes, stdout_bytes,
                                        traced / untraced)
        unscaled = {}
    else:
        p = log.probes
        row_seconds = [scaled(seconds, p[max(0, k - 2):k + 3])
                       for k, (_, seconds, _, _) in enumerate(log.rows)]
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            **end_to_end(requests, log, rows_ok, row_seconds),
            "fail_ratio": ((sum(1 for why in first if why) + 1)
                           / (len(first) + 1), "ratio"),
        }
        unscaled = {k: v for k, (v, _) in end_to_end(
            requests, log, rows_ok, [r[1] for r in log.rows]).items()}
        unscaled["setup_s"] = setup_raw
        unscaled["probe_median_s"] = statistics.median(p)

    n = len(log.rows)
    info = {
        "workload": args.workload, "trace": args.trace,
        "stdout_sha256": hashlib.sha256("".join(
            masked(out) for _, out, _ in log.first).encode()).hexdigest(),
        "requests": n, "passes": round(n / len(requests), 3),
        "busy_s": sum(seconds for _, seconds, _, _ in log.rows),
        "p90_instances_beyond": len(requests) - math.ceil(0.9 * len(requests)),
        "fail_ratio_raw": sum(1 for why in first if why) / len(first),
        "failures": [f"{requests[j].name} [{requests[j].info.get('recipe', '')}]"
                     f": {why}" for j, why in enumerate(first) if why][:20],
        "absent": absent,
        "unscaled": unscaled,
        "corpus": corpus.summary(requests),
        "provenance": provenance(args.seed),
    }
    # attempted and failed count corpus instances, not requests: how many
    # requests fit in the run depends on the machine's speed, the corpus
    # does not
    good = instances_ok(len(requests), log, rows_ok)
    result = {"correct": outputs_right, "attempted": len(good),
              "failed": good.count(False),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(info))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
