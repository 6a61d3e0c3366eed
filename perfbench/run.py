"""Benchmark runner for qps.

    python3 perfbench/run.py --workload census|query-stream|cli-cold \\
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports qps from ``src/``.  The
workload runs in closed-loop passes until S seconds of passes have been
measured; every result is checked after its pass, outside the timed region.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, the observed census counts and the run's context.  The
exit code is 0 when every check passed, 1 when any failed and 2 when the
source tree is missing.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
traces the set-up and the passes of the first half of the time (spans around
each qps layer, see spans.py), then runs untraced passes for the rest; it
reports per-layer metrics for one set-up plus one traced pass, and the
tracing overhead: traced against untraced pass time.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

LAYER_TIMES = {
    "gf.build_field_s": "gf.build_field",
    "pg.space_build_s": "pg.space_build",
    "pg.incidence_s": "pg.incidence",
    "pg.lines_s": "pg.lines",
    "pg.codim2_flats_s": "pg.codim2_flats",
    "pg.subgeometry_s": "pg.subgeometry",
    "forms.canonical_s": "forms.canonical",
    "spectra.classify_s": "spectra.classify",
    "spectra.line_nucleus_s": "spectra.line_nucleus",
    "spectra.conditions_warm_s": "spectra.conditions_warm",
    "spectra.conditions_cold_s": "spectra.conditions_cold",
    "census.enumerate_s": "census.enumerate",
    "cli.parse_s": "cli.parse",
    "cli.format_s": "cli.format",
}
LAYER_COUNTERS = [
    "pg.incidence_bytes_computed",
    "census.enumerated_sets",
    "census.forms_scanned_computed",
    "census.candidates",
    "census.survivors",
]


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {k: "s" for k in LAYER_TIMES}
    names["pg.incidence_bytes_computed"] = "bytes"
    names["spectra.spectrum_calls"] = "count"
    names["spectra.spectrum_us_per_call"] = "us"
    for op in spans.SURGERIES:
        names[f"surgery.{op}_s"] = "s"
        names[f"surgery.{op}_calls"] = "count"
    names["census.enumerated_sets"] = "count"
    names["census.forms_scanned_computed"] = "count"
    names["census.survivor_check_s"] = "s"
    names["census.candidates"] = "count"
    names["census.survivors"] = "count"
    names["census.survivor_ratio"] = "ratio"
    names["census.candidates_per_s"] = "1/s"
    names["census.threads2_over_threads1"] = "ratio"
    names["cli.import_s"] = "s"
    for name in workloads.CLI_NAMES:
        names[f"cli.cmd.{name}_ms"] = "ms"
    names["trace.overhead_frac"] = "ratio"
    return names


def layer_metrics(acc: dict, extra: dict) -> dict[str, float]:
    totals = acc.get("totals", {})
    counters = acc.get("counters", {})

    def self_s(span):
        return totals.get(span, [0.0, 0.0, 0])[0]

    out = {name: 0.0 for name in per_layer_names()}
    for metric, span in LAYER_TIMES.items():
        out[metric] = self_s(span)
    for name in LAYER_COUNTERS:
        out[name] = counters.get(name, 0)
    calls = totals.get("spectra.spectrum", [0.0, 0.0, 0])
    out["spectra.spectrum_calls"] = calls[2]
    out["spectra.spectrum_us_per_call"] = calls[0] / calls[2] * 1e6 if calls[2] else 0.0
    for op in spans.SURGERIES:
        rec = totals.get(f"surgery.{op}", [0.0, 0.0, 0])
        out[f"surgery.{op}_s"] = rec[0]
        out[f"surgery.{op}_calls"] = rec[2]
    census_s = totals.get("census.census", [0.0, 0.0, 0])[1]
    out["census.survivor_check_s"] = census_s - acc.get("census_enumerate_s", 0.0)
    cands = counters.get("census.candidates", 0)
    out["census.survivor_ratio"] = counters.get("census.survivors", 0) / cands if cands else 0.0
    out["census.candidates_per_s"] = cands / census_s if census_s else 0.0
    out.update(extra)
    return out


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: always one measured sample.

    The census and cli-cold passes are a fixed list of unlike operations, so
    an interpolated percentile would mix two operations' times.
    """
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def context() -> dict:
    src = workloads.SRC / "qps"
    files = sorted(src.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def setup_samples(name: str, count: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    code = (
        "import sys; sys.path[:0] = [{!r}]; import workloads; "
        "print(workloads.setup_sample({!r}))"
    ).format(str(HERE), name)
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=workloads.child_env(), cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=170, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pkg = workloads.SRC / "qps"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no qps sources under {workloads.SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(pkg), quiet=1)
    sys.path.insert(0, str(workloads.SRC))

    wl = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)
    tracer = spans.Tracer()
    if trace:
        # installed from set-up to the last traced pass, so that the spans
        # of cached builds mark only real builds
        tracer.install()
    t0 = time.perf_counter()
    wl.setup()
    setup_times = [time.perf_counter() - t0]
    layers: dict = {}
    if trace:
        spans.merge(layers, tracer.summary())
    else:
        setup_times += setup_samples(args.workload, wl.setup_samples - 1)
    import qps

    if Path(qps.__file__).resolve().parent != pkg.resolve():
        print(f"error: qps imported from {qps.__file__}", file=sys.stderr)
        return 2
    wl.prepare(random.Random(args.seed))

    walls: list[float] = []
    traced_walls: list[float] = []
    latencies: list[float] = []
    op_seconds: dict[str, float] = {}
    attempted = failed = 0
    failures: list[str] = []
    pass_layers: dict = {}
    measured = 0.0
    k = 0
    # at least two untraced passes, so that passes can be compared
    while measured < args.seconds or len(walls) < 2:
        traced = trace and not walls and (not traced_walls or measured < args.seconds / 2)
        if not traced:
            tracer.uninstall()
        ops = wl.pass_ops(k, traced)
        records = []
        first = len(tracer.spans)
        before = dict(tracer.counters)
        start = time.perf_counter()
        for i, (label, thunk) in enumerate(ops):
            tracer.op = f"{k}:{i}"
            t = time.perf_counter()
            try:
                res, err = thunk(), None
            except Exception as exc:  # an op that raises counts as failed
                res, err = None, f"{type(exc).__name__}: {exc}"
            records.append((label, time.perf_counter() - t, res, err))
        wall = time.perf_counter() - start
        measured += wall
        if traced:
            spans.merge(
                pass_layers,
                tracer.summary(first, None, spans.counter_delta(tracer.counters, before)),
            )
            traced_walls.append(wall)
        else:
            walls.append(wall)
            latencies += [dt for _, dt, _, _ in records]
            op_seconds.update((label, dt) for label, dt, _, _ in records)
        for label, _, res, err in records:
            attempted += 1
            try:
                errs = [err] if err else wl.check(label, res)
            except Exception as exc:  # a result the checks cannot read is wrong
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            if errs:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{label}: {'; '.join(errs)}")
        k += 1

    try:
        run_errors = wl.final_checks(op_seconds)
    except Exception as exc:  # e.g. an operation that never returned a result
        run_errors = [f"run checks raised {type(exc).__name__}: {exc}"]
    correct = failed == 0 and not run_errors

    if trace:
        n = len(traced_walls)
        children = getattr(wl, "child_traces", [])  # traced CLI processes
        for child in children:
            spans.merge(pass_layers, child)
        spans.merge(layers, pass_layers, 1.0 / n)
        extra = dict(wl.extra_metrics())
        # the first pass fills the caches; leave it out when there are later ones
        extra["trace.overhead_frac"] = (
            statistics.median(traced_walls[1:] or traced_walls) / statistics.median(walls) - 1
        )
        extra["cli.import_s"] = sum(c["import_s"] for c in children) / n
        if args.workload == "cli-cold":
            for name in workloads.CLI_NAMES:
                extra[f"cli.cmd.{name}_ms"] = op_seconds[name] * 1000
        values = layer_metrics(layers, extra)
        units = per_layer_names()
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "op_p50_ms": percentile(latencies, 50) * 1000,
            "op_p99_ms": percentile(latencies, 99) * 1000,
        }
        units = END_TO_END
    if trace:
        workloads.WORK.mkdir(exist_ok=True)
        tracer.dump(str(workloads.WORK / f"spans-{args.workload}-{args.seed}.jsonl"))

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops; pass seconds "
          f"untraced {[round(w, 3) for w in walls]}, traced {[round(w, 3) for w in traced_walls]}")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:16.6f} {unit}")
    print(f"  {'ops_attempted':42s} {attempted:16d} count")
    print(f"  {'ops_failed_frac':42s} {failed / attempted:16.6f} ratio")
    for key, val in sorted(getattr(wl, "observed", {}).items()):
        print(f"  observed (not checked) {key} = {val}")
    for key, why in workloads.EXCLUDED.items():
        print(f"  excluded {key}: {why}")
    for msg in failures + run_errors:
        print(f"  CHECK FAILED {msg}")
    print("context " + json.dumps(context(), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
