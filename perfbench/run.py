"""Benchmark of the sexticsolid verifier.

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run:

1. times a fixed pure-Python calibration loop (run metadata, so that a run on
   a slow host can be recognised; never folded into a metric);
2. sets the workload up SETUP_REPS times -- import the package afresh and
   build the workload's inputs from ``--seed``;
3. runs operations in a closed loop (one thread, one operation in flight)
   for ``--seconds``; an operation starts only while the window has room for
   it at the pace measured so far, and the first always runs.  Every
   output is checked (see ``workloads.py``);
4. sets the workload up SETUP_REPS times more, so that the set-up times
   span the run's changes in host speed, and reports their median as
   ``setup_s``;
5. times the calibration loop again and prints the results.

With ``--trace 0`` the metrics are the end-to-end ones: ``op_s`` (median wall
seconds per operation: one verify or one fiber batch), ``work_per_s``
(verifies or fibers checked per second of the window), ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` the same loop runs with spans around
the calls into each layer (see ``tracing.py``) and the metrics are the
per-layer ones; the spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``meta``, holds the run metadata: sample count and percentiles,
calibration times, instance fingerprints and output digests.  Exits 2
without a result when the package cannot be imported from this checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, OpResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PACKAGE = "sexticsolid"
SETUP_REPS = 5
CALIBRATION_ITERATIONS = 1_000_000

END_TO_END = [("op_s", "s"), ("work_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def import_package():
    """Import the package from this checkout's sources, afresh."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("cli", "bundle", "fibers")}
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, seed: int):
    """Import and build the inputs SETUP_REPS times; returns the last inputs
    and the set-up times."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pkg = import_package()
        inputs = workload.setup(pkg, seed)
        times.append(time.perf_counter() - t0)
    return inputs, times


def run_loop(workload, inputs, seconds: float, tracer=None):
    """Closed loop for about ``seconds``; returns (op seconds, results, window)."""
    durations, results = [], []
    start = time.perf_counter()
    while True:
        i = len(durations)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = workload.run(inputs, i)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            result = OpResult(0, False, {"op": i, "problem": f"{type(exc).__name__}: {exc}"})
        durations.append(time.perf_counter() - t0)
        result.record["s"] = durations[-1]
        results.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(durations) > seconds:
            return durations, results, elapsed


def percentile_summary(durations):
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    summary = {"n": n, "p50": statistics.median(ordered)}
    for q in (90, 99, 99.9):
        if n * (100 - q) / 100 >= 10:
            summary[f"p{q:g}"] = ordered[min(n - 1, int(n * q / 100))]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    calibration_start = calibrate()
    try:
        inputs, setup_times = setup(workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
    try:
        durations, results, window = run_loop(workload, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_times += setup(workload, args.seed)[1]
    calibration_end = calibrate()

    failed = sum(1 for r in results if not r.ok)
    units = sum(r.units for r in results)
    records = [r.record for r in results]
    if args.trace:
        names = tracing.PER_LAYER
        values = tracing.layer_metrics(tracer, durations, tracing.span_cost())
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        names = END_TO_END
        values = {
            "op_s": statistics.median(durations),
            "work_per_s": units / window,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "window_s": window, "units": units, "op_s": percentile_summary(durations),
        "setup_s_all": setup_times,
        "calibration_s": {"start": calibration_start, "end": calibration_end},
        "failed_share": failed / len(results),
        "digest": hashlib.sha256(json.dumps(
            [[r.get("fingerprint"), r.get("digest")] for r in records]).encode()).hexdigest()[:16],
        "ops": records,
    }
    for name, unit in names:
        print(f"{name:40s} {values[name]:14.6g} {unit}")
    print(f"{'failed_share':40s} {meta['failed_share']:14.6g} ratio "
          f"({failed} of {len(results)} operations)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
