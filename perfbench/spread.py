"""Run-to-run spread of the benchmark's metrics, and agreement between sets.

    python3 perfbench/spread.py --workloads verify_full,fiber_sampling --seeds 1-10 --sets 2

Runs ``run.py`` once per workload, set and seed, one run at a time.  For each
set and metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread: the distance between the
quartiles as a share of the median, against the metric's bound in
``BENCHMARK.json``.  With two or more sets it also prints how far each
set's median lies from the first set's, against the same bound, and whether
the output digests of each seed agree between sets.  ``--trace 1``
summarises the per-layer metrics instead.  All results are saved to
``.perfbench_out/spread-<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2][len("meta "):])
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in parse_seeds(args.seeds):
                result = run_once(workload, seed, seconds, args.trace)
                runs.append(result)
                calib = result["meta"]["calibration_s"]
                shown = "" if args.trace else " ".join(
                    f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
                print(f"{workload} set {k + 1} seed {seed}: {shown} ops={result['attempted']} "
                      f"failed={result['failed']} calib={calib['start']:.3f}/{calib['end']:.3f}",
                      flush=True)
            sets.append(runs)
        (out_dir / f"spread-{workload}-trace{args.trace}.json").write_text(json.dumps(sets))

        print(f"== {workload}: {args.sets} set(s) of {len(sets[0])} runs of {seconds:g} s")
        for name, spec in metrics.items():
            bound = spec.get("bound")
            first_median = None
            for k, runs in enumerate(sets):
                q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / median if median else 0.0
                line = (f"  {name:40s} set {k + 1} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                        f"spread {spread:.4f}")
                if bound is not None:
                    line += f" (bound {bound:g}{', under a third' if spread < bound / 3 else ''})"
                    if first_median is None:
                        first_median = median
                    else:
                        worse = (median - first_median) / first_median
                        if spec["better"] == "higher":
                            worse = -worse
                        line += f" worse than set 1 by {worse:+.4f}"
                print(line)
        for k, runs in enumerate(sets):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            calib = [r["meta"]["calibration_s"][e] for r in runs for e in ("start", "end")]
            print(f"  set {k + 1}: failed {failed} of {attempted} operations; "
                  f"calibration loop {min(calib):.3f}-{max(calib):.3f} s")
        if len(sets) > 1:
            differ = []
            for runs in zip(*sets):
                op_lists = [[(o.get("fingerprint"), o.get("digest")) for o in r["meta"]["ops"]]
                            for r in runs]
                common = min(len(ops) for ops in op_lists)
                if any(ops[:common] != op_lists[0][:common] for ops in op_lists):
                    differ.append(runs[0]["meta"]["seed"])
            print("  output digests of the operations each seed ran in every set: "
                  + (f"DIFFER for seeds {differ}" if differ else "identical"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
