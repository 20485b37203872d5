"""Run every workload over several seeds and print the end-to-end metrics.

    python3 bench/report.py --seeds 1 2 3

Run from the repository root. Each (workload, seed) pair is one run of
run.py with --trace 0 and the run_seconds of BENCHMARK.json; each workload
also gets one --trace 1 run on the first seed for the per-layer metrics. For every metric the report prints
its unit, the median over all samples, the sample count, and for timings
with at least 40 samples the highest percentile that has ten samples
beyond it. It also prints the spread of the per-run values (interquartile
range over median) next to the bound in BENCHMARK.json, every run's
value, and the attempted and failed operations.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in dict.fromkeys(lines[:-1]):
        if line.startswith("CHECK FAILED:"):
            print(f"  [{workload} seed {seed}] {line}")
    return json.loads(lines[-1])


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it (>= 40 samples)."""
    n = len(values)
    if n < 40:
        return "-"
    pct = math.floor(100 * (n - 10) / n)
    return f"p{pct}={sorted(values)[n - 11]:.4g}"


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in workloads.WORKLOADS:
        per_run: dict[str, list[float]] = {}
        samples: dict[str, list[float]] = {}
        attempted = failed = 0
        correct = True
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            raw = json.loads(Path(".bench_out", workload, "samples.json").read_text(encoding="utf-8"))
            for name, m in result["metrics"].items():
                per_run.setdefault(name, []).append(m["value"])
                samples.setdefault(name, []).extend(raw[name])
        print(f"\n== {workload}: seeds {args.seeds}, {seconds:g} s per run, "
              f"{attempted} operations attempted, {failed} failed, outputs "
              f"{'correct' if correct else 'NOT CORRECT'}")
        print(f"  {'metric':<20} {'unit':<5} {'median':>10} {'n':>4} {'tail':>14} "
              f"{'run spread':>10} {'bound':>6}")
        for m in spec["end_to_end"]:
            name = m["name"]
            values = samples.get(name, [])
            med = statistics.median(values) if values else float("nan")
            print(f"  {name:<20} {m['unit']:<5} {med:>10.4f} {len(values):>4} "
                  f"{tail_percentile(values):>14} {spread(per_run.get(name, [])):>10.3f} "
                  f"{bounds[name]:>6}")
        for name, values in per_run.items():
            print(f"    {name:<18} per run: {' '.join(f'{v:.3f}' for v in values)}")
        traced = run_once(workload, args.seeds[0], seconds, 1)
        print(f"  per-layer (traced run, seed {args.seeds[0]}):")
        for name, m in traced["metrics"].items():
            print(f"    {name:<40} {m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
