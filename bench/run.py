"""Benchmark of the four spfp commands on seeded synthetic workloads.

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the repository root. With --trace 0 every timed command of the
workload runs in its own fresh interpreter, exactly as a user runs it, under
a 4 GiB address-space cap; whole rounds of the commands repeat while another
round fits in --seconds. With --trace 1 all the commands, `evaluate
--import-proba` too, run twice in one process each through `spfp.cli.main`,
once plain and once with the layer wrappers of tracing.py; the per-layer
metrics come from the second, and the first is a second repetition for the
determinism check.
Every output is checked (checks.py) and every deterministic artifact must
hash the same in each repetition. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".bench_out")
ADDRESS_SPACE_CAP = 4 << 30

# `import` (evaluate --import-proba, lowcard only) has no end-to-end metric
# of its own, so it runs and is checked in the traced passes only, which
# also cover its layers. Left out of the timed rounds, it leaves room for a
# fourth lowcard round in a 60-s run instead of three.
TIMED_OPS = ("partition", "evaluate", "diagnose", "stats")
END_TO_END = {"setup_s": "s"}
END_TO_END.update({f"{op}_s": "s" for op in TIMED_OPS})
END_TO_END.update({f"{op}_peak_mb": "MB" for op in TIMED_OPS})


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float | None]:
    """Run one child interpreter through launch.py under the address-space
    cap; return (exit code, wall s, peak resident MB or None if it died
    before writing it)."""
    peak_file = log.with_suffix(".peak")
    launcher = [sys.executable, str(BENCH_DIR / "launch.py"), str(peak_file), str(ADDRESS_SPACE_CAP)]
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        code = subprocess.run(launcher + argv, stdout=fh, stderr=subprocess.STDOUT,
                              env=_child_env(), check=False).returncode
        wall = time.perf_counter() - t0
    if not peak_file.exists():
        return code, wall, None
    return code, wall, int(peak_file.read_text(encoding="ascii")) / 1024.0


def build_plan(inp: workloads.Inputs, work: Path) -> list[dict]:
    """The workload's CLI invocations, in order, with the artifacts each writes."""
    out, imp, st = (work / d for d in ("out", "import", "stats"))
    plan = [
        {"op": "partition", "out": out, "argv": ["partition", *inp.partition_args, "--out", out],
         "artifacts": [out / "views.json", out / "view_stats.json"]},
        {"op": "evaluate", "out": out, "argv": ["evaluate", "--out", out],
         "artifacts": [out / "metrics.json"]},
        {"op": "import", "out": imp,
         "argv": ["evaluate", "--views-file", out / "views.json", "--import-proba", inp.proba_dir, "--out", imp],
         "artifacts": [imp / "metrics.json"]},
        {"op": "diagnose", "out": out, "argv": ["diagnose", "--out", out],
         "artifacts": [out / "independence.json"]},
        {"op": "stats", "out": st, "argv": ["stats", *inp.stats_args, "--out", st],
         "artifacts": [st / "verdicts.json"]},
    ]
    return [step for step in plan if step["op"] != "import" or inp.probas]


def plan_json(plan: list[dict]) -> list[dict]:
    return [
        {"op": s["op"], "argv": [Path(a).as_posix() if isinstance(a, Path) else a for a in s["argv"]],
         "artifacts": [p.as_posix() for p in s["artifacts"]], "log": (s["out"] / "run_log.json").as_posix()}
        for s in plan
    ]


def clear_outputs(plan: list[dict]) -> None:
    for out in {s["out"] for s in plan}:
        shutil.rmtree(out, ignore_errors=True)


def hashes(plan: list[dict], ok_ops: set[str]) -> dict[str, str]:
    return {
        p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for s in plan if s["op"] in ok_ops for p in s["artifacts"]
    }


class Run:
    """Samples, failures and check results of one benchmark run."""

    def __init__(self, inp: workloads.Inputs, plan: list[dict]) -> None:
        self.inp = inp
        self.plan = plan
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def record(self, op: str, code: int, wall: float, peak: float | None, log: Path) -> bool:
        """Count one operation. A failed one gives no sample and makes the
        run incorrect: no operation of these workloads is expected to fail."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{op} exited {code}; see {log.as_posix()}")
            return False
        self.samples[f"{op}_s"].append(wall)
        if peak is not None:
            self.samples[f"{op}_peak_mb"].append(peak)
        return True

    def finish_repetition(self, ok_ops: set[str]) -> None:
        """Check the first repetition's outputs; compare every later
        repetition's artifact hashes with the first's."""
        current = hashes(self.plan, ok_ops)
        if self.reference is None:
            t0 = time.perf_counter()
            for step in self.plan:
                if step["op"] in ok_ops:
                    self.problems += checks.CHECKS[step["op"]](step["out"], self.inp)
            print(f"checked outputs in {time.perf_counter() - t0:.2f} s")
            self.reference = current
        elif current != self.reference:
            changed = sorted(k for k in current.keys() | self.reference.keys()
                             if current.get(k) != self.reference.get(k))
            self.problems.append(f"determinism: artifacts differ between repetitions: {changed}")


def measure_setup(work: Path) -> float:
    """Wall time of a fresh interpreter importing spfp.cli."""
    code, wall, _ = run_child(["-c", "import spfp.cli"], work / "setup.log")
    if code != 0:
        raise SystemExit(f"import spfp.cli failed; see {(work / 'setup.log').as_posix()}")
    return wall


def run_untraced(run: Run, work: Path, seconds: float) -> None:
    """Whole rounds of the plan while another fits in `seconds`. Each round
    starts with a set-up sample, so that the median of the set-up samples
    spans the run like the commands' do."""
    measure_setup(work)  # untimed: leaves compiled modules behind
    started = time.perf_counter()
    steps = [step for step in run.plan if step["op"] in TIMED_OPS]
    while True:
        clear_outputs(run.plan)
        t0 = time.perf_counter()
        ok_ops = set()
        run.samples["setup_s"].append(measure_setup(work))
        for step in steps:
            log = work / f"{step['op']}.log"
            code, wall, peak = run_child(["-m", "spfp.cli", *map(str, step["argv"])], log)
            if run.record(step["op"], code, wall, peak, log):
                ok_ops.add(step["op"])
        round_s = time.perf_counter() - t0
        run.finish_repetition(ok_ops)
        if time.perf_counter() - started + round_s > seconds:
            return


def run_traced(run: Run, work: Path) -> dict[str, float]:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan_json(run.plan)), encoding="utf-8")
    results = {}
    for mode in ("plain", "traced"):
        clear_outputs(run.plan)
        out = work / f"pass_{mode}"
        argv = [str(BENCH_DIR / "tracing.py"), plan_path.as_posix(), out.as_posix()]
        log = work / f"pass_{mode}.log"
        code, _, _ = run_child(argv + (["--traced"] if mode == "traced" else []), log)
        if code != 0:
            raise SystemExit(f"{mode} pass failed; see {log.as_posix()}")
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        ok_ops = {s["op"] for s in result["steps"] if s["code"] == 0}
        for s in result["steps"]:
            run.record(s["op"], s["code"], s["wall_s"], None, log)
        run.finish_repetition(ok_ops)
        results[mode] = result
    spans = dict(np.load(work / "pass_traced" / "spans.npz"))
    names = results["traced"]["names"]
    print("layer spans by self time (calls, total s, self s):")
    for name, calls, total, own in tracing.span_table(spans, names)[:15]:
        print(f"  {name:<44} {calls:>9} {total:>9.3f} {own:>9.3f}")
    traced = results["traced"]
    return tracing.layer_metrics(spans, names, traced["counters"], traced["wrapper_cost_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spfp benchmark: one workload, one seed.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spfp" / "cli.py").is_file():
        print(f"error: {SRC / 'spfp'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    inp = workloads.generate(args.workload, args.seed, work / "inputs")
    print(f"generated {args.workload} inputs for seed {args.seed} in {time.perf_counter() - t0:.2f} s")
    run = Run(inp, build_plan(inp, work))
    if args.trace:
        values = run_traced(run, work)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
    else:
        run_untraced(run, work, args.seconds)
        metrics = {}
        for name, unit in END_TO_END.items():
            # A command that failed in every round has no sample; the run
            # is then not correct and the metric is left out.
            if run.samples.get(name):
                metrics[name] = {"value": statistics.median(run.samples[name]), "unit": unit}
        (work / "samples.json").write_text(json.dumps(run.samples), encoding="utf-8")

    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
