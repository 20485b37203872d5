"""Hashes of every deterministic output of the four commands on the
benchmark workloads, for showing that two source trees write the same bytes.

    python tools/artifact_hashes.py --src SRC --work DIR [--seed 11] [--workload NAME ...]

SRC is the directory that holds the `spfp` package (`src` of a checkout).
For each workload (both by default), the inputs are written under
DIR/<workload>/inputs by `bench/workloads.generate`, and `partition`,
`evaluate`, `evaluate --import-proba` (where the workload has prediction
files), `diagnose` and `stats` run in that order, each in its own
interpreter with PYTHONPATH=SRC, into fixed directories under
DIR/<workload>. Then `partition --discretizer equal_width` and `diagnose`
run into DIR/<workload>/variant, so the listing also covers the equal-width
cuts, which the benchmark never runs. Last, the workload's last run matrix
is cut to its first two thirds of runs (20 of 30 on lowcard) under
DIR/<workload>/inputs, and `stats` runs on the full matrices and that cut into
DIR/<workload>/mixed: a call whose metrics have two run counts, so two
bootstrap draws, which the benchmark never makes either. The config
inside each artifact holds these paths, so two trees compare only when run
with the same DIR:

    python tools/artifact_hashes.py --src old/src --work /tmp/hashes > old.txt
    python tools/artifact_hashes.py --src src --work /tmp/hashes > new.txt
    diff old.txt new.txt

Prints one `sha256[:12] <path relative to DIR>` line per file, sorted: every
artifact, every parse-cache file and each command's stdout and stderr;
`run_log.json`, which holds timings, is left out. Exits 1 if a command
fails. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("out", "import", "stats", "variant", "mixed", "logs")  # the directories commands fill


def cut_matrix(inp) -> list[str]:
    """Write the last run matrix of the inputs `inp`, cut to its first two
    thirds of runs, beside it; return the `stats` arguments that add it to
    the full matrices."""
    metric, m = list(inp.matrices.items())[-1]
    lines = m.path.read_bytes().splitlines(keepends=True)  # the header, then one per run
    cut = m.path.with_name(f"{m.path.stem}_cut.csv")
    cut.write_bytes(b"".join(lines[: 1 + 2 * (len(lines) - 1) // 3]))
    args = [*inp.stats_args, "--matrix", f"{metric}_cut={cut.as_posix()}"]
    return args if m.higher_is_better else [*args, "--lower-better", f"{metric}_cut"]


def commands(inp, work: Path) -> list[tuple[str, list[str]]]:
    """Each command's name and arguments for the inputs `inp` of one
    workload; writes the cut matrix that `mixed` reads."""
    out, imported, stats, variant, mixed = (
        str(work / d) for d in ("out", "import", "stats", "variant", "mixed"))
    plan = [
        ("partition", ["partition", *inp.partition_args, "--out", out]),
        ("evaluate", ["evaluate", "--out", out]),
        ("import", ["evaluate", "--views-file", f"{out}/views.json",
                    "--import-proba", str(inp.proba_dir), "--out", imported]),
        ("diagnose", ["diagnose", "--out", out]),
        ("stats", ["stats", *inp.stats_args, "--out", stats]),
        ("variant_partition", ["partition", *inp.partition_args, "--discretizer", "equal_width",
                               "--out", variant]),
        ("variant_diagnose", ["diagnose", "--out", variant]),
        ("mixed", ["stats", *cut_matrix(inp), "--out", mixed]),
    ]
    return [(op, argv) for op, argv in plan if op != "import" or inp.probas]


def run_commands(inp, src: Path, work: Path) -> bool:
    """Run every command on the inputs `inp`, keeping each one's stdout and
    stderr under work/logs; False if one fails."""
    (work / "logs").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for op, argv in commands(inp, work):
        done = subprocess.run([sys.executable, "-m", "spfp.cli", *argv], env=env,
                              capture_output=True, check=False)
        (work / "logs" / f"{op}.stdout").write_bytes(done.stdout)
        (work / "logs" / f"{op}.stderr").write_bytes(done.stderr)
        if done.returncode != 0:
            print(f"error: {op} exited {done.returncode} in {work}:\n"
                  f"{done.stderr.decode(errors='replace')}", file=sys.stderr)
            return False
    return True


def listing(work: Path, names: list[str]) -> list[str]:
    """The `sha256[:12] path` lines of the outputs of workloads `names`."""
    lines = []
    for name in names:
        for d in OUTPUTS:
            for path in (work / name / d).rglob("*"):
                if path.is_file() and path.name != "run_log.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
                    lines.append(f"{digest} {path.relative_to(work).as_posix()}")
    return sorted(lines, key=lambda line: line.split(" ", 1)[1])


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory that holds the spfp package")
    parser.add_argument("--work", required=True, type=Path,
                        help="directory for inputs and outputs")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    src, work = args.src.resolve(), args.work.resolve()
    # workloads.generate derives the test rows with spfp.dataset.split
    sys.path.insert(0, str(src))
    names = args.workload or list(workloads.WORKLOADS)
    for name in names:
        for d in ("inputs", *OUTPUTS):  # only what this tool writes
            shutil.rmtree(work / name / d, ignore_errors=True)
        inp = workloads.generate(name, args.seed, work / name / "inputs")
        if not run_commands(inp, src, work / name):
            return 1
    print("\n".join(listing(work, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
