"""The repository's tools: `tools/src_size.py`, which counts the package
source and exported names that each change's size is stated in, and
`tools/artifact_hashes.py`, which hashes every deterministic output of the
four commands on the benchmark workloads."""

import re
import subprocess
import sys
from pathlib import Path

import spfp

ROOT = Path(__file__).resolve().parent.parent


def test_src_size_counts_the_working_tree():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "src_size.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    found = re.fullmatch(r"working tree: ([\d,]+) lines, ([\d,]+) statements, "
                         r"([\d,]+) exported names\n", done.stdout)
    assert found is not None, done.stdout
    lines, statements, names = (int(g.replace(",", "")) for g in found.groups())
    sources = sorted((ROOT / "src" / "spfp").glob("*.py"))
    assert lines == sum(p.read_text(encoding="utf-8").count("\n") for p in sources)
    assert statements > 0
    assert names == len(spfp.__all__) - 1  # __version__ is not in _EXPORTS


def test_artifact_hashes_lists_every_output(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_hashes.py"), "--src", str(ROOT / "src"),
         "--work", str(tmp_path), "--workload", "lowcard"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{12} \S+", line) for line in lines), lines
    paths = [line.split(" ", 1)[1] for line in lines]
    cache = [f"{d}/.spfp_cache/{name}" for d in ("out", "variant") for name in (
        "codes.npy", "features.npy", "key.json", "rows.npy", "target.npy",
        "train_target.npy")]
    artifacts = ["out/views.json", "out/view_stats.json", "out/metrics.json",
                 "out/independence.json", "import/metrics.json", "stats/verdicts.json",
                 "variant/views.json", "variant/view_stats.json", "variant/independence.json",
                 "mixed/verdicts.json"]
    ops = ("partition", "evaluate", "import", "diagnose", "stats",
           "variant_partition", "variant_diagnose", "mixed")
    logs = [f"logs/{op}.{stream}" for op in ops for stream in ("stdout", "stderr")]
    assert paths == sorted(f"lowcard/{p}" for p in cache + artifacts + logs)
