"""The repository's tools: `tools/src_size.py`, which counts the package
source and exported names that each change's size is stated in."""

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
