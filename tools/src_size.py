"""Line and statement counts of the package source, ``src/spfp/*.py``.

Lines are counted as ``wc -l`` counts them. Statements are the NEWLINE
tokens of Python's `tokenize`: one per logical line, so a call wrapped over
several lines counts once, and comments and blank lines count none.

    python tools/src_size.py          # the working tree
    python tools/src_size.py REV      # the working tree, git revision REV and the change

Standard library only.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/spfp"


def counts(sources) -> tuple[int, int]:
    """(lines, statements) summed over the source texts `sources`."""
    lines = statements = 0
    for text in sources:
        lines += text.count("\n")
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        statements += sum(tok.type == tokenize.NEWLINE for tok in tokens)
    return lines, statements


def tree_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted((ROOT / PACKAGE).glob("*.py"))]


def revision_sources(rev: str) -> list[str]:
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, encoding="utf-8", check=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return [git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")]


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/src_size.py [REV]", file=sys.stderr)
        return 2
    now = counts(tree_sources())
    print(f"working tree: {now[0]:,} lines, {now[1]:,} statements")
    if argv:
        try:
            then = counts(revision_sources(argv[0]))
        except subprocess.CalledProcessError as exc:
            print(f"error: git cannot read {PACKAGE} at {argv[0]!r}: {exc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        print(f"{argv[0]}: {then[0]:,} lines, {then[1]:,} statements")
        print(f"change: {now[0] - then[0]:+,} lines, {now[1] - then[1]:+,} statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
