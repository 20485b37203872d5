"""Line and statement counts of the package source, ``src/spfp/*.py``,
and the number of names it exports.

Lines are counted as ``wc -l`` counts them. Statements are the NEWLINE
tokens of Python's `tokenize`: one per logical line, so a call wrapped over
several lines counts once, and comments and blank lines count none.
Exported names are those listed in ``_EXPORTS`` of ``__init__.py``, read
with `ast`; a revision without that mapping reports lines and statements
alone.

    python tools/src_size.py          # the working tree
    python tools/src_size.py REV      # the working tree, git revision REV and the change

Standard library only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/spfp"


def counts(sources: dict[str, str]) -> tuple[int, int, int | None]:
    """(lines, statements, exported names) of the source texts `sources`,
    keyed by file name; the names are None without an ``_EXPORTS``."""
    lines = statements = 0
    for text in sources.values():
        lines += text.count("\n")
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        statements += sum(tok.type == tokenize.NEWLINE for tok in tokens)
    names = None
    for node in ast.parse(sources.get("__init__.py", "")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS":
            names = sum(map(len, ast.literal_eval(node.value).values()))
    return lines, statements, names


def describe(size: tuple, spec: str = ",") -> str:
    units = ("lines", "statements", "exported names")
    return ", ".join(f"{n:{spec}} {unit}" for n, unit in zip(size, units) if n is not None)


def tree_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision_sources(rev: str) -> dict[str, str]:
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, encoding="utf-8", check=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/src_size.py [REV]", file=sys.stderr)
        return 2
    now = counts(tree_sources())
    print(f"working tree: {describe(now)}")
    if argv:
        try:
            then = counts(revision_sources(argv[0]))
        except subprocess.CalledProcessError as exc:
            print(f"error: git cannot read {PACKAGE} at {argv[0]!r}: {exc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        print(f"{argv[0]}: {describe(then)}")
        change = [None if None in (a, b) else a - b for a, b in zip(now, then)]
        print(f"change: {describe(change, '+,')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
