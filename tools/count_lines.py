"""Count the code lines of the errexp package.

A code line is a physical line that holds part of a token other than a
comment, a newline or an indent, and that is not part of a docstring (the
string that opens a module, class or function body). Blank lines, comment
lines and docstrings do not count.

Usage: python tools/count_lines.py [package directory]

Prints one "count path" line per module, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "errexp"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring of a module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count(package: Path) -> dict[str, int]:
    """Code lines per module of a package directory, by relative path."""
    return {str(path.relative_to(package)): code_lines(path)
            for path in sorted(package.rglob("*.py"))}


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = count(package)
    for name, n in counts.items():
        print(f"{n:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
