"""Print the code lines of each module of src/permslab and their total.

A code line is a line that holds part of a statement: blank lines,
comment-only lines and the lines of module, class and function
docstrings do not count. Uses only the standard library.

    python tools/code_lines.py [package-dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permslab"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines that are neither blank, comment-only nor docstring."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
