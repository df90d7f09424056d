"""Count the code lines of each module of `src/oscm` and their total.

A code line is a non-blank line that is neither part of a module, class
or function docstring nor a comment-only line. Run from anywhere:

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oscm"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of `tree` span, its own and those of
    every class and function in it."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>5,}")
    print(f"{'total':<16} {total:>5,}")


if __name__ == "__main__":
    main()
