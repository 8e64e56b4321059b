"""Count the code lines of each library module.

A code line is a line that is not blank, not a comment and not inside a
module, class or function docstring; docstrings are found with ``ast``.

    python tests/code_lines.py

prints each ``src/reoptlab`` module's code lines and then their total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reoptlab"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every module, class and function docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The code lines of one module's source text."""
    docstrings = _docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:>6,}  {path.name}")
    print(f"{total:>6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
