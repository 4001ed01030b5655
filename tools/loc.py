#!/usr/bin/env python3
"""Code lines of each `src/rtdenoise` module and their total.

A code line holds at least one token that is neither a comment nor part of a
docstring (the first statement of a module, class or function when it is a
string constant); blank lines never count, and a statement that spans lines
counts each of them. Run from anywhere:

    python3 tools/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rtdenoise"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python `source`."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main()
