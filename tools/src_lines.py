"""Count the source lines of Python files: the lines that hold code.

A line counts when it holds a token other than a comment and is not part
of a docstring (the string that opens a module, class or function).
Blank lines, comment lines and docstrings do not count; a line of a
multi-line string or bracket that is not a docstring does.

Run it as ``python3 tools/src_lines.py [PATH ...]``: it prints each file's
count and the total, walking each directory for ``*.py`` files.  It uses
the standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    source = path.read_bytes()
    skipped = docstring_lines(ast.parse(source))
    code: set[int] = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skipped)


def python_files(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in python_files(argv or ["src"]):
        lines = count_lines(path)
        total += lines
        print(f"{lines:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
