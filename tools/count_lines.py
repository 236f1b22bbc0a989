"""Count the code lines of Python modules: the ROADMAP's line count.

Usage:

    python tools/count_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``.py`` files.  A
code line holds a token other than a comment, a line break or indentation,
and lies outside every module, class and function docstring.  So blank
lines, comment-only lines and docstring lines are not counted, while a
line of a multi-line string that is not a docstring is.  Prints one
``count path`` line per module, in path order, then ``count total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> int:
    """The code lines of the module at ``path``."""
    source = path.read_bytes()
    code = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source, str(path))))


def modules(paths) -> list[Path]:
    """Every ``.py`` file named by ``paths``, directories searched recursively."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/count_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in modules(argv):
        count = count_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
