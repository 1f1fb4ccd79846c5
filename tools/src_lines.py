"""Print the size of a Python package: all lines, then code lines.

Code lines leave out blank lines, comment-only lines and the docstrings of
modules, classes and functions. A line counts as code when a token other than
a comment or a line break starts, ends or runs through it, and no docstring
covers it.

Usage: python3 tools/src_lines.py [DIR]   (default: src/mfachest next to tools/)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mfachest"
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    totals = [count(path.read_text(encoding="utf-8")) for path in files]
    print(sum(t[0] for t in totals), sum(t[1] for t in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
