"""Count the size of a Python package, module by module.

Usage: python tools/src_size.py DIRECTORY

For each ``.py`` file under DIRECTORY, and in total, prints four counts:

* code lines: lines holding a token other than a comment or a docstring,
* docstring lines: the other lines that a module, class or function
  docstring spans,
* comment lines: the other lines that hold a comment,
* statements: the ``ast.stmt`` nodes of the module, docstrings included.

Blank lines count in none of them.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "statements")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> dict[str, int]:
    """The four counts of one module's source text."""
    tree = ast.parse(source)
    spans = _docstring_spans(tree)
    code, docstring, comment = set(), set(), set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for token in tokenize.generate_tokens(readline):
        rows = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.COMMENT:
            comment.update(rows)
        elif token.type in _LAYOUT:
            continue
        elif any(start <= token.start and token.end <= end for start, end in spans):
            docstring.update(rows)
        else:
            code.update(rows)
    docstring -= code
    return {
        "code": len(code),
        "docstring": len(docstring),
        "comment": len(comment - code - docstring),
        "statements": sum(isinstance(node, ast.stmt) for node in ast.walk(tree)),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/src_size.py DIRECTORY", file=sys.stderr)
        return 1
    root = Path(argv[0])
    rows = [(str(path.relative_to(root)), count(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]
    total = {column: sum(counts[column] for _, counts in rows) for column in COLUMNS}
    width = max([len("total"), *(len(name) for name, _ in rows)])
    print(f"{'module':<{width}}" + "".join(f"{column:>12}" for column in COLUMNS))
    for name, counts in [*rows, ("total", total)]:
        print(f"{name:<{width}}" + "".join(f"{counts[column]:>12}" for column in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
