"""Count the size of a Python package, module by module.

Usage: python tools/src_size.py DIRECTORY [BASE_DIRECTORY]

For each ``.py`` file under DIRECTORY, and in total, prints four counts:

* code lines: lines holding a token other than a comment or a docstring,
* docstring lines: the other lines that a module, class or function
  docstring spans,
* comment lines: the other lines that hold a comment,
* statements: the ``ast.stmt`` nodes of the module, docstrings included.

Blank lines count in none of them.  Given BASE_DIRECTORY, each count is
followed by its change against the same module there, as ``(+n)`` or
``(-n)``; a module in only one of the two counts as 0 in the other.  Only the
standard library is used.
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


def _table(root: Path) -> dict[str, dict[str, int]]:
    """Each module's counts by its path under ``root``, then the total's."""
    rows = {str(path.relative_to(root)): count(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}
    return {**rows, "total": {column: sum(counts[column] for counts in rows.values())
                              for column in COLUMNS}}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or not all(Path(arg).is_dir() for arg in argv):
        print("usage: python tools/src_size.py DIRECTORY [BASE_DIRECTORY]", file=sys.stderr)
        return 1
    rows = _table(Path(argv[0]))
    base = _table(Path(argv[1])) if len(argv) == 2 else None
    names = sorted((rows.keys() | (base or {}).keys()) - {"total"}) + ["total"]
    zero = dict.fromkeys(COLUMNS, 0)
    width = max(len(name) for name in ["module", *names])
    print(f"{'module':<{width}}" + "".join(f"{column:>12}" for column in COLUMNS))
    for name in names:
        counts = rows.get(name, zero)
        cells = [f"{counts[column]}" for column in COLUMNS]
        if base is not None:
            was = base.get(name, zero)
            cells = [f"{cell} ({counts[column] - was[column]:+d})"
                     for cell, column in zip(cells, COLUMNS)]
        print(f"{name:<{width}}" + "".join(f"{cell:>12}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
