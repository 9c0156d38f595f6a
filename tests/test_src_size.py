"""``tools/src_size.py`` on a small package written here."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"

MODULE = '''"""Module docstring
on two lines."""

import os  # a trailing comment keeps this a code line

# a comment-only line


def f(x):
    """One-line docstring."""
    # another comment-only line
    y = """not a docstring
    but a string over two lines"""
    return x + len(y) + len(os.sep)


class C:
    """Class docstring
    over
    three lines."""

    def g(self): return 1
'''


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_src_size_counts_code_docstring_and_comment_lines_and_statements(tmp_path: Path) -> None:
    (tmp_path / "sub").mkdir()
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "sub" / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    done = _run(str(tmp_path))
    assert done.returncode == 0 and done.stderr == ""
    table = [line.split() for line in done.stdout.splitlines()]
    # Code: import, def f, the two lines of y, return, class C, def g.
    # Statements: three docstrings, import, def f, y, return, class C, def g, return.
    assert table == [
        ["module", "code", "docstring", "comment", "statements"],
        ["mod.py", "7", "6", "2", "10"],
        ["sub/empty.py", "0", "0", "0", "0"],
        ["total", "7", "6", "2", "10"],
    ]


def test_src_size_takes_one_directory() -> None:
    for args in ((), ("a", "b"), (str(TOOL),)):
        done = _run(*args)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "usage: python tools/src_size.py DIRECTORY\n"
