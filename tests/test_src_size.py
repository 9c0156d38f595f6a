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


def test_src_size_prints_each_change_against_a_base_directory(tmp_path: Path) -> None:
    new, base = tmp_path / "new", tmp_path / "base"
    (new / "sub").mkdir(parents=True)
    base.mkdir()
    (new / "mod.py").write_text(MODULE)
    (new / "sub" / "added.py").write_text("x = 1\n")
    (base / "mod.py").write_text(MODULE.replace("    def g(self): return 1\n", ""))
    (base / "gone.py").write_text('"""Gone."""\n# note\nimport os\nimport sys\n')
    done = _run(str(new), str(base))
    assert done.returncode == 0 and done.stderr == ""
    table = [line.split() for line in done.stdout.splitlines()]
    # mod.py gained ``def g``: one code line, and the def and its return.
    assert table == [
        ["module", "code", "docstring", "comment", "statements"],
        ["gone.py", "0", "(-2)", "0", "(-1)", "0", "(-1)", "0", "(-3)"],
        ["mod.py", "7", "(+1)", "6", "(+0)", "2", "(+0)", "10", "(+2)"],
        ["sub/added.py", "1", "(+1)", "0", "(+0)", "0", "(+0)", "1", "(+1)"],
        ["total", "8", "(+0)", "6", "(-1)", "2", "(-1)", "11", "(+0)"],
    ]


def test_src_size_takes_one_or_two_directories(tmp_path: Path) -> None:
    for args in ((), ("a",), (str(tmp_path), "b"), (str(tmp_path),) * 3, (str(TOOL),)):
        done = _run(*args)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "usage: python tools/src_size.py DIRECTORY [BASE_DIRECTORY]\n"
