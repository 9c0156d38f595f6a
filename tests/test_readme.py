"""The README cites only tests that exist."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _missing_citations(readme: str, root: Path) -> list[str]:
    """Each ``tests/*.py`` path, ``test_*.py`` file name and ``test_*`` name
    that ``readme`` cites and that nothing under ``tests/`` or ``bench/tests/``
    holds as a file, or as a function or class name."""
    files = [path for folder in ("tests", "bench/tests") for path in (root / folder).rglob("*.py")]
    paths = {path.relative_to(root).as_posix() for path in files}
    names = {path.name for path in files} | {
        node.name for path in files for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    cited = {*re.findall(r"(?<![\w/])(?:bench/)?tests/[\w/]+\.py", readme),
             *re.findall(r"(?<![\w/])test_\w+(?:\.py)?", readme)}
    return sorted(c for c in cited if c not in paths and c not in names)


def test_the_checker_finds_missing_paths_files_and_names(tmp_path: Path) -> None:
    (tmp_path / "tests").mkdir()
    (tmp_path / "bench" / "tests").mkdir(parents=True)
    (tmp_path / "tests" / "test_a.py").write_text("def test_real():\n    pass\n")
    (tmp_path / "bench" / "tests" / "test_b.py").write_text("class TestThing:\n    pass\n")
    readme = ("`tests/test_a.py::test_real`, `bench/tests/test_b.py`, `test_a.py`, "
              "`tests/test_c.py`, `test_gone`, `test_d.py`, pytest_plugin")
    assert _missing_citations(readme, tmp_path) == ["test_d.py", "test_gone", "tests/test_c.py"]


def test_every_test_the_readme_cites_exists() -> None:
    assert _missing_citations((ROOT / "README.md").read_text(), ROOT) == []
