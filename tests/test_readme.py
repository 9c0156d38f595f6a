"""The README cites only tests that exist, every promise it makes cites one,
its library table lists exactly the package's modules, and its Python
examples run."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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


# Words that make a README paragraph a promise of an exit code or of identical output.
_PROMISE = re.compile(r"exits? [0-3]|exit codes?|bit-identical|byte-identical|bit for bit|"
                      r"byte for byte|same bits|reproducible", re.I)
_CITATION = re.compile(r"(?<![\w/])(?:(?:bench/)?tests/[\w/]+\.py|test_\w+)")


def _prose_paragraphs(readme: str) -> list[str]:
    """The paragraphs and list items of ``readme`` outside fenced code blocks,
    tables and headings, each joined into one line."""
    prose = re.sub(r"^```.*?^```.*?$", "", readme, flags=re.M | re.S)
    paragraphs = []
    for block in re.split(r"\n\s*\n", prose):
        lines = [line.strip() for line in block.splitlines()
                 if line.strip() and not line.lstrip().startswith(("|", "#"))]
        items = [[]]
        for line in lines:
            if re.match(r"([-*]|\d+\.) ", line) and items[-1]:
                items.append([])
            items[-1].append(line)
        paragraphs += [" ".join(item) for item in items if item]
    return paragraphs


def _uncited_promises(readme: str) -> list[str]:
    """Each prose paragraph of ``readme`` that promises an exit code or
    identical output and cites no test."""
    return [p for p in _prose_paragraphs(readme) if _PROMISE.search(p) and not _CITATION.search(p)]


def test_the_promise_check_flags_only_uncited_promises() -> None:
    readme = (
        "# Exit codes\n\nA bad flag exits 2.\n\nA bad file exits 2\n(`test_bad_file`).\n\n"
        "- Training is\n  reproducible.\n- Resuming gives the same bits (`tests/test_cli.py`).\n\n"
        "| flag | exits 2 |\n| --- | --- |\n\n```sh\ndialign eval  # exit code 2\n```\n\n"
        "Nothing promised here.\n"
    )
    assert _uncited_promises(readme) == ["A bad flag exits 2.", "- Training is reproducible."]


def test_every_promise_in_the_readme_cites_a_test() -> None:
    assert _uncited_promises((ROOT / "README.md").read_text()) == []


def test_the_library_layout_lists_exactly_the_modules_of_the_package() -> None:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library layout\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `(dialign\.\w+)` \|", section, re.M)
    modules = [f"dialign.{path.stem}" for path in (ROOT / "src" / "dialign").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def _run_python_blocks(readme: str) -> int:
    """Run each ```python block of ``readme``, in order, each in a fresh
    namespace in the current directory; the number of blocks run."""
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), {"__name__": "readme"})
    return len(blocks)


def test_the_runner_fails_on_an_import_the_package_no_longer_exports(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.chdir(tmp_path)
    runs = "```python\nfrom dialign import EnvView\nopen('ran', 'w').close()\n```\n"
    assert _run_python_blocks(f"text\n{runs}```sh\nexit 1\n```\n") == 1
    assert (tmp_path / "ran").exists()
    with pytest.raises(ImportError, match="DialogueState"):
        _run_python_blocks(f"{runs}```python\nfrom dialign import DialogueState\n```\n")


def test_every_python_example_in_the_readme_runs(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    readme = (ROOT / "README.md").read_text()
    monkeypatch.chdir(tmp_path)
    assert _run_python_blocks(readme) >= 1
