"""Module boundaries inside the dialign package."""

from __future__ import annotations

import ast
from pathlib import Path

import dialign

PACKAGE = Path(dialign.__file__).parent


def _private_imports(source: str, name: str) -> list[str]:
    """Each underscore name that module ``name`` imports from a dialign module,
    as ``name:line: imported name``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "dialign"
        ):
            found += [f"{name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_checker_finds_relative_and_absolute_private_imports() -> None:
    source = "from .rl import a, _b\nfrom dialign.scenarios import _c\nfrom os import _exit\n"
    assert _private_imports(source, "m.py") == ["m.py:1: _b", "m.py:2: _c"]


def test_no_dialign_module_imports_a_private_name_from_another() -> None:
    """A name with a leading underscore is private to its module: another
    module that needs it needs it public."""
    found = [entry for path in sorted(PACKAGE.glob("*.py"))
             for entry in _private_imports(path.read_text(), path.name)]
    assert found == []


def _bool_checks(source: str, name: str) -> list[str]:
    """Each ``isinstance(x, bool)`` call in module ``name`` (``bool`` alone or
    in a tuple), as ``name:line``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:2]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                found.append(f"{name}:{node.lineno}")
    return found


def test_the_checker_finds_bool_checks_alone_and_in_tuples() -> None:
    source = "isinstance(a, bool)\nisinstance(b, (int, bool))\nisinstance(c, int)\n"
    assert _bool_checks(source, "m.py") == ["m.py:1", "m.py:2"]


def test_only_errors_tells_a_json_bool_from_a_number() -> None:
    """``errors.KINDS`` is the one place that refuses a JSON ``true`` where a
    number belongs; every other module reads its inputs through it."""
    found = [entry for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
             for entry in _bool_checks(path.read_text(), path.name)]
    assert found == []
