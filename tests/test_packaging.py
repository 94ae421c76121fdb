"""The package declares exactly the third-party modules it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # standard library from 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_top_levels(path: Path) -> set:
    """Top-level names of every absolute import in `path`, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_dependencies_are_the_third_party_imports():
    imported = set().union(*map(imported_top_levels,
                                (ROOT / "src" / "greenchain").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"greenchain"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()
                for requirement in project["dependencies"]}
    assert third_party == declared
