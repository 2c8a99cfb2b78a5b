"""Package surface: every name a submodule lists in ``__all__`` exists,
so ``from minksurf.<module> import *`` works, and no module imports a
name it does not use."""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil

import pytest

import minksurf

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(minksurf.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"minksurf.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "minksurf").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses.  ``from __future__``
    imports and names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_one():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["math (line 1)"]
