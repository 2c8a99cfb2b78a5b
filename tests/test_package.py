"""Package surface: every name a submodule lists in ``__all__`` exists,
so ``from minksurf.<module> import *`` works, no module imports a name it
does not use, no package module reads an underscore name of another,
every package name the benchmark harness in ``perfbench/`` uses still
exists and takes its arguments, and start-up stays cheap."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def private_imports(source: str) -> list[str]:
    """Underscore names a package module takes from another package
    module: by ``from .module import _name`` or as ``module._name``
    after ``from . import module``."""
    tree = ast.parse(source)
    out = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    out.append(f"{node.module}.{alias.name}")
    out += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in modules]
    return sorted(out)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "minksurf").glob(
    "*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_check_flags_both_forms():
    source = ("from . import jets as jt\nfrom .gaussmap import Records, _mean\n"
              "jt._index(3)\njt.Jet\n")
    assert private_imports(source) == ["gaussmap._mean", "jt._index"]


# -- names the benchmark harness uses ----------------------------------------

PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def package_uses(tree: ast.AST) -> list[tuple[str, str, ast.AST]]:
    """(module, attribute, node) for each ``module.name`` a module reads
    after ``from minksurf import module``, the one import form perfbench
    uses."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "minksurf"
               for alias in node.names}
    return [(modules[node.value.id], node.attr, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules]


def missing_names(source: str) -> list[str]:
    """Package names a source uses that are gone, and calls whose
    arguments no longer bind to the callee's signature."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    out = []
    for module, name, node in package_uses(tree):
        target = getattr(importlib.import_module(f"minksurf.{module}"),
                         name, None)
        if target is None:
            out.append(f"{module}.{name}")
            continue
        call = calls.get(id(node))
        if (call is None or any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            continue
        try:
            inspect.signature(target).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError:
            out.append(f"{module}.{name} (line {call.lineno})")
    return sorted(out)


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_perfbench_names_exist(path):
    assert missing_names(path.read_text(encoding="utf-8")) == []


def test_perfbench_check_flags_a_missing_name():
    source = ("from minksurf import geometry, gaussmap as gm\n"
              "geometry.second_fundamental_form(pg)\n"
              "gm.evaluate_point(spec, 0.0, 0.0, 3, tol, extra)\n"
              "geometry.nonexistent\n")
    assert missing_names(source) == ["gaussmap.evaluate_point (line 3)",
                                     "geometry.nonexistent"]


# -- start-up ----------------------------------------------------------------

def test_startup_loads_no_exact_arithmetic():
    """Every CLI run starts a fresh interpreter, and ``statistics`` would
    bring ``fractions`` and ``decimal`` with it."""
    code = ("import sys, minksurf.cli; print(*sorted({'statistics', "
            "'fractions', 'decimal'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# Record types that validate nothing; a dataclass would compile its
# methods with exec at every import.
NAMED_TUPLES = (("gaussmap", "PointRecord"),
                ("gaussmap", "GaussLaplacianDecomposition"),
                ("gaussmap", "SideResult"), ("gaussmap", "TheoremVerdict"),
                ("gaussmap", "_TheoremEntry"), ("geometry", "Frame"),
                ("report", "RunResult"), ("surfaces", "_CatalogEntry"),
                ("expr", "_Token"))


@pytest.mark.parametrize("module,name", NAMED_TUPLES,
                         ids=[name for _, name in NAMED_TUPLES])
def test_record_types_are_named_tuples(module, name):
    cls = getattr(importlib.import_module(f"minksurf.{module}"), name)
    assert issubclass(cls, tuple) and hasattr(cls, "_fields")
    assert not dataclasses.is_dataclass(cls)
