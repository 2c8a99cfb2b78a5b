"""Package surface: every name a submodule lists in ``__all__`` exists,
so ``from minksurf.<module> import *`` works, no module imports a name it
does not use, no package module reads an underscore name of another,
every package name the benchmark harness in ``perfbench/`` uses still
exists and takes its arguments, start-up stays cheap, and the value
types check their fields on every construction path."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import typing

import pytest

import minksurf
from minksurf import geometry, report, surfaces

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


# Run by a fresh interpreter that compiles the package from source: it
# counts the typing.ForwardRefs made and the patterns package modules
# hand to re before and while ``import minksurf.cli`` runs.
STARTUP_PROBE = """
import json, re, sys, typing
refs, patterns = [], []
make_ref, compile_ = typing.ForwardRef.__init__, re._compile
def counting_ref(self, arg, *args, **kwargs):
    refs.append(arg)
    make_ref(self, arg, *args, **kwargs)
def recording_compile(pattern, flags):
    caller = sys._getframe(1)
    while caller.f_globals["__name__"] == "re":
        caller = caller.f_back
    if caller.f_globals["__name__"].startswith("minksurf"):
        patterns.append(caller.f_globals["__name__"])
    return compile_(pattern, flags)
typing.ForwardRef.__init__, re._compile = counting_ref, recording_compile
import minksurf.cli
print(json.dumps({"dataclasses": "dataclasses" in sys.modules,
                  "forward_refs": refs, "patterns": patterns}))
"""


def test_startup_generates_no_code():
    """Every CLI run starts a fresh interpreter.  A dataclass compiles its
    methods with exec; a NamedTuple's string annotation (under ``from
    __future__ import annotations``) is compiled into a ForwardRef; a
    pattern only a surface file or ``--domain`` needs would compile on
    every run.  Only expr's token pattern, which every run uses, may
    compile at import."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE],
                          env={**os.environ, "PYTHONPATH": path,
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"dataclasses": False,
                                       "forward_refs": [],
                                       "patterns": ["minksurf.expr"]}


# Record types that validate nothing are typing.NamedTuples; the value
# types below are namedtuple classes too, with a checking __new__.
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
    # one annotation per field, evaluated at import: a string one is
    # compiled into a ForwardRef
    assert tuple(cls.__annotations__) == cls._fields
    assert not any(isinstance(hint, typing.ForwardRef)
                   for hint in cls.__annotations__.values())


# -- value types -------------------------------------------------------------

PLANE = surfaces.catalog_lookup("plane")

# (type, valid fields by keyword, a field change the check rejects, the
# text of its error, a field change it accepts)
VALUE_TYPES = {
    "Tolerances": (geometry.Tolerances, {"residual": 1e-6},
                   {"residual": 0.0}, "finite and positive",
                   {"residual": 1e-7}),
    "Domain": (surfaces.Domain,
               {"u_min": 0.0, "u_max": 1.0, "v_min": -2.0, "v_max": 2.0},
               {"u_max": -1.0}, "empty domain", {"v_max": 3.0}),
    "SurfaceSpec": (surfaces.SurfaceSpec,
                    {"name": "plane", "components": PLANE.components,
                     "params": {"a": 1.5}, "domain": PLANE.domain},
                    {"params": {"a": "u"}}, "'a' must be a number",
                    {"params": {"a": 2.5}}),
    # the keyword form perfbench/child.py builds from a workload
    "RunConfig": (report.RunConfig,
                  {"command": "verify", "catalog": "product",
                   "surface_file": None, "params": {"a": "2"},
                   "grid": (4, 4), "domain": None, "order": 3,
                   "tol": geometry.DEFAULT_TOLERANCES, "fmt": "json",
                   "out": None, "jobs": 1, "theorem": "T4.4"},
                  {"order": 5}, "jet order", {"grid": (5, 4)}),
}
VALUE_IDS = list(VALUE_TYPES)


@pytest.mark.parametrize("name", VALUE_IDS)
def test_value_type_checks_every_construction(name):
    cls, fields, bad, message, _ = VALUE_TYPES[name]
    value = cls(**fields)
    assert value == cls(*fields.values()) == cls._make(fields.values())
    assert value._asdict() == fields
    broken = {**fields, **bad}
    for make in (lambda: cls(**broken), lambda: cls(*broken.values()),
                 lambda: cls._make(broken.values()),
                 lambda: value._replace(**bad)):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("name", VALUE_IDS)
def test_value_type_rejects_an_unknown_field(name):
    cls, fields, *_ = VALUE_TYPES[name]
    with pytest.raises(TypeError, match="bogus"):
        cls(**fields, bogus=1.0)
    with pytest.raises(ValueError, match="bogus"):
        cls(**fields)._replace(bogus=1.0)


@pytest.mark.parametrize("name", VALUE_IDS)
def test_value_type_is_frozen_and_equal_by_field(name):
    cls, fields, _, _, change = VALUE_TYPES[name]
    value = cls(**fields)
    for field, item in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, field, item)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert value == cls(**fields) and value is not cls(**fields)
    assert value != value._replace(**change) == cls(**{**fields, **change})


def test_spec_converts_its_params_into_its_own_dict():
    params = {"a": "2"}
    spec = surfaces.SurfaceSpec("s", PLANE.components, params)
    assert spec.params == {"a": 2.0} and params == {"a": "2"}
    with pytest.raises(ValueError, match="reserved parameter name 'u'"):
        spec._replace(params={"u": 1.0})


def test_run_config_default_params_are_read_only():
    # one default mapping serves every config
    params = report.RunConfig().params
    assert params == {} and params is report.RunConfig().params
    with pytest.raises(TypeError):
        params["a"] = 1.0
