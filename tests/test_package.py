"""Package surface: every name a submodule lists in ``__all__`` exists,
so ``from minksurf.<module> import *`` works."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import minksurf

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(minksurf.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"minksurf.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
