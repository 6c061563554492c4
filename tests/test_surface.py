"""The package surface: every name a module exports, and every name the
benchmark tracer (perfbench/spans.py) patches, must resolve."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import subfbsde

MODULES = ["subfbsde"] + [f"subfbsde.{m.name}" for m in pkgutil.iter_modules(subfbsde.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from {module} import *", {})


def test_traced_names_resolve_to_callables():
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    traced = runpy.run_path(str(spans))["TRACED"]
    assert traced
    for module_name, attr, _ in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
