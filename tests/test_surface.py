"""The package surface: every name a module exports, and every name the
benchmark tracer (perfbench/spans.py) patches, must resolve; the CLI's
imports stay light."""

import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
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


def test_cli_import_loads_neither_jsonschema_nor_scipy():
    # a fresh interpreter sees what a CLI start pays for
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, subfbsde.cli\n"
        "print(subfbsde.cli.__file__)\n"
        "print(sorted(m for m in ('jsonschema', 'scipy') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    path, loaded = out.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(src)
    assert loaded == "[]"
