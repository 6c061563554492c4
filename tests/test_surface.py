"""The package surface: every name a module exports, and every name the
benchmark tracer (perfbench/spans.py) patches, must resolve; the CLI's
imports stay light; the README lists exactly the subcommands and bundles
there are."""

import importlib
import os
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import subfbsde
from subfbsde import cli, coefficients

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


def _readme_section(heading: str) -> str:
    """The README text under a heading, up to the next heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"^{re.escape(heading)}\n(.*?)(?=^#)", readme, flags=re.S | re.M).group(1)


def test_readme_lists_the_subcommands_and_the_bundle_catalog():
    block = re.search(r"```sh\n(.*?)```", _readme_section("## CLI"), flags=re.S).group(1)
    commands = {line.split()[1] for line in block.splitlines() if line.startswith("subfbsde ")}
    assert commands == set(cli._HANDLERS)
    catalog = _readme_section("### Bundle catalog").strip().split("\n\n")[0]
    assert set(re.findall(r"`(\w+)`", catalog)) == set(coefficients._REGISTRY)
