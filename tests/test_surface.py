"""The package surface: every name a module exports, and every name the
benchmark tracer (perfbench/spans.py) patches, must resolve; the package
re-exports exactly the modules' exports but the CLI's; the CLI's
imports stay light; the README lists exactly the subcommands, bundles and
a priori keys there are, states the row-block size there is, and its
tables match the CLI's own tables, exit codes and version; the benchmark's
workloads run on the package and pass its artifact checks, and a traced run
gives well-formed spans."""

import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import subfbsde
from subfbsde import AprioriReport, cli, coefficients, regression

MODULES = ["subfbsde"] + [f"subfbsde.{m.name}" for m in pkgutil.iter_modules(subfbsde.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from {module} import *", {})


def test_package_exports_exactly_the_modules_exports():
    # both ways: each public name of the package is some module's export, and
    # each module's export but the CLI's is a name of the package
    public = {
        name
        for name in dir(subfbsde)
        if not name.startswith("_") and not isinstance(getattr(subfbsde, name), types.ModuleType)
    }
    exports = {m: set(importlib.import_module(m).__all__) for m in MODULES[1:]}
    assert public <= set().union(*exports.values())
    for module, names in exports.items():
        if module != "subfbsde.cli":
            assert names <= public, f"{module}: {sorted(names - public)}"


@pytest.mark.parametrize("name", ["extract_z", "fit_condexp", "polynomial_features"])
def test_single_slice_estimator_is_not_exported(name):
    # it runs in no solve: only the plan's tests and the tracer use it
    assert not hasattr(subfbsde, name)
    assert name not in regression.__all__
    assert callable(getattr(regression, name))


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


def test_readme_lists_the_apriori_keys():
    # the solve and solve-linear JSONs' apriori object is asdict(AprioriReport)
    keys = re.search(r"`apriori`\s+object, `([\w, ]+)`", _readme_section("## CLI")).group(1)
    assert keys.split(", ") == [f.name for f in dataclasses.fields(AprioriReport)]


def test_readme_states_the_row_block_size():
    # every row-block loop runs over blocks of regression._BLOCK_ROWS paths
    sizes = re.findall(r"blocks of (\d+) paths", _readme_section("## Layout"))
    assert sizes and set(sizes) == {str(regression._BLOCK_ROWS)}


def _readme_table(first: str) -> list[list[str]]:
    """The body rows, as lists of cells, of the README table whose header
    starts with the column `first`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(rf"^\| {re.escape(first)} \|.*\n\|[- |]+\n((?:\|.*\n)*)", readme, flags=re.M)
    return [[c.strip() for c in row.strip("|").split("|")] for row in table.group(1).splitlines()]


def test_readme_exit_code_table_lists_the_exit_codes():
    codes = [int(row[0]) for row in _readme_table("exit")]
    exits = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert sorted(codes) == sorted(exits)


def test_readme_subcommand_table_matches_the_cli_tables():
    rows = _readme_table("subcommand")
    assert [row[0] for row in rows] == [f"`{name}`" for name in cli._HANDLERS]
    for name, keys, strict, *_ in rows:
        name = name.strip("`")
        read = {key for key, by in cli._READ_BY.items() if name in by}
        assert set(re.findall(r"`(\w+)`", keys)) == read, name
        assert strict == ("yes" if name in cli._STRICT else "no"), name
    # the common keys are the scenario keys every subcommand reads
    common = re.search(r"reads the common keys (.*?);", _readme_section("## CLI"), flags=re.S)
    assert set(re.findall(r"`(\w+)`", common.group(1))) == set(cli._KEYS) - set(cli._READ_BY)


def test_readme_version_table_ends_at_the_package_version():
    # pyproject.toml by regex: tomllib is not in every Python the package supports
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, flags=re.M).group(1)
    assert _readme_table("version")[-1][0] == subfbsde.__version__ == declared


ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# any value passes: the benchmark checks the values at full size, this test
# the keys, fields and shapes its checker reads
_ANY = {"value": 0.0, "tol": math.inf}
LOOSE_REFERENCE = {
    "jump_solve": {"mean_y0": _ANY, "m_norm": _ANY},
    "drift_ladder": {"oracle_rel_err_max": math.inf},
}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workloads_run_on_the_package(tmp_path, workload):
    # each benchmark scenario at 200 x 10, through the benchmark's own artifact
    # checker: a key it sets or a JSON field it reads that the package drops
    # fails here
    bench = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    subcommand, raw = bench["scenario"](workload, 7, 200, 10)
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    assert cli.run(subcommand, path, output_dir=out) == cli.EXIT_OK
    doc = json.loads((out / f"{workload}_{subcommand}_7.json").read_text())
    # the record the benchmark reads is the top loop's: every Picard loop of
    # every ladder level leaves one, and the top loop stops last
    assert doc["levels"][-1]["converged"] and doc["levels"][-1]["alpha"] == 1.0
    # each linear solve is one iterate of a lowest-level loop
    lowest = min(level["alpha"] for level in doc["levels"])
    iterates = [len(level["residuals"]) for level in doc["levels"] if level["alpha"] == lowest]
    assert sum(iterates) == doc["total_linear_solves"]
    config_hash = cli.ScenarioConfig(raw).config_hash
    bench["Checker"](workload, raw, LOOSE_REFERENCE, config_hash).check(cli.EXIT_OK, out)


def test_traced_run_gives_well_formed_spans(tmp_path, monkeypatch):
    # the tracer's span stack is not thread-safe: every traced name must be
    # called on the calling thread, whatever the row-block helper thread runs
    monkeypatch.setattr(regression, "_helper_pays", lambda n_steps: True)
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    tracer, callers = spans["Tracer"](), set()

    def on_thread(fn):
        def call(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)

        return call

    for module_name, attr, name in spans["TRACED"]:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, tracer.wrap(name, on_thread(getattr(module, attr))))
    bench = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    subcommand, raw = bench["scenario"]("drift_ladder", 7, 1200, 10)
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    run = tracer.wrap(spans["ROOT"], cli.run)
    assert run(subcommand, path, output_dir=out) == cli.EXIT_OK

    assert callers == {threading.main_thread().ident}
    assert [name for name, _, _, parent in tracer.spans if parent < 0] == [spans["ROOT"]]
    for name, start, end, parent in tracer.spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end, name
    doc = json.loads((out / f"drift_ladder_{subcommand}_7.json").read_text())
    solves = sum(1 for name, *_ in tracer.spans if name == "solve_linear")
    assert solves == doc["total_linear_solves"] > 0
