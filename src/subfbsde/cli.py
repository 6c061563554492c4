"""Scenario-driven command line entry point.

One scenario JSON per invocation, validated before any compute: the key
table checks each key's JSON type, the settings objects check the ranges.
Every artifact (CSV or JSON) embeds the config hash and seed, and reruns
with an identical config are byte identical.

Exit codes: 0 success, 2 config validation error, 3 solver divergence,
4 hypothesis-check failure in strict mode, 5 numerical failure (non-finite
coefficients, forcings or solutions, or a singular regression design), 6 a
Picard loop of the top ladder level that stopped at max_picard without
converging (its artifacts are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .clock import SubordinatorSpec, TimeGrid
from .coefficients import check_hypothesis, get_bundle
from .diagnostics import apriori_ratio, m_norm
from .fbsde_solver import ContinuationConfig, DivergedError, solve_fbsde
from .linear_solver import ForcingSet, solve_linear
from .regression import BasisSpec, RegressionPlan, SingularSliceError
from .subdiffusion import build_ensemble

__all__ = ["ScenarioConfig", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_HYPOTHESIS = 4
EXIT_NUMERICAL = 5
EXIT_NOT_CONVERGED = 6

_CSV_CHUNK_ROWS = 4096


def _finite(v) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


# JSON types: name -> (what a value must be, its test).  A settings field's type is
# its annotation; the other names serve keys only a scenario has.  A bool is not a
# number, an integer is a JSON integer (10.0 is not), and every number is finite.
_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", _finite),
    "float | tuple[float, float]": (
        "a finite number or a list of two",
        lambda v: _finite(v) or (type(v) is list and len(v) == 2 and all(map(_finite, v))),
    ),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "object": ("an object", lambda v: type(v) is dict),
    "seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "count": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "strategy": ("flatten or nested", lambda v: v in ("flatten", "nested")),
    # a scenario name is a file name inside output_dir
    "name": ("[A-Za-z0-9_-]+", lambda v: type(v) is str and re.fullmatch(r"[A-Za-z0-9_\-]+", v)),
    "params": (
        "an object whose numbers are finite",
        lambda v: type(v) is dict and all(_finite(x) for x in v.values() if type(x) is float),
    ),
}


def _fields(cls) -> dict:
    return {f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(cls)}


# The key table: key -> type, for the nested objects and the top level.
_SECTIONS = {
    "jumps": {k: t for k, t in _fields(SubordinatorSpec).items() if k != "kappa"},
    "basis": _fields(BasisSpec),
    "forcings": dict.fromkeys(_fields(ForcingSet), "float"),
}
_KEYS = {
    **_fields(TimeGrid), **_fields(ContinuationConfig), **dict.fromkeys(_SECTIONS, "object"),
    "scenario": "name", "seed": "seed", "n_paths": "count", "kappa": "float", "x0": "float",
    "bundle": "str", "bundle_params": "params", "strategy": "strategy", "strict": "bool",
    "output_dir": "str",
}
_REQUIRED = {"scenario", "seed", "kappa", "T", "n_steps", "n_paths", "jumps/jump_kind"}


class ConfigError(ValueError):
    pass


def _check_keys(obj: dict, keys: dict, prefix: str = "") -> None:
    """Refuse a missing, unknown or mistyped key, naming its path."""
    for key in keys:
        if prefix + key in _REQUIRED and key not in obj:
            raise ConfigError(f"config key {prefix}{key}: required")
    for key, value in obj.items():
        if key not in keys:
            raise ConfigError(f"config key {prefix}{key}: unknown key")
        what, ok = _TYPES[keys[key]]
        if not ok(value):
            raise ConfigError(f"config key {prefix}{key}: must be {what}, got {json.dumps(value)}")
        if key in _SECTIONS and not prefix:
            _check_keys(value, _SECTIONS[key], f"{key}/")


@contextlib.contextmanager
def _solver_config_errors():
    """A solver ValueError is a config error (too few paths for the basis, a
    ladder deeper than nested_max_depth) unless it is a numerical failure."""
    try:
        yield
    except FloatingPointError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


class ScenarioConfig:
    """Validated scenario: subordinator spec, grid, ensemble size, bundle
    selection, solver settings, and output directory.  A settings key the
    scenario leaves out takes the default of the settings object it feeds
    (`SubordinatorSpec`, `BasisSpec`, `ContinuationConfig`)."""

    def __init__(self, raw: dict):
        _check_keys(raw, _KEYS)
        self.raw = raw
        self.scenario = raw["scenario"]
        self.seed = raw["seed"]
        self.n_paths = raw["n_paths"]
        self.x0 = raw.get("x0", 0.0)
        self.bundle_name = raw.get("bundle")
        self.bundle_params = raw.get("bundle_params", {})
        self.strict = raw.get("strict", False)
        self.output_dir = Path(raw.get("output_dir", "."))
        self.forcing_values = raw.get("forcings", {})
        # "flatten" is the one-level ladder; "nested" steps by the eta key,
        # or by the derived bound (from C1) when it is absent
        nested = raw.get("strategy", "flatten") == "nested"
        for key in ("eta", "C1"):
            if key in raw and not nested:
                raise ConfigError(f'config key {key}: only read with "strategy": "nested"')
        jumps = {k: tuple(v) if type(v) is list else v for k, v in raw.get("jumps", {}).items()}
        solver = {k: raw[k] for k in _fields(ContinuationConfig) if k in raw and k != "eta"}
        try:
            self.subordinator = SubordinatorSpec(kappa=raw["kappa"], **jumps)
            self.grid = TimeGrid(a=raw.get("a", 0.0), T=raw["T"], n_steps=raw["n_steps"])
            self.basis = BasisSpec(**raw.get("basis", {}))
            self.solver = ContinuationConfig(eta=raw.get("eta") if nested else 1.0, **solver)
        except ValueError as err:
            # a settings object's message starts with the field it refuses
            key = str(err).split()[0]
            key = next((f"{s}/{key}" for s, keys in _SECTIONS.items() if key in keys), key)
            raise ConfigError(f"config key {key}: {err}") from None

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def bundle(self):
        if self.bundle_name is None:
            raise ConfigError("config key bundle: required for this subcommand")
        try:
            return get_bundle(self.bundle_name, **self.bundle_params)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"config key bundle: {err}") from None

    def ensemble(self):
        try:
            return build_ensemble(self.subordinator, self.grid, self.n_paths, self.seed, self.x0)
        except ValueError as err:
            raise ConfigError(f"config key jumps: {err}") from None

    def forcings(self, n_paths: int, n_steps: int) -> ForcingSet:
        return ForcingSet.constant(n_paths, n_steps, **self.forcing_values)

    def artifact_path(self, subcommand: str, ext: str) -> Path:
        return self.output_dir / f"{self.scenario}_{subcommand}_{self.seed}.{ext}"


def _write_csv(path: Path, config: ScenarioConfig, header: list[str], rows) -> None:
    """Write rows (array-like, one row per line) with every field as `%.17g`,
    which is `format(float(v), ".17g")`; chunks of lines are formatted in one
    `%` each."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={config.config_hash} seed={config.seed}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            block = table[start : start + _CSV_CHUNK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: Path, config: ScenarioConfig, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config_hash": config.config_hash, "seed": config.seed, **payload}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_samples(
    config: ScenarioConfig, subcommand: str, ensemble, columns: dict, payload: dict
) -> int:
    """The sample subcommands' artifacts: a long-format CSV with one row
    (path_id, t, *columns) per path and grid node, and a JSON summary."""
    m, nodes = ensemble.n_paths, ensemble.n_steps + 1
    ids = np.repeat(np.arange(m), nodes)
    t = np.tile(ensemble.grid.times(), m)
    rows = np.column_stack([ids, t] + [arr.ravel() for arr in columns.values()])
    _write_csv(config.artifact_path(subcommand, "csv"), config, ["path_id", "t", *columns], rows)
    _write_json(
        config.artifact_path(subcommand, "json"),
        config,
        {
            "subordinator": config.subordinator.to_json_dict(),
            "n_paths": ensemble.n_paths,
            "mean_L_T": float(np.mean(ensemble.L[:, -1])),
            **payload,
        },
    )
    return EXIT_OK


def _sample_clock(config: ScenarioConfig, subcommand: str) -> int:
    ens = config.ensemble()
    grid = {"a": config.grid.a, "T": config.grid.T, "n_steps": config.grid.n_steps}
    return _write_samples(config, subcommand, ens, {"L": ens.L, "R": ens.R}, {"grid": grid})


def _sample_subdiffusion(config: ScenarioConfig, subcommand: str) -> int:
    ens = config.ensemble()
    columns = {"L": ens.L, "R": ens.R, "X": ens.X}
    payload = {"x0": config.x0, "var_X_T": float(np.var(ens.X[:, -1]))}
    return _write_samples(config, subcommand, ens, columns, payload)


def _check_hypothesis(config: ScenarioConfig, subcommand: str) -> int:
    bundle = config.bundle()
    report = check_hypothesis(bundle, np.random.default_rng(config.seed))
    _write_json(
        config.artifact_path(subcommand, "json"),
        config,
        {"bundle": bundle.name, "report": report.to_json_dict()},
    )
    if not report.passed and config.strict:
        print(f"hypothesis check failed for bundle {bundle.name}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _solution_csv(config: ScenarioConfig, subcommand: str, ensemble, theta) -> None:
    # one reduction per moment over node-major copies: each node's row is
    # contiguous, so it is summed in the order of np.mean(a[:, k]), which a
    # column-wise mean(axis=0) does not keep
    x, y, z = (np.ascontiguousarray(a.T) for a in (theta.x, theta.y, theta.z))
    columns = [x.mean(axis=1), y.mean(axis=1), z.mean(axis=1), x.std(axis=1), y.std(axis=1)]
    _write_csv(
        config.artifact_path(subcommand, "csv"),
        config,
        ["t", "mean_x", "mean_y", "mean_z", "sd_x", "sd_y"],
        np.column_stack([ensemble.grid.times(), *columns]),
    )


def _solve_linear(config: ScenarioConfig, subcommand: str) -> int:
    ens = config.ensemble()
    forcings = config.forcings(ens.n_paths, ens.n_steps)
    with _solver_config_errors():
        theta = solve_linear(forcings.rows, config.x0, RegressionPlan(ens, config.basis))
    _solution_csv(config, subcommand, ens, theta)
    _write_json(
        config.artifact_path(subcommand, "json"),
        config,
        {
            "m_norm": m_norm(theta).to_json_dict(),
            "apriori": apriori_ratio(theta, forcings.rows, config.x0).to_json_dict(),
        },
    )
    return EXIT_OK


def _run_solve(config: ScenarioConfig, subcommand: str) -> int:
    """`solve` and `diagnose`: the same solve; only `solve` writes the CSV."""
    bundle = config.bundle()
    report = check_hypothesis(bundle, np.random.default_rng(config.seed))
    if not report.passed:
        print(
            f"warning: bundle {bundle.name} fails the hypothesis check; solving anyway",
            file=sys.stderr,
        )
    ens = config.ensemble()
    try:
        with _solver_config_errors():
            theta, diag = solve_fbsde(bundle, config.x0, ens, config.solver, config.basis)
    except DivergedError as err:
        _write_json(
            config.artifact_path(subcommand, "json"),
            config,
            {
                **err.diagnostics.to_json_dict(),
                "error": str(err),
                "alpha": err.alpha,
                "eta": err.eta,
            },
        )
        print(str(err), file=sys.stderr)
        return EXIT_DIVERGED
    if subcommand == "solve":
        _solution_csv(config, subcommand, ens, theta)
    _write_json(config.artifact_path(subcommand, "json"), config, diag.to_json_dict())
    top = diag.levels[-1]
    if not top.converged:
        print(
            f"Picard iteration did not converge within max_picard={config.solver.max_picard} "
            f"iterates; last residual {top.residuals[-1]:g}",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


# subcommand -> handler(config, subcommand); argparse offers these keys
_HANDLERS = {
    "sample-clock": _sample_clock,
    "sample-subdiffusion": _sample_subdiffusion,
    "check-hypothesis": _check_hypothesis,
    "solve-linear": _solve_linear,
    "solve": _run_solve,
    "diagnose": _run_solve,
}


def run(subcommand: str, config_path, output_dir=None, strict=None) -> int:
    if subcommand not in _HANDLERS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read config {config_path}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        config = ScenarioConfig(raw)
        if output_dir is not None:
            config.output_dir = Path(output_dir)
        if strict is not None:
            config.strict = strict
        return _HANDLERS[subcommand](config, subcommand)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, SingularSliceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subfbsde",
        description="Monte Carlo FBSDE solvers driven by sub-diffusions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("config", help="scenario JSON path")
        p.add_argument("--output-dir", default=None, help="override the output directory")
        p.add_argument(
            "--strict",
            action="store_true",
            default=None,
            help="treat hypothesis-check failures as fatal (exit 4)",
        )
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.output_dir, args.strict)


if __name__ == "__main__":
    sys.exit(main())
