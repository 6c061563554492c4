"""Scenario-driven command line entry point.

One scenario JSON per invocation.  The config is validated against a JSON
schema before any compute; every artifact (CSV or JSON) embeds the config
hash and seed, and reruns with an identical config are byte identical.

Exit codes: 0 success, 2 config validation error, 3 solver divergence,
4 hypothesis-check failure in strict mode, 5 numerical failure (non-finite
coefficients, forcings or solutions, or a singular regression design), 6 a
Picard loop of the top ladder level that stopped at max_picard without
converging (its artifacts are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .clock import _JUMP_KINDS, SubordinatorSpec, TimeGrid
from .coefficients import check_hypothesis, get_bundle
from .diagnostics import apriori_ratio, m_norm
from .fbsde_solver import ContinuationConfig, DivergedError, solve_fbsde
from .linear_solver import ForcingSet, solve_linear
from .regression import BasisSpec, RegressionPlan, SingularSliceError
from .subdiffusion import build_ensemble

__all__ = ["CONFIG_SCHEMA", "ScenarioConfig", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_HYPOTHESIS = 4
EXIT_NUMERICAL = 5
EXIT_NOT_CONVERGED = 6

_CSV_CHUNK_ROWS = 4096

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario", "seed", "kappa", "T", "n_steps", "n_paths"],
    "properties": {
        "scenario": {"type": "string", "pattern": r"^[A-Za-z0-9_\-]+$"},
        "seed": {"type": "integer", "minimum": 0},
        "kappa": {"type": "number", "exclusiveMinimum": 0},
        "jumps": {
            "type": "object",
            "additionalProperties": False,
            "required": ["jump_kind"],
            "properties": {
                "jump_kind": {"enum": list(_JUMP_KINDS)},
                "rate": {"type": "number", "minimum": 0},
                "jump_param": {
                    "anyOf": [
                        {"type": "number"},
                        {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    ]
                },
                "cutoff": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "a": {"type": "number", "minimum": 0},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "n_steps": {"type": "integer", "minimum": 1},
        "n_paths": {"type": "integer", "minimum": 1},
        "x0": {"type": "number"},
        "bundle": {"type": "string"},
        "bundle_params": {"type": "object"},
        "strategy": {"enum": ["flatten", "nested"]},
        "eta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "picard_tol": {"type": "number", "exclusiveMinimum": 0},
        "max_picard": {"type": "integer", "minimum": 1},
        "nested_max_depth": {"type": "integer", "minimum": 1},
        "C1": {"type": "number", "exclusiveMinimum": 0},
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "include_r": {"type": "boolean"},
                "ridge": {"type": "number", "minimum": 0},
            },
        },
        "forcings": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "b0": {"type": "number"},
                "g0": {"type": "number"},
                "delta0": {"type": "number"},
                "h0": {"type": "number"},
                "sigma0": {"type": "number"},
                "phi0": {"type": "number"},
            },
        },
        "strict": {"type": "boolean"},
        "output_dir": {"type": "string"},
    },
}


class ConfigError(ValueError):
    pass


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
        try:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        except jsonschema.ValidationError as err:
            key = "/".join(str(p) for p in err.absolute_path) or "(top level)"
            raise ConfigError(f"config key {key}: {err.message}") from None
        self.raw = raw
        self.scenario = raw["scenario"]
        self.seed = raw["seed"]
        jumps = dict(raw.get("jumps", {}))
        if isinstance(jumps.get("jump_param"), list):
            jumps["jump_param"] = tuple(jumps["jump_param"])
        try:
            self.subordinator = SubordinatorSpec(kappa=raw["kappa"], **jumps)
            self.grid = TimeGrid(a=raw.get("a", 0.0), T=raw["T"], n_steps=raw["n_steps"])
        except ValueError as err:
            raise ConfigError(str(err)) from None
        self.n_paths = raw["n_paths"]
        self.x0 = raw.get("x0", 0.0)
        self.bundle_name = raw.get("bundle")
        self.bundle_params = raw.get("bundle_params", {})
        self.strict = raw.get("strict", False)
        self.output_dir = Path(raw.get("output_dir", "."))
        self.basis = BasisSpec(**raw.get("basis", {}))
        # "flatten" is the one-level ladder; "nested" steps by the eta key,
        # or by the derived bound (from C1) when it is absent
        nested = raw.get("strategy", "flatten") == "nested"
        for key in ("eta", "C1"):
            if key in raw and not nested:
                raise ConfigError(f'config key {key}: only read with "strategy": "nested"')
        keys = ("picard_tol", "max_picard", "nested_max_depth", "C1")
        solver = {k: raw[k] for k in keys if k in raw}
        try:
            self.solver = ContinuationConfig(eta=raw.get("eta") if nested else 1.0, **solver)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        self.forcing_values = raw.get("forcings", {})

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
        theta = solve_linear(forcings, config.x0, RegressionPlan(ens, config.basis))
    _solution_csv(config, subcommand, ens, theta)
    _write_json(
        config.artifact_path(subcommand, "json"),
        config,
        {
            "m_norm": m_norm(theta).to_json_dict(),
            "apriori": apriori_ratio(theta, forcings, config.x0).to_json_dict(),
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
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_CONFIG
    if output_dir is not None:
        config.output_dir = Path(output_dir)
    if strict is not None:
        config.strict = strict
    try:
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
