"""Scenario-driven command line entry point.

One command per job: `sample-subdiffusion` draws the clock `L`, its
overshoot `R` and the sub-diffusion `X`; `check-hypothesis` tests the
monotonicity hypothesis; `solve-linear` solves the linear base system with
the scenario's `forcings`; `solve` solves the coupled system and reports
its a priori estimates.  `--strict`, read by `check-hypothesis` and `solve`
only, makes a failed hypothesis check fatal; `solve` then stops before the
ensemble is built.  One scenario JSON per invocation, validated before any
compute: the key table checks each key's JSON type, the settings objects
the ranges, and `_READ_BY` refuses a key the subcommand does not read.
Each handler returns its exit code, its CSV table and its JSON payload
(the library's result records as `dataclasses.asdict` gives them), and
`run` alone writes them.  Every artifact embeds the config hash and seed,
and reruns with an identical config are byte identical.

Exit codes: 0 success, 2 config validation error, an output directory that
cannot be written (a CSV written before a failing JSON write stays on disk)
or arrays too large to allocate, 3 solver divergence (a Picard residual
above 1e6 times its loop's first), 4 hypothesis-check failure under
--strict, 5 numerical failure (non-finite jump sums, coefficients, forcings,
solutions, norms or JSON values, or a singular regression design; nothing is
written), 6 a Picard loop of any ladder level that stopped at max_picard
without converging (its artifacts are still written).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .clock import SubordinatorSpec, TimeGrid
from .coefficients import check_hypothesis, get_bundle
from .diagnostics import apriori_ratio, m_norm
from .fbsde_solver import ContinuationConfig, DivergedError, solve_fbsde
from .linear_solver import ForcingSet, solve_linear
from .regression import BasisSpec, RegressionPlan
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
    "bundle": "str", "bundle_params": "params", "strategy": "strategy", "output_dir": "str",
}
_REQUIRED = {"scenario", "seed", "kappa", "T", "n_steps", "n_paths", "jumps/jump_kind"}
# key -> the subcommands that read it, for the keys the other subcommands refuse
_READ_BY = {"forcings": ("solve-linear",), "basis": ("solve-linear", "solve")}
_READ_BY.update(dict.fromkeys([*_fields(ContinuationConfig), "strategy"], ("solve",)))


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
    """A solver ValueError (too few paths for the basis) is a config error
    unless it is a numerical failure."""
    try:
        yield
    except FloatingPointError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


class ScenarioConfig:
    """Validated scenario: subordinator spec, grid, ensemble size, bundle,
    solver settings, and output directory.  A settings key the scenario
    leaves out takes the default of the settings object it feeds
    (`SubordinatorSpec`, `BasisSpec`, `ContinuationConfig`).  The bundle is
    built here, so every subcommand refuses an unknown bundle or bad
    `bundle_params`; it is None when the scenario names none."""

    def __init__(self, raw: dict):
        _check_keys(raw, _KEYS)
        self.raw = raw
        self.scenario = raw["scenario"]
        self.seed = raw["seed"]
        self.n_paths = raw["n_paths"]
        self.x0 = raw.get("x0", 0.0)
        self.output_dir = Path(raw.get("output_dir", "."))
        self.forcing_values = raw.get("forcings", {})
        # "flatten" is the one-level ladder eta = 1; "nested" steps by the eta key
        if ("eta" in raw) != (raw.get("strategy", "flatten") == "nested"):
            need = "required" if "eta" not in raw else "only read"
            raise ConfigError(f'config key eta: {need} with "strategy": "nested"')
        jumps = {k: tuple(v) if type(v) is list else v for k, v in raw.get("jumps", {}).items()}
        solver = {k: raw[k] for k in _fields(ContinuationConfig) if k in raw}
        try:
            self.subordinator = SubordinatorSpec(kappa=raw["kappa"], **jumps)
            self.grid = TimeGrid(a=raw.get("a", 0.0), T=raw["T"], n_steps=raw["n_steps"])
            self.basis = BasisSpec(**raw.get("basis", {}))
            self.solver = ContinuationConfig(**solver)
        except ValueError as err:
            # a settings object's message starts with the field it refuses
            key = str(err).split()[0]
            key = next((f"{s}/{key}" for s, keys in _SECTIONS.items() if key in keys), key)
            raise ConfigError(f"config key {key}: {err}") from None
        self.bundle = None
        if "bundle" in raw:
            try:
                self.bundle = get_bundle(raw["bundle"], **raw.get("bundle_params", {}))
            except (KeyError, TypeError, ValueError) as err:
                # the message itself: str() of a KeyError is the repr of its message
                message = err.args[0] if err.args else err
                raise ConfigError(f"config key bundle: {message}") from None
        elif "bundle_params" in raw:
            raise ConfigError("config key bundle_params: only read with a bundle")

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def ensemble(self):
        try:
            return build_ensemble(self.subordinator, self.grid, self.n_paths, self.seed, self.x0)
        except ValueError as err:
            raise ConfigError(f"config key jumps: {err}") from None

    def forcings(self, rows: slice) -> ForcingSet:
        """The scenario's constant forcings on a row block, as `solve_linear` takes them."""
        n_rows = len(range(self.n_paths)[rows])
        return ForcingSet.constant(n_rows, self.grid.n_steps, **self.forcing_values)

    def artifact_path(self, subcommand: str, ext: str) -> Path:
        return self.output_dir / f"{self.scenario}_{subcommand}_{self.seed}.{ext}"


def _write_csv(path: Path, config: ScenarioConfig, header: list[str], rows) -> None:
    """Write rows (array-like, one row per line) with every field as `%.17g`,
    which is `format(float(v), ".17g")`; chunks of lines are formatted in one
    `%` each."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={config.config_hash} seed={config.seed}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            block = table[start : start + _CSV_CHUNK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _nonfinite_key(value, path: str = ""):
    """The path (`apriori.lhs`, `levels[0].residuals[2]`) of the first
    non-finite number in a JSON document, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = []
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    return next(filter(None, (_nonfinite_key(v, key) for key, v in items)), None)


def _json_text(config: ScenarioConfig, payload: dict) -> str:
    """The JSON artifact: RFC 8259 has no NaN or infinity, so one is a
    numerical failure that names its key."""
    doc = {"config_hash": config.config_hash, "seed": config.seed, **payload}
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        key = _nonfinite_key(doc)
        raise FloatingPointError(f"non-finite value in the JSON payload at key {key}") from None


def _sample_subdiffusion(config: ScenarioConfig, strict: bool):
    """A long-format CSV with one row (path_id, t, L, R, X) per path and grid
    node, and a JSON summary."""
    ens = config.ensemble()
    m, nodes = ens.n_paths, ens.n_steps + 1
    ids, t = np.repeat(np.arange(m), nodes), np.tile(ens.grid.times(), m)
    rows = np.column_stack([ids, t, ens.L.ravel(), ens.R.ravel(), ens.X.ravel()])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite summary is refused as JSON
        summary = {
            "subordinator": dataclasses.asdict(config.subordinator),
            "n_paths": ens.n_paths,
            "mean_L_T": float(np.mean(ens.L[:, -1])),
            "x0": config.x0,
            "var_X_T": float(np.var(ens.X[:, -1])),
        }
    return EXIT_OK, (["path_id", "t", "L", "R", "X"], rows), summary


def _checked_bundle(config: ScenarioConfig, strict: bool):
    """The scenario's bundle, its hypothesis report, and the exit code of the
    check: EXIT_HYPOTHESIS, with one stderr line, if it fails under strict."""
    bundle = config.bundle
    if bundle is None:
        raise ConfigError("config key bundle: required for this subcommand")
    report = check_hypothesis(bundle, np.random.default_rng(config.seed))
    if strict and not report.passed:
        print(f"hypothesis check failed for bundle {bundle.name}", file=sys.stderr)
        return bundle, report, EXIT_HYPOTHESIS
    return bundle, report, EXIT_OK


def _check_hypothesis(config: ScenarioConfig, strict: bool):
    bundle, report, code = _checked_bundle(config, strict)
    return code, None, {"bundle": bundle.name, "report": dataclasses.asdict(report)}


def _solution_csv(ensemble, theta):
    """The moments table (header, rows) of a solution, one row per grid node."""
    # one reduction per moment over a node-major copy: each node's row is
    # contiguous, so it is summed in the order of np.mean(a[:, k]), which a
    # column-wise mean(axis=0) does not keep; one copy is alive at a time
    header = ["t", "mean_x", "mean_y", "mean_z", "sd_x", "sd_y"]
    table = np.empty((ensemble.n_steps + 1, len(header)))
    table[:, 0] = ensemble.grid.times()
    for j, a in enumerate((theta.x, theta.y, theta.z)):
        a = np.ascontiguousarray(a.T)
        table[:, 1 + j] = a.mean(axis=1)
        if j < 2:  # the sd of x and of y
            table[:, 4 + j] = a.std(axis=1)
        del a  # before the next copy is made
    return header, table


def _solve_linear(config: ScenarioConfig, strict: bool):
    ens = config.ensemble()
    with _solver_config_errors():
        theta = solve_linear(config.forcings, config.x0, RegressionPlan(ens, config.basis))
    payload = {
        "m_norm": dataclasses.asdict(m_norm(theta)),
        "apriori": dataclasses.asdict(apriori_ratio(theta, config.forcings, config.x0)),
    }
    return EXIT_OK, _solution_csv(ens, theta), payload


def _run_solve(config: ScenarioConfig, strict: bool):
    bundle, report, code = _checked_bundle(config, strict)
    if code != EXIT_OK:
        return code, None, None
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
        print(str(err), file=sys.stderr)
        return EXIT_DIVERGED, None, {**dataclasses.asdict(err.diagnostics), "error": str(err)}
    stuck = [level for level in diag.levels if not level.converged]
    if stuck:
        print(
            f"Picard iteration did not converge within max_picard={config.solver.max_picard} "
            f"iterates: {len(stuck)} of {len(diag.levels)} loops, the first at "
            f"alpha={stuck[0].alpha:g} with last residual {stuck[0].residuals[-1]:g}",
            file=sys.stderr,
        )
    code = EXIT_NOT_CONVERGED if stuck else EXIT_OK
    return code, _solution_csv(ens, theta), dataclasses.asdict(diag)


# subcommand -> handler(config, strict) -> (exit code, CSV (header, rows) or None,
# JSON payload or None); the usage line lists these keys
_HANDLERS = {
    "sample-subdiffusion": _sample_subdiffusion,
    "check-hypothesis": _check_hypothesis,
    "solve-linear": _solve_linear,
    "solve": _run_solve,
}
# the subcommands that check a bundle, and so read --strict
_STRICT = ("check-hypothesis", "solve")


def _unwritable(directory: Path) -> OSError | None:
    """Why no artifact can be written in directory, judged at its nearest
    existing ancestor without creating anything: not a directory, or not
    writable.  None where the writes may go ahead (they can still fail)."""
    for path in (directory, *directory.parents):
        if path.exists():
            if not path.is_dir():
                return NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
            if not os.access(path, os.W_OK | os.X_OK):
                return PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return None
    return None


def run(subcommand: str, config_path, output_dir=None, strict=False) -> int:
    """Run one subcommand on a scenario JSON and write its artifacts, the CSV
    and then the JSON, whatever the exit code; return the exit code.  An
    output directory that cannot be written is refused before any compute."""
    if subcommand not in _HANDLERS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_CONFIG
    if strict and subcommand not in _STRICT:
        print(f"--strict: read only by {' and '.join(_STRICT)}", file=sys.stderr)
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
        key = next((k for k in raw if subcommand not in _READ_BY.get(k, (subcommand,))), None)
        if key is not None:
            raise ConfigError(f"config key {key}: read only by {' and '.join(_READ_BY[key])}")
        if output_dir is not None:
            config.output_dir = Path(output_dir)
        unwritable = _unwritable(config.output_dir)
        if unwritable is not None:
            print(f"cannot write artifacts to {config.output_dir}: {unwritable}", file=sys.stderr)
            return EXIT_CONFIG
        code, table, payload = _HANDLERS[subcommand](config, strict)
        text = None if payload is None else _json_text(config, payload)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:
        print(f"cannot allocate the arrays of this run: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if table is not None or text is not None:
            config.output_dir.mkdir(parents=True, exist_ok=True)
        if table is not None:
            _write_csv(config.artifact_path(subcommand, "csv"), config, *table)
        if text is not None:
            config.artifact_path(subcommand, "json").write_text(text, newline="\n")
    except OSError as err:
        print(f"cannot write artifacts to {config.output_dir}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subfbsde",
        description="Monte Carlo FBSDE solvers driven by sub-diffusions",
    )
    # run() refuses an unknown subcommand with one stderr line, like a bad config
    parser.add_argument("subcommand", metavar="{" + ",".join(_HANDLERS) + "}")
    parser.add_argument("config", help="scenario JSON path")
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="check-hypothesis and solve: a failed hypothesis check is fatal (exit 4)",
    )
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.output_dir, args.strict)


if __name__ == "__main__":
    sys.exit(main())
