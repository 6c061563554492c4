"""Benchmark workloads: the scenario each one feeds the CLI, and the checks
its artifacts must pass.

Why these three (see NOTES.md for the measured split):

* jump_solve: the README `jump_demo` scale with exponential jumps and the
  `riccati_test` bundle; the one workload where the clock and the
  regressions both carry weight.
* drift_ladder: a jump-free clock (inverted once and shared, so the clock
  layer sits idle) and the nested continuation ladder, so linear solves are
  nearly all of the time; it has an independent shooting oracle.
* pareto_sample: heavy-tailed jumps written out as a 1M-row CSV; no
  regression at all, artifact formatting dominates.  Not listed in
  BENCHMARK.json: its timings swing too far with the host's load (NOTES.md).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

FULL_SIZE = {"n_paths": 10_000, "n_steps": 100}

_COMMON = {"kappa": 1.0, "T": 1.0, "x0": 1.0, "output_dir": "out"}
_SOLVER = {"picard_tol": 1e-3, "basis": {"degree": 2, "include_r": True}}

SCENARIOS = {
    "jump_solve": (
        "solve",
        {
            "jumps": {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0},
            "bundle": "riccati_test",
            "strategy": "flatten",
            **_SOLVER,
        },
    ),
    "drift_ladder": (
        "solve",
        {
            "jumps": {"jump_kind": "none"},
            "bundle": "canonical_monotone",
            "bundle_params": {"c": 0.5},
            "strategy": "nested",
            "eta": 0.5,
            **_SOLVER,
        },
    ),
    "pareto_sample": (
        "sample-subdiffusion",
        {"jumps": {"jump_kind": "pareto", "rate": 2.0, "jump_param": [0.3, 1.5]}},
    ),
}


class CheckFailed(Exception):
    pass


def scenario(workload: str, seed: int, n_paths: int, n_steps: int) -> tuple[str, dict]:
    """(subcommand, scenario JSON) for one workload; the seed is the only input
    that varies between runs."""
    subcommand, extra = SCENARIOS[workload]
    raw = {"scenario": workload, "seed": seed, "n_steps": n_steps, "n_paths": n_paths}
    return subcommand, {**raw, **_COMMON, **extra}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_csv(path: Path) -> tuple[str, str, np.ndarray]:
    with open(path) as fh:
        stamp = fh.readline().rstrip("\n")
        header = fh.readline().rstrip("\n")
    return stamp, header, np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


class Checker:
    """Checks the artifacts of every invocation in one run.

    `reference` holds the tolerances and reference values (reference.json at
    full size).  `check` raises CheckFailed and otherwise returns the values
    the per-layer report uses.
    """

    def __init__(self, workload: str, raw: dict, reference: dict, config_hash: str):
        self.workload = workload
        self.raw = raw
        self.reference = reference
        self.config_hash = config_hash
        self.subcommand = SCENARIOS[workload][0]
        self.first_digest: dict[str, str] | None = None
        self.info: dict = {}

    def artifact(self, out_dir: Path, ext: str) -> Path:
        return out_dir / f"{self.workload}_{self.subcommand}_{self.raw['seed']}.{ext}"

    def check(self, rc: int, out_dir: Path) -> dict:
        _require(rc == 0, f"exit code {rc}")
        digest = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }
        _require(
            set(digest) == {self.artifact(out_dir, e).name for e in ("csv", "json")},
            f"unexpected artifacts {sorted(digest)}",
        )
        if self.first_digest is not None:
            # byte-identical reruns: identical bytes have passed the checks below
            _require(digest == self.first_digest, "artifacts differ from the run's first")
            return self.info
        stamp, header, rows = _read_csv(self.artifact(out_dir, "csv"))
        _require(
            stamp == f"# config_hash={self.config_hash} seed={self.raw['seed']}",
            f"CSV stamp {stamp!r}",
        )
        _require(bool(np.all(np.isfinite(rows))), "non-finite value in the CSV")
        doc = json.loads(self.artifact(out_dir, "json").read_text())
        _require(doc.get("config_hash") == self.config_hash, "JSON config hash")
        _require(doc.get("seed") == self.raw["seed"], "JSON seed")
        if self.subcommand == "solve":
            self.info = self._check_solve(header, rows, doc)
        else:
            self.info = self._check_sample(header, rows)
        self.first_digest = digest
        return self.info

    def _check_solve(self, header: str, rows: np.ndarray, doc: dict) -> dict:
        _require(header == "t,mean_x,mean_y,mean_z,sd_x,sd_y", f"CSV header {header!r}")
        n_steps = self.raw["n_steps"]
        _require(rows.shape == (n_steps + 1, 6), f"CSV shape {rows.shape}")
        _require(not doc["diverged"] and doc["levels"][-1]["converged"], "not converged")
        norm = doc["m_norm"]["value"]
        _require(math.isfinite(norm), "non-finite m_norm")
        info = {"linear_solves": doc["total_linear_solves"], "oracle_rel_err": 0.0}
        ref = self.reference[self.workload]
        if self.workload == "jump_solve":
            for name, value in (("mean_y0", rows[0, 2]), ("m_norm", norm)):
                want, tol = ref[name]["value"], ref[name]["tol"]
                _require(abs(value - want) <= tol,
                         f"{name} {float(value)!r} not within {tol} of {want}")
        else:
            err = oracle_rel_err(rows, doc["m_norm"]["parts"], self.raw)
            _require(err <= ref["oracle_rel_err_max"], f"oracle relative error {err:.3e}")
            info["oracle_rel_err"] = err
        return info

    def _check_sample(self, header: str, rows: np.ndarray) -> dict:
        _require(header == "path_id,t,L,R,X", f"CSV header {header!r}")
        m, n = self.raw["n_paths"], self.raw["n_steps"]
        _require(rows.shape == (m * (n + 1), 5),
                 f"CSV shape {rows.shape}, want {m * (n + 1)} rows")
        ids = rows[:, 0].reshape(m, n + 1)
        _require(bool(np.all(ids == np.arange(m)[:, None])), "path ids out of order")
        t = rows[:, 1].reshape(m, n + 1)
        _require(bool(np.all(t == np.linspace(0.0, self.raw["T"], n + 1))), "time column")
        dL = np.diff(rows[:, 2].reshape(m, n + 1), axis=1)
        cap = self.raw["T"] / n / self.raw["kappa"]
        slack = 1e-12 * cap  # L is a cumulative sum of clipped steps
        _require(bool(np.all(dL >= -slack)), f"clock decreases: min dL {float(dL.min())!r}")
        _require(bool(np.all(dL <= cap + slack)),
                 f"clock outruns dt/kappa: max dL {float(dL.max())!r}")
        _require(bool(np.all(rows[:, 3] >= 0.0)), "negative overshoot R")
        return {"linear_solves": 0, "oracle_rel_err": 0.0}


def oracle_rel_err(rows: np.ndarray, parts: dict, raw: dict) -> float:
    """Relative M-norm error of a drift-only canonical solve against the
    shooting oracle in tests/oracles.py.

    The oracle is deterministic with z = 0, so per node
    E|x - x_o|^2 = sd_x^2 + (mean_x - x_o)^2, which the CSV carries, and the
    z part is the artifact's own dL part of the M-norm.  The same sum with a
    zero oracle must reproduce the artifact's M-norm.
    """
    from oracles import canonical_coupled_oracle

    t = rows[:, 0]
    xo, yo = canonical_coupled_oracle(t, x0=raw["x0"], c=raw["bundle_params"]["c"])
    n, dt = t.size - 1, t[1] - t[0]
    mean_x, mean_y, sd_x, sd_y = rows[:, 1], rows[:, 2], rows[:, 4], rows[:, 5]

    def sq_norm(ox, oy):
        dx, dy = mean_x - ox, mean_y - oy
        nodes = dx[:n] ** 2 + sd_x[:n] ** 2 + dy[:n] ** 2 + sd_y[:n] ** 2
        return dx[0] ** 2 + sd_x[0] ** 2 + dt * np.sum(nodes) + parts["dL"]

    theta_sq = parts["x0"] + parts["dt"] + parts["dL"]
    _require(
        abs(sq_norm(0.0, 0.0) - theta_sq) <= 1e-9 * theta_sq,
        "CSV moments disagree with the JSON m_norm",
    )
    oracle_sq = xo[0] ** 2 + dt * np.sum(xo[:n] ** 2 + yo[:n] ** 2)
    return math.sqrt(sq_norm(xo, yo) / oracle_sq)
