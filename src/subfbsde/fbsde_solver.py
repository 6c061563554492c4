"""Fully coupled FBSDE solver by continuation and Picard iteration.

Each Picard iterate freezes the previous solution inside the coupling gap
and solves the explicitly tractable base system with updated forcings.  Two
strategies are provided:

* "flatten": a single Picard loop anchored on the linear base solver with
  the whole coupling gap taken in one step.  Heuristic beyond the provable
  step bound, with divergence detection.
* "nested": a ladder of continuation levels with steps at most eta, each
  level's Picard loop calling the previous level's solver recursively.
  Exact but exponential in the ladder depth, so the depth is bounded.

Sign-flipped (increasing-orientation) bundles are solved by the same
machinery through the (y, z) -> (-y, -z) mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientBundle, default_c1, eta0, mirror_bundle
from .diagnostics import AprioriReport, apriori_ratio, contraction_fit, m_norm
from .linear_solver import ForcingSet, SolutionTriple, solve_linear
from .regression import BasisSpec, RegressionPlan
from .subdiffusion import MarkovState, PathEnsemble

__all__ = [
    "ContinuationConfig",
    "SolveDiagnostics",
    "DivergedError",
    "picard_forcings",
    "solve_level",
    "solve_fbsde",
]


@dataclass
class ContinuationConfig:
    eta: float | None = None  # None: use the derived step bound
    picard_tol: float = 1e-3  # relative to the first iterate's norm
    max_picard: int = 25
    strategy: str = "flatten"
    nested_max_depth: int = 3
    C1: float | None = None
    warm_start: bool = True

    def __post_init__(self):
        if self.eta is not None and not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if not (self.picard_tol > 0.0):
            raise ValueError("picard_tol must be positive")
        if self.strategy not in ("flatten", "nested"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def resolved_eta(self, bundle: CoefficientBundle, kappa: float, T: float) -> float:
        if self.eta is not None:
            return self.eta
        c1 = self.C1 if self.C1 is not None else default_c1(bundle.lipschitz)
        return eta0(bundle.lipschitz, bundle.monotonicity, kappa, T, c1)


@dataclass
class LevelRecord:
    alpha: float
    eta: float
    residuals: list
    converged: bool
    ratio: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "eta": self.eta,
            "residuals": list(self.residuals),
            "converged": self.converged,
            "contraction_ratio": self.ratio,
        }


@dataclass
class SolveDiagnostics:
    levels: list = field(default_factory=list)
    apriori: AprioriReport | None = None
    diverged: bool = False
    total_linear_solves: int = 0
    picard_threshold: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "levels": [lv.to_json_dict() for lv in self.levels],
            "apriori": self.apriori.to_json_dict() if self.apriori else None,
            "diverged": self.diverged,
            "total_linear_solves": self.total_linear_solves,
            "picard_threshold": self.picard_threshold,
        }


class DivergedError(RuntimeError):
    """Picard residuals blew up; signals a step beyond the contraction
    regime or a hypothesis violation."""

    def __init__(self, alpha: float, eta: float, residuals, diagnostics=None):
        self.alpha = alpha
        self.eta = eta
        self.residuals = list(residuals)
        self.diagnostics = diagnostics
        super().__init__(
            f"Picard iteration diverged at alpha={alpha:g}, eta={eta:g}; "
            f"residuals={self.residuals}"
        )


def picard_forcings(
    bundle: CoefficientBundle,
    theta_prev: SolutionTriple,
    eta: float,
    base_forcings: ForcingSet,
    ensemble: PathEnsemble,
) -> ForcingSet:
    """Forcings that carry the previous iterate across a continuation step of
    size eta.  The x-direction contributions enter with a minus sign so that
    the level-(alpha0+eta) coefficients are recovered in the Picard limit,
    mirroring the plus signs in the continuation family for g, h, phi."""
    t = ensemble.grid.times()
    st = MarkovState(x=ensemble.X, r=ensemble.R)
    x, y, z = theta_prev.x, theta_prev.y, theta_prev.z
    st_T = MarkovState(x=ensemble.X[:, -1], r=ensemble.R[:, -1])
    x_T = x[:, -1]
    shape = x.shape
    bb = np.broadcast_to
    return ForcingSet(
        b0=base_forcings.b0 + eta * (y + bb(bundle.b(t, st, x, y), shape)),
        delta0=base_forcings.delta0 + eta * (y + bb(bundle.delta(t, st, x, y, z), shape)),
        sigma0=base_forcings.sigma0 + eta * (z + bb(bundle.sigma(t, st, x, y, z), shape)),
        h0=base_forcings.h0 + eta * (-x + bb(bundle.h(t, st, x, y, z), shape)),
        g0=base_forcings.g0 + eta * (-x + bb(bundle.g(t, st, x, y), shape)),
        phi0=base_forcings.phi0
        + eta * (-x_T + bb(bundle.phi(st_T, x_T), x_T.shape)),
    )


def solve_level(
    level_solver,
    bundle: CoefficientBundle,
    eta: float,
    base_forcings: ForcingSet,
    ensemble: PathEnsemble,
    config: ContinuationConfig,
    alpha: float = 0.0,
    theta0: SolutionTriple | None = None,
):
    """Picard loop for one continuation step.

    level_solver(forcings) must solve the anchor system with the given
    forcings.  Returns (solution, residual norms, converged).
    """
    theta = theta0 if theta0 is not None else SolutionTriple.zeros(ensemble)
    residuals: list[float] = []
    threshold = None
    converged = False
    for _ in range(config.max_picard):
        f = picard_forcings(bundle, theta, eta, base_forcings, ensemble)
        theta_new = level_solver(f)
        res = m_norm(theta_new.sub(theta)).value
        residuals.append(res)
        if threshold is None:
            threshold = config.picard_tol * max(m_norm(theta_new).value, 1e-12)
        theta = theta_new
        if res <= threshold:
            converged = True
            break
        if len(residuals) >= 4 and (
            residuals[-1] > residuals[-2] > residuals[-3] > residuals[-4]
        ):
            raise DivergedError(alpha, eta, residuals)
        if res > 1e6 * max(residuals[0], 1e-300):
            raise DivergedError(alpha, eta, residuals)
    return theta, residuals, converged


def _record_level(diag: SolveDiagnostics, alpha, eta, residuals, converged):
    ratio = None
    if len(residuals) >= 3 and all(r > 0.0 for r in residuals):
        ratio = contraction_fit(residuals)
    diag.levels.append(
        LevelRecord(alpha=alpha, eta=eta, residuals=residuals, converged=converged, ratio=ratio)
    )


def solve_fbsde(
    bundle: CoefficientBundle,
    x0: float,
    ensemble: PathEnsemble,
    config: ContinuationConfig | None = None,
    basis: BasisSpec | None = None,
    theta0: SolutionTriple | None = None,
):
    """End-to-end solve of the fully coupled FBSDE on the ensemble.

    Returns (solution, diagnostics).  theta0 overrides the zero Picard seed
    (uniqueness probes).  Raises DivergedError (with the partial diagnostics
    attached) if a Picard loop blows up.
    """
    config = config or ContinuationConfig()
    basis = basis or BasisSpec()
    flipped = bundle.orientation == "increasing"
    work = mirror_bundle(bundle) if flipped else bundle

    diag = SolveDiagnostics()
    plan = RegressionPlan(ensemble, basis)  # shared by every linear solve below

    def linear(f: ForcingSet) -> SolutionTriple:
        diag.total_linear_solves += 1
        return solve_linear(f, x0, ensemble, plan=plan)[0]

    base = ForcingSet.zeros(ensemble.n_paths, ensemble.n_steps)
    try:
        if config.strategy == "flatten":
            theta, residuals, converged = solve_level(
                linear, work, 1.0, base, ensemble, config, alpha=1.0, theta0=theta0
            )
            _record_level(diag, 1.0, 1.0, residuals, converged)
        else:
            theta = _solve_nested(linear, work, x0, base, ensemble, config, diag)
    except DivergedError as err:
        diag.diverged = True
        _record_level(diag, err.alpha, err.eta, err.residuals, False)
        err.diagnostics = diag
        raise

    if flipped:
        theta = SolutionTriple(theta.x, -theta.y, -theta.z, theta.dt, theta.dL)
    diag.picard_threshold = config.picard_tol * max(m_norm(theta).value, 1e-12)
    diag.apriori = apriori_ratio(theta, bundle, x0, ensemble)
    return theta, diag


def _solve_nested(
    linear,
    bundle: CoefficientBundle,
    x0: float,
    base: ForcingSet,
    ensemble: PathEnsemble,
    config: ContinuationConfig,
    diag: SolveDiagnostics,
) -> SolutionTriple:
    eta = config.resolved_eta(bundle, ensemble.kappa, ensemble.grid.T)
    n_levels = math.ceil(1.0 / eta)
    if n_levels > config.nested_max_depth:
        raise ValueError(
            f"nested ladder needs {n_levels} levels (eta={eta:g}) but "
            f"nested_max_depth={config.nested_max_depth}; enlarge eta or the depth "
            "bound, or use the flatten strategy"
        )
    alphas = [min(i * eta, 1.0) for i in range(n_levels + 1)]

    def make_solver(k: int):
        if k == 0:
            return lambda f, theta0=None: linear(f)
        prev = make_solver(k - 1)
        step = alphas[k] - alphas[k - 1]
        memo = {"warm": None}

        def solver(f: ForcingSet, theta0: SolutionTriple | None = None):
            seed = theta0 if theta0 is not None else memo["warm"]
            theta, residuals, converged = solve_level(
                lambda g: prev(g),
                bundle,
                step,
                f,
                ensemble,
                config,
                alpha=alphas[k],
                theta0=seed,
            )
            if k == n_levels:
                _record_level(diag, alphas[k], step, residuals, converged)
            if config.warm_start:
                memo["warm"] = theta
            return theta

        return solver

    top = make_solver(n_levels)
    return top(base)
