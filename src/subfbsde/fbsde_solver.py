"""Fully coupled FBSDE solver by continuation and Picard iteration.

Each Picard iterate freezes the previous solution inside the coupling gap
and solves the explicitly tractable base system with updated forcings.  The
continuation ladder has ceil(1/eta) levels with steps at most eta; each
level's Picard loop solves the anchor system by calling the level below it,
down to the linear base solver.  The cost is exponential in the ladder
depth, so the depth is bounded.  eta = 1 is a single Picard loop anchored on
the linear base solver with the whole coupling gap taken in one step:
heuristic beyond the provable step bound, with divergence detection.

Sign-flipped (increasing-orientation) bundles are solved by the same
machinery through the (y, z) -> (-y, -z) mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientBundle, default_c1, eta0, mirror_bundle
from .diagnostics import AprioriReport, MNormValue, apriori_ratio, contraction_fit, m_norm
from .linear_solver import ForcingSet, SolutionTriple, solve_linear
from .regression import BasisSpec, RegressionPlan, _row_slices
from .subdiffusion import MarkovState, PathEnsemble

__all__ = [
    "ContinuationConfig",
    "SolveDiagnostics",
    "DivergedError",
    "picard_forcings",
    "solve_fbsde",
]


@dataclass
class ContinuationConfig:
    eta: float | None = 1.0  # None: use the derived step bound
    picard_tol: float = 1e-3  # relative to the first iterate's norm
    max_picard: int = 25
    nested_max_depth: int = 3
    C1: float | None = None

    def __post_init__(self):
        if self.eta is not None and not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if not (self.picard_tol > 0.0):
            raise ValueError("picard_tol must be positive")
        if self.max_picard < 1:
            raise ValueError("max_picard must be at least 1")
        if self.nested_max_depth < 1:
            raise ValueError("nested_max_depth must be at least 1")
        if self.C1 is not None and not (self.C1 > 0.0):
            raise ValueError("C1 must be positive")

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
    m_norm: MNormValue | None = None  # of the final solution; None if diverged
    apriori: AprioriReport | None = None
    diverged: bool = False
    total_linear_solves: int = 0

    def to_json_dict(self) -> dict:
        """The solve/diagnose JSON payload; the contraction entry describes
        the last recorded level."""
        level = self.levels[-1] if self.levels else None
        residuals = list(level.residuals) if level else []
        ratios = [
            residuals[i + 1] / residuals[i]
            for i in range(len(residuals) - 1)
            if residuals[i] > 0.0
        ]
        return {
            "m_norm": self.m_norm.to_json_dict() if self.m_norm else None,
            "contraction": {"ratios": ratios, "fit": level.ratio if level else None},
            "apriori": self.apriori.to_json_dict() if self.apriori else None,
            "diverged": self.diverged,
            "levels": [lv.to_json_dict() for lv in self.levels],
            "total_linear_solves": self.total_linear_solves,
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
    base_forcings: ForcingSet | None,
    ensemble: PathEnsemble,
) -> ForcingSet:
    """Forcings that carry the previous iterate across a continuation step of
    size eta.  The x-direction contributions enter with a minus sign so that
    the level-(alpha0+eta) coefficients are recovered in the Picard limit,
    mirroring the plus signs in the continuation family for g, h, phi.

    base_forcings None stands for zero base forcings.  Each node forcing
    base + eta * (v + coefficient) is built in place, one row block of paths
    at a time: the bundle's pointwise evaluators see the block's states and
    iterates.  A factor eta of 1 and a zero base are not applied."""
    t = ensemble.grid.times()
    x, y, z = theta_prev.x, theta_prev.y, theta_prev.z
    out = {name: np.empty(x.shape) for name in ("b0", "g0", "delta0", "h0", "sigma0")}
    for rows in _row_slices(0, x.shape[0]):
        st = MarkovState(x=ensemble.X[rows], r=ensemble.R[rows])
        xr, yr, zr = x[rows], y[rows], z[rows]
        np.add(yr, bundle.b(t, st, xr, yr), out=out["b0"][rows])
        np.add(yr, bundle.delta(t, st, xr, yr, zr), out=out["delta0"][rows])
        np.add(zr, bundle.sigma(t, st, xr, yr, zr), out=out["sigma0"][rows])
        np.subtract(bundle.h(t, st, xr, yr, zr), xr, out=out["h0"][rows])
        np.subtract(bundle.g(t, st, xr, yr), xr, out=out["g0"][rows])
        for name, arr in out.items():
            block = arr[rows]
            if eta != 1.0:
                block *= eta
            if base_forcings is not None:
                block += getattr(base_forcings, name)[rows]
    st_T = MarkovState(x=ensemble.X[:, -1], r=ensemble.R[:, -1])
    x_T = x[:, -1]
    phi0 = -x_T + np.broadcast_to(bundle.phi(st_T, x_T), x_T.shape)
    if eta != 1.0:
        phi0 *= eta
    if base_forcings is not None:
        phi0 += base_forcings.phi0
    return ForcingSet(**out, phi0=phi0)


def _record_level(diag: SolveDiagnostics, alpha, eta, residuals, converged):
    ratio = None
    if len(residuals) >= 3 and all(r > 0.0 for r in residuals):
        ratio = contraction_fit(residuals)
    diag.levels.append(
        LevelRecord(alpha=alpha, eta=eta, residuals=residuals, converged=converged, ratio=ratio)
    )


def _mirrored(theta: SolutionTriple) -> SolutionTriple:
    """The (y, z) -> (-y, -z) mirror between a sign-flipped bundle's
    variables and the working variables of its mirror bundle."""
    return SolutionTriple(theta.x, -theta.y, -theta.z, theta.dt, theta.dL)


def _zero_point_data(bundle: CoefficientBundle, ensemble: PathEnsemble, rows: slice) -> ForcingSet:
    """The a priori data of a coupled system on a row block of paths: the
    bundle's coefficients at the zero solution."""
    t, st = ensemble.grid.times(), MarkovState(x=ensemble.X[rows], r=ensemble.R[rows])
    o = np.zeros(st.x.shape)
    b, g, delta = bundle.b(t, st, o, o), bundle.g(t, st, o, o), bundle.delta(t, st, o, o, o)
    h, sigma = bundle.h(t, st, o, o, o), bundle.sigma(t, st, o, o, o)
    phi = bundle.phi(MarkovState(x=st.x[:, -1], r=st.r[:, -1]), o[:, -1])
    return ForcingSet(*(o + v for v in (b, g, delta, h, sigma)), o[:, -1] + phi)


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
    of the top ladder level (uniqueness probes).  Raises ValueError if the
    ladder needs more than config.nested_max_depth levels, and DivergedError
    (with the partial diagnostics attached) if a Picard loop blows up.
    """
    config = config or ContinuationConfig()
    basis = basis or BasisSpec()
    flipped = bundle.orientation == "increasing"
    work = mirror_bundle(bundle) if flipped else bundle
    if flipped and theta0 is not None:
        theta0 = _mirrored(theta0)

    eta = config.resolved_eta(work, ensemble.kappa, ensemble.grid.T)
    n_levels = math.ceil(1.0 / eta)
    if n_levels > config.nested_max_depth:
        raise ValueError(
            f"continuation ladder needs {n_levels} levels (eta={eta:g}) but "
            f"nested_max_depth={config.nested_max_depth}; enlarge eta or the depth "
            "bound"
        )
    alphas = [min(i * eta, 1.0) for i in range(n_levels + 1)]

    diag = SolveDiagnostics()
    plan = RegressionPlan(ensemble, basis)  # shared by every linear solve below
    # last solution of each level, the seed of its next Picard loop; the top
    # level is seeded by theta0, every level without a seed by zero
    warm: list = [None] * n_levels + [theta0]

    def solve_at(k: int, f: ForcingSet | None) -> SolutionTriple:
        """Solve the level-alphas[k] system with forcings f (None: zero
        forcings, k >= 1 only).  Level 0 is the linear base system; level k
        runs the Picard loop of the step from alphas[k-1], each iterate
        solving the anchor system at level k-1."""
        if k == 0:
            diag.total_linear_solves += 1
            return solve_linear(f, x0, plan)
        alpha, step = alphas[k], alphas[k] - alphas[k - 1]
        theta = warm[k] if warm[k] is not None else SolutionTriple.zeros(ensemble)
        residuals: list[float] = []
        threshold = None
        converged = False
        for _ in range(config.max_picard):
            theta_new = solve_at(k - 1, picard_forcings(work, theta, step, f, ensemble))
            res = m_norm(theta_new, theta).value
            residuals.append(res)
            if threshold is None:
                threshold = config.picard_tol * max(m_norm(theta_new).value, 1e-12)
            theta = theta_new
            if res <= threshold:
                converged = True
                break
            if res > 1e6 * max(residuals[0], 1e-300) or (
                len(residuals) >= 4
                and residuals[-1] > residuals[-2] > residuals[-3] > residuals[-4]
            ):
                raise DivergedError(alpha, step, residuals)
        warm[k] = theta
        if k == n_levels:
            _record_level(diag, alpha, step, residuals, converged)
        return theta

    try:
        theta = solve_at(n_levels, None)
    except DivergedError as err:
        diag.diverged = True
        _record_level(diag, err.alpha, err.eta, err.residuals, False)
        err.diagnostics = diag
        raise

    if flipped:
        theta = _mirrored(theta)
    diag.m_norm = m_norm(theta)
    diag.apriori = apriori_ratio(theta, lambda rows: _zero_point_data(bundle, ensemble, rows), x0)
    return theta, diag
