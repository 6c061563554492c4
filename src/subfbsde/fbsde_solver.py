"""Fully coupled FBSDE solver by continuation and Picard iteration.

Each Picard iterate freezes the previous solution inside the coupling gap
and solves the explicitly tractable base system with updated forcings.  The
continuation ladder has ceil(1/eta) levels with steps at most eta; each
level's Picard loop solves the anchor system by calling the level below it,
down to the linear base solver.  The cost is exponential in the ladder
depth, so a ladder deeper than MAX_LADDER_DEPTH levels is refused.  The
paper's provable step depends on (L, c, kappa, T) and needs dozens of
levels, so every step that runs is heuristic, with divergence detection;
eta = 1 is a single Picard loop anchored on the linear base solver.

Sign-flipped (increasing-orientation) bundles are solved by the same
machinery through the (y, z) -> (-y, -z) mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .coefficients import CoefficientBundle, mirror_bundle
from .diagnostics import AprioriReport, MNormValue, apriori_ratio, contraction_fit, m_norm
from .linear_solver import ForcingSet, SolutionTriple, solve_linear
from .regression import BasisSpec, RegressionPlan
from .subdiffusion import MarkovState, PathEnsemble

__all__ = [
    "ContinuationConfig",
    "SolveDiagnostics",
    "DivergedError",
    "picard_forcings",
    "solve_fbsde",
]


# the deepest continuation ladder a solve runs: its cost is exponential in the depth
MAX_LADDER_DEPTH = 3


@dataclass
class ContinuationConfig:
    eta: float = 1.0  # continuation step: a ladder of ceil(1/eta) levels
    picard_tol: float = 1e-3  # relative to the first iterate's norm
    max_picard: int = 25

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        depth = math.ceil(1.0 / self.eta)
        if depth > MAX_LADDER_DEPTH:
            raise ValueError(
                f"eta {self.eta:g} needs {depth} ladder levels, more than {MAX_LADDER_DEPTH}"
            )
        if not (0.0 < self.picard_tol < math.inf):
            raise ValueError("picard_tol must be finite and positive")
        if self.max_picard < 1:
            raise ValueError("max_picard must be at least 1")


@dataclass
class LevelRecord:
    alpha: float
    eta: float
    residuals: list
    converged: bool
    contraction_ratio: float | None = None


@dataclass
class SolveDiagnostics:
    levels: list = field(default_factory=list)
    m_norm: MNormValue | None = None  # of the final solution; None if diverged
    apriori: AprioriReport | None = None
    diverged: bool = False
    total_linear_solves: int = 0
    inner_unconverged: int = 0  # inner ladder loops that stopped at max_picard
    contraction: dict | None = None  # the last recorded level's "ratios" and "fit"


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
    base_forcings,
    ensemble: PathEnsemble,
):
    """Forcings that carry the previous iterate across a continuation step of
    size eta.  The x-direction contributions enter with a minus sign so that
    the level-(alpha0+eta) coefficients are recovered in the Picard limit,
    mirroring the plus signs in the continuation family for g, h, phi.

    Returns the row-block forcings of `solve_linear`: base + eta * (v +
    coefficient), the bundle evaluated on a row block's states and iterates.
    base_forcings(rows) is the base; None stands for zero base forcings."""
    return partial(_forcings_on_rows, bundle, theta_prev, eta, base_forcings, ensemble)


def _forcings_on_rows(bundle, theta, eta, base_forcings, ensemble, rows: slice) -> ForcingSet:
    """`picard_forcings` on a row block; an eta of 1 and a zero base are not applied."""
    t, st = ensemble.grid.times(), MarkovState(x=ensemble.X[rows], r=ensemble.R[rows])
    x, y, z = theta.x[rows], theta.y[rows], theta.z[rows]
    st_T, x_T = MarkovState(x=st.x[:, -1], r=st.r[:, -1]), x[:, -1]
    out = ForcingSet(
        b0=np.add(y, bundle.b(t, st, x, y)),
        g0=np.subtract(bundle.g(t, st, x, y), x),
        delta0=np.add(y, bundle.delta(t, st, x, y, z)),
        h0=np.subtract(bundle.h(t, st, x, y, z), x),
        sigma0=np.add(z, bundle.sigma(t, st, x, y, z)),
        phi0=np.subtract(bundle.phi(st_T, x_T), x_T),
    )
    base = base_forcings(rows) if base_forcings is not None else None
    for f in fields(out):
        arr = getattr(out, f.name)
        if eta != 1.0:
            arr *= eta
        if base is not None:
            arr += getattr(base, f.name)
    return out


def _record_level(diag: SolveDiagnostics, alpha, eta, residuals, converged):
    fit = None
    if len(residuals) >= 3 and all(r > 0.0 for r in residuals):
        fit = contraction_fit(residuals)
    diag.levels.append(LevelRecord(alpha, eta, residuals, converged, contraction_ratio=fit))
    ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 0.0]
    diag.contraction = {"ratios": ratios, "fit": fit}


def _mirrored(theta: SolutionTriple) -> SolutionTriple:
    """The (y, z) -> (-y, -z) mirror between a sign-flipped bundle's
    variables and the working variables of its mirror bundle."""
    return SolutionTriple(theta.x, -theta.y, -theta.z, theta.dt, theta.dL)


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
    of the top ladder level (uniqueness probes).  Raises DivergedError (with
    the partial diagnostics attached) if a Picard loop blows up.
    """
    config = config or ContinuationConfig()
    basis = basis or BasisSpec()
    flipped = bundle.orientation == "increasing"
    work = mirror_bundle(bundle) if flipped else bundle
    if flipped and theta0 is not None:
        theta0 = _mirrored(theta0)

    n_levels = math.ceil(1.0 / config.eta)
    alphas = [min(i * config.eta, 1.0) for i in range(n_levels + 1)]

    diag = SolveDiagnostics()
    plan = RegressionPlan(ensemble, basis)  # shared by every linear solve below
    # last solution of each level, the seed of its next Picard loop; the top
    # level is seeded by theta0, every level without a seed by zero
    warm: list = [None] * n_levels + [theta0]

    def solve_at(k: int, f) -> SolutionTriple:
        """Solve the level-alphas[k] system with row-block forcings f (None:
        zero forcings, k >= 1 only).  Level 0 is the linear base system; level k
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
        elif not converged:
            diag.inner_unconverged += 1
        return theta

    try:
        theta = solve_at(n_levels, None)
    except DivergedError as err:
        diag.diverged = True
        _record_level(diag, err.alpha, err.eta, err.residuals, False)
        err.diagnostics = diag
        raise
    finally:
        del solve_at  # it refers to itself: the cycle would hold the plan and the seeds

    if flipped:
        theta = _mirrored(theta)
    diag.m_norm = m_norm(theta)
    # a priori data: the coefficients at the zero solution, a full Picard step from it
    zero = SolutionTriple(*[np.broadcast_to(0.0, theta.x.shape)] * 3, theta.dt, theta.dL)
    data = partial(_forcings_on_rows, bundle, zero, 1.0, None, ensemble)
    diag.apriori = apriori_ratio(theta, data, x0)
    return theta, diag
