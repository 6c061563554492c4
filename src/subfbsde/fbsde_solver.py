"""Fully coupled FBSDE solver by continuation and Picard iteration.

Each Picard iterate freezes the previous solution inside the coupling gap
and solves the explicitly tractable base system with updated forcings.  The
continuation ladder has ceil(1/eta) levels with steps at most eta; each
level's Picard loop solves the anchor system by calling the level below it,
down to the linear base solver.  An inner loop need only be as accurate as
its parent's progress (the forcing-term rule of inexact Newton methods,
Dembo, Eisenstat & Steihaug 1982): it stops once its residual is at most
INNER times the enclosing loop's last residual, or its own first on the
enclosing loop's first iterate, unless picard_tol stops it first; the top
loop stops on picard_tol alone.  The cost is exponential in the ladder
depth, so a ladder deeper than MAX_LADDER_DEPTH levels is refused.  The
paper's provable step depends on (L, c, kappa, T) and needs dozens of
levels, so every step that runs is heuristic; eta = 1 is a single Picard
loop anchored on the linear base solver.  A Picard loop may grow for a few
iterates before it contracts, so the one divergence condition is a residual
above 1e6 times the loop's first; a loop that neither converges nor grows
that far stops at max_picard.  Every loop that stops, at every level, leaves
one LevelRecord: the diagnostics list the whole tree of loops, top level last.
The loops recycle their grids: each linear solve writes into an iterate
some loop has dropped, so from a loop's third solve on no grid is allocated.
A loop seeded by the zero solution takes its first residual as the norm its
tolerance is relative to.

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
# an inner Picard loop stops once its residual is at most this share of its parent's last
INNER = 0.1


@dataclass
class ContinuationConfig:
    eta: float = 1.0  # continuation step: a ladder of ceil(1/eta) levels
    picard_tol: float = 1e-3  # relative to a loop's first norm; the top loop stops on it alone
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
    """One `LevelRecord` per Picard loop of every ladder level, in the order
    the loops stopped, so the top level's loop is last."""
    levels: list = field(default_factory=list)
    m_norm: MNormValue | None = None  # of the final solution; None if diverged
    apriori: AprioriReport | None = None
    diverged: bool = False
    total_linear_solves: int = 0


class DivergedError(RuntimeError):
    """A Picard residual grew above 1e6 times the loop's first: the step is
    beyond the contraction regime, or the bundle violates the hypothesis.
    Carries the solve's diagnostics, whose last record is the diverged loop."""

    def __init__(self, diagnostics: SolveDiagnostics):
        self.diagnostics = diagnostics
        last = diagnostics.levels[-1]
        super().__init__(
            f"Picard iteration diverged at alpha={last.alpha:g}, eta={last.eta:g}; "
            f"residuals={last.residuals}"
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
    """`picard_forcings` on a row block; an eta of 1 and a zero base are not
    applied.  The base is evaluated first, then each field is built and its
    base field added and dropped, so at most one forcing set is alive; the
    base's arrays, possibly views of the caller's forcings, are never written."""
    t, st = ensemble.grid.times(), MarkovState(x=ensemble.X[rows], r=ensemble.R[rows])
    x, y, z = theta.x[rows], theta.y[rows], theta.z[rows]
    st_T, x_T = MarkovState(x=st.x[:, -1], r=st.r[:, -1]), x[:, -1]
    base = base_forcings(rows) if base_forcings is not None else None
    base = [getattr(base, f.name) if base is not None else None for f in fields(ForcingSet)]

    def terms():
        yield np.add(y, bundle.b(t, st, x, y))
        yield np.subtract(bundle.g(t, st, x, y), x)
        yield np.add(y, bundle.delta(t, st, x, y, z))
        yield np.subtract(bundle.h(t, st, x, y, z), x)
        yield np.add(z, bundle.sigma(t, st, x, y, z))
        yield np.subtract(bundle.phi(st_T, x_T), x_T)

    out = []
    for i, arr in enumerate(terms()):
        if eta != 1.0:
            arr *= eta
        if base[i] is not None:
            arr += base[i]
            base[i] = None
        out.append(arr)
    return ForcingSet(*out)


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
    of every ladder level (uniqueness probes).  The top loop stops on
    picard_tol; an inner loop stops once its residual is also at most INNER
    times its parent's last.  Raises DivergedError (with the partial
    diagnostics attached) if a Picard residual grows a millionfold over its
    loop's first.
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
    # the read-only zero solution: the seed of a level without one, and the a priori data's point
    zero = np.broadcast_to(0.0, ensemble.X.shape)
    zero = SolutionTriple(zero, zero, zero, ensemble.grid.dt, ensemble.dL)
    # last solution of each level, the seed of its next Picard loop; theta0 seeds every level
    warm: list = [zero if theta0 is None else theta0] * (n_levels + 1)
    # iterates a Picard loop has dropped, whose grids the next linear solves
    # write over.  A loop drops every iterate but its seed, once the solve
    # that replaced it has returned, so no forcings in flight read it; a
    # loop's last iterate is never dropped, and is the warm start that seeds
    # the next loop of its level and the iterate of the level above
    spare: list = []

    def solve_at(k: int, f, parent_res: float | None = None) -> SolutionTriple:
        """Solve the level-alphas[k] system with row-block forcings f (None:
        zero forcings, k >= 1 only).  Level 0 is the linear base system; level k
        runs the Picard loop of the step from alphas[k-1], each iterate
        solving the anchor system at level k-1.  parent_res is the enclosing
        loop's last residual, None on its first iterate."""
        if k == 0:
            diag.total_linear_solves += 1
            return solve_linear(f, x0, plan, out=spare.pop() if spare else None)
        alpha, step = alphas[k], alphas[k] - alphas[k - 1]
        seed = theta = warm[k]
        residuals: list[float] = []
        converged = False
        for _ in range(config.max_picard):
            forcings = picard_forcings(work, theta, step, f, ensemble)
            theta_new = solve_at(k - 1, forcings, residuals[-1] if residuals else None)
            res = m_norm(theta_new, theta).value
            residuals.append(res)
            if len(residuals) == 1:
                # the M-norm of theta_new - 0.0 is that of theta_new, bit for bit
                norm = res if theta is zero else m_norm(theta_new).value
                threshold = config.picard_tol * max(norm, 1e-12)
                if k < n_levels:  # an inner loop: as accurate as its parent's progress
                    threshold = max(threshold, INNER * (res if parent_res is None else parent_res))
            if theta is not seed:
                spare.append(theta)
            theta = theta_new
            if res <= threshold:
                converged = True
                break
            if res > 1e6 * max(residuals[0], 1e-300):
                diag.diverged = True
                break
        fit = contraction_fit(residuals) if len(residuals) >= 3 and min(residuals) > 0 else None
        diag.levels.append(LevelRecord(alpha, step, residuals, converged, fit))
        if diag.diverged:
            raise DivergedError(diag)
        warm[k] = theta
        return theta

    try:
        theta = solve_at(n_levels, None)
    finally:
        spare.clear()
        del solve_at  # it refers to itself: the cycle would hold the plan and the seeds

    if flipped:
        theta = _mirrored(theta)
    diag.m_norm = m_norm(theta)
    # a priori data: the coefficients at the zero solution, a full Picard step from it
    data = partial(_forcings_on_rows, bundle, zero, 1.0, None, ensemble)
    diag.apriori = apriori_ratio(theta, data, x0)
    return theta, diag
