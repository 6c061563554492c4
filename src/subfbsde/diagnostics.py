"""Solution-space norm, contraction-rate fits, and a priori ratios.

The solution norm is the Monte Carlo estimate of
    ( E[ |x(0)|^2 + int (x^2 + y^2) dt + int z^2 dL ] )^{1/2}
with left-point sums, matching the solver's grid representation; the sup
functionals use the grid max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientBundle
from .linear_solver import SolutionTriple
from .subdiffusion import MarkovState, PathEnsemble

__all__ = [
    "MNormValue",
    "AprioriReport",
    "m_norm",
    "contraction_fit",
    "apriori_ratio",
]

BOOTSTRAP_RESAMPLES = 200


@dataclass(frozen=True)
class MNormValue:
    value: float
    x0_part: float
    dt_part: float
    dL_part: float

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "parts": {"x0": self.x0_part, "dt": self.dt_part, "dL": self.dL_part},
        }


@dataclass
class AprioriReport:
    lhs: float
    rhs: float
    ratio: float
    ratio_se: float
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "se": self.ratio_se,
            "degenerate": self.degenerate,
        }


def m_norm(theta: SolutionTriple) -> MNormValue:
    n = theta.dL.shape[1]
    x0_part = float(np.mean(theta.x[:, 0] ** 2))
    dt_part = float(
        np.mean(np.sum(theta.x[:, :n] ** 2 + theta.y[:, :n] ** 2, axis=1)) * theta.dt
    )
    dL_part = float(np.mean(np.sum(theta.z[:, :n] ** 2 * theta.dL, axis=1)))
    return MNormValue(
        value=math.sqrt(x0_part + dt_part + dL_part),
        x0_part=x0_part,
        dt_part=dt_part,
        dL_part=dL_part,
    )


def contraction_fit(residuals) -> float:
    """Geometric mean of successive residual ratios, first iterate dropped."""
    r = np.asarray(residuals, dtype=float)
    if r.size < 3:
        raise ValueError("need at least 3 residuals to fit a contraction ratio")
    if np.any(r <= 0.0):
        raise ValueError("residuals must be positive")
    ratios = r[2:] / r[1:-1]
    return float(np.exp(np.mean(np.log(ratios))))


def _zero_point_energies(bundle: CoefficientBundle, ensemble: PathEnsemble):
    """Per-path data energies from the bundle's zero-point evaluations,
    evaluated on the whole left-point grid at once."""
    m, n = ensemble.n_paths, ensemble.n_steps
    t = ensemble.grid.times()[:n]
    st = MarkovState(x=ensemble.X[:, :n], r=ensemble.R[:, :n])
    zeros = np.zeros((m, n))

    def at_zero(coef, *args):
        return np.broadcast_to(np.asarray(coef(t, st, *args), dtype=float), (m, n))

    b0 = at_zero(bundle.b, zeros, zeros)
    g0 = at_zero(bundle.g, zeros, zeros)
    d0 = at_zero(bundle.delta, zeros, zeros, zeros)
    h0 = at_zero(bundle.h, zeros, zeros, zeros)
    s0 = at_zero(bundle.sigma, zeros, zeros, zeros)
    # row sums of squares by einsum: no grid-sized temporaries
    dt_energy = (np.einsum("ij,ij->i", b0, b0) + np.einsum("ij,ij->i", g0, g0)) * ensemble.grid.dt
    dL_energy = sum(np.einsum("ij,ij,ij->i", a, a, ensemble.dL) for a in (d0, h0, s0))
    phi0 = np.broadcast_to(
        np.asarray(bundle.phi(ensemble.state_at(n), zeros[:, 0]), dtype=float), (m,)
    )
    return dt_energy, dL_energy, phi0


def apriori_ratio(
    theta: SolutionTriple,
    bundle: CoefficientBundle,
    x0: float,
    ensemble: PathEnsemble,
    bootstrap: bool = True,
) -> AprioriReport:
    """Monte Carlo ratio for the a priori solution estimate: solution energy
    over data energy built from zero-point coefficient evaluations."""
    n = theta.dL.shape[1]
    lhs_paths = np.max(theta.x**2 + theta.y**2, axis=1) + np.sum(
        theta.z[:, :n] ** 2 * theta.dL, axis=1
    )
    dt_energy, dL_energy, phi0 = _zero_point_energies(bundle, ensemble)
    rhs_paths = x0**2 + phi0**2 + dt_energy + dL_energy

    lhs = float(np.mean(lhs_paths))
    rhs = float(np.mean(rhs_paths))
    tol = 1e-12
    if rhs <= tol:
        return AprioriReport(lhs=lhs, rhs=rhs, ratio=0.0, ratio_se=0.0, degenerate=True)
    ratio = lhs / rhs
    se = 0.0
    if bootstrap:
        m = lhs_paths.size
        rng = np.random.default_rng(0)
        idx = rng.integers(0, m, size=(BOOTSTRAP_RESAMPLES, m))
        boots = np.mean(lhs_paths[idx], axis=1) / np.mean(rhs_paths[idx], axis=1)
        se = float(np.std(boots, ddof=1))
    return AprioriReport(lhs=lhs, rhs=rhs, ratio=ratio, ratio_se=se, degenerate=False)
