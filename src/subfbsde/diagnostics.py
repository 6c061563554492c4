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

from .linear_solver import ForcingSet, SolutionTriple

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
    m = theta.x.shape[0]
    x, y, z = theta.x[:, :n], theta.y[:, :n], theta.z[:, :n]
    x0_part = float(np.mean(theta.x[:, 0] ** 2))
    # sums of squares by einsum: no squared grid temporaries
    dt_part = float(np.einsum("ij,ij->", x, x) + np.einsum("ij,ij->", y, y)) / m * theta.dt
    dL_part = float(np.einsum("ij,ij,ij->", z, z, theta.dL)) / m
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


def apriori_ratio(theta: SolutionTriple, data: ForcingSet, x0: float) -> AprioriReport:
    """Monte Carlo ratio for the a priori solution estimate: solution energy
    over data energy, per path, with a bootstrap standard error.  data holds
    the forcings of the system theta solves; for a coupled bundle these are
    its coefficients at the zero solution."""
    n = theta.dL.shape[1]
    lhs_paths = np.max(theta.x**2 + theta.y**2, axis=1) + np.sum(
        theta.z[:, :n] ** 2 * theta.dL, axis=1
    )
    # row sums of squares by einsum: no grid-sized temporaries
    b0, g0 = data.b0[:, :n], data.g0[:, :n]
    dt_energy = (np.einsum("ij,ij->i", b0, b0) + np.einsum("ij,ij->i", g0, g0)) * theta.dt
    dL_energy = sum(
        np.einsum("ij,ij,ij->i", a[:, :n], a[:, :n], theta.dL)
        for a in (data.delta0, data.h0, data.sigma0)
    )
    rhs_paths = x0**2 + data.phi0**2 + dt_energy + dL_energy

    lhs = float(np.mean(lhs_paths))
    rhs = float(np.mean(rhs_paths))
    tol = 1e-12
    if rhs <= tol:
        return AprioriReport(lhs=lhs, rhs=rhs, ratio=0.0, ratio_se=0.0, degenerate=True)
    m = lhs_paths.size
    rng = np.random.default_rng(0)
    idx = rng.integers(0, m, size=(BOOTSTRAP_RESAMPLES, m))
    boots = np.mean(lhs_paths[idx], axis=1) / np.mean(rhs_paths[idx], axis=1)
    se = float(np.std(boots, ddof=1))
    return AprioriReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, ratio_se=se, degenerate=False)
