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
from .regression import _BLOCK_ROWS, _row_slices

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


def m_norm(theta: SolutionTriple, other: SolutionTriple | None = None) -> MNormValue:
    """M-norm of theta, or of theta - other.  The sums of squares run over
    row blocks of paths: each component's block (or the difference's) is
    written into one reused buffer and reduced by BLAS dot products, so a
    difference only ever exists one block at a time."""
    m, n = theta.x.shape[0], theta.dL.shape[1]
    buf = np.empty((min(m, _BLOCK_ROWS), n))

    def block(name: str, rows: slice) -> np.ndarray:
        out = buf[: rows.stop - rows.start]
        a = getattr(theta, name)[rows, :n]
        if other is None:
            np.copyto(out, a)
        else:
            np.subtract(a, getattr(other, name)[rows, :n], out=out)
        return out

    x0_sum = dt_sum = dL_sum = 0.0
    for rows in _row_slices(0, m):
        x = block("x", rows)
        x0_sum += float(x[:, 0] @ x[:, 0])
        v = x.ravel()
        dt_sum += float(v @ v)
        v = block("y", rows).ravel()
        dt_sum += float(v @ v)
        z = block("z", rows)
        z *= z
        dL_sum += float(z.ravel() @ theta.dL[rows].ravel())
    x0_part, dt_part, dL_part = x0_sum / m, dt_sum / m * theta.dt, dL_sum / m
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
