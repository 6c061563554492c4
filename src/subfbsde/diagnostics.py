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

from .linear_solver import SolutionTriple
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
    parts: dict  # the squared norm's terms: "x0", "dt" and "dL"


@dataclass
class AprioriReport:
    lhs: float
    rhs: float
    ratio: float
    se: float  # bootstrap standard error of the ratio
    degenerate: bool


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
    parts = {"x0": x0_sum / m, "dt": dt_sum / m * theta.dt, "dL": dL_sum / m}
    return MNormValue(value=math.sqrt(parts["x0"] + parts["dt"] + parts["dL"]), parts=parts)


def contraction_fit(residuals) -> float:
    """Geometric mean of successive residual ratios, first iterate dropped."""
    r = np.asarray(residuals, dtype=float)
    if r.size < 3:
        raise ValueError("need at least 3 residuals to fit a contraction ratio")
    if np.any(r <= 0.0):
        raise ValueError("residuals must be positive")
    ratios = r[2:] / r[1:-1]
    return float(np.exp(np.mean(np.log(ratios))))


def apriori_ratio(theta: SolutionTriple, data, x0: float) -> AprioriReport:
    """Monte Carlo ratio for the a priori solution estimate: solution energy
    over data energy, per path, with a bootstrap standard error.  data(rows)
    gives the forcings of the system theta solves on a row block of paths:
    `ForcingSet.rows` of its forcings, or a coupled bundle's coefficients at
    the zero solution.  The energies are summed block by block."""
    m, n = theta.dL.shape
    lhs_paths, rhs_paths = np.empty(m), np.empty(m)
    for rows in _row_slices(0, m):
        x, y, dL = theta.x[rows], theta.y[rows], theta.dL[rows]
        lhs_paths[rows] = np.max(x**2 + y**2, axis=1) + np.sum(theta.z[rows, :n] ** 2 * dL, axis=1)
        d = data(rows)
        # row sums of squares by einsum: no block-sized temporaries
        b0, g0 = d.b0[:, :n], d.g0[:, :n]
        dt_energy = (np.einsum("ij,ij->i", b0, b0) + np.einsum("ij,ij->i", g0, g0)) * theta.dt
        dL_energy = sum(
            np.einsum("ij,ij,ij->i", a[:, :n], a[:, :n], dL) for a in (d.delta0, d.h0, d.sigma0)
        )
        rhs_paths[rows] = x0**2 + d.phi0**2 + dt_energy + dL_energy

    lhs = float(np.mean(lhs_paths))
    rhs = float(np.mean(rhs_paths))
    tol = 1e-12
    if rhs <= tol:
        return AprioriReport(lhs=lhs, rhs=rhs, ratio=0.0, se=0.0, degenerate=True)
    # one resample at a time: the same stream as one (resamples, m) draw
    rng = np.random.default_rng(0)
    boots = np.empty(BOOTSTRAP_RESAMPLES)
    for i in range(BOOTSTRAP_RESAMPLES):
        idx = rng.integers(0, m, size=m)
        boots[i] = np.mean(lhs_paths[idx]) / np.mean(rhs_paths[idx])
    se = float(np.std(boots, ddof=1))
    return AprioriReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, se=se, degenerate=False)
