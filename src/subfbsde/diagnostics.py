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
from .regression import _NonFiniteError, _map_blocks, _row_slices

__all__ = [
    "MNormValue",
    "AprioriReport",
    "m_norm",
    "contraction_fit",
    "apriori_ratio",
]


@dataclass(frozen=True)
class MNormValue:
    value: float
    parts: dict  # the squared norm's terms: "x0", "dt" and "dL"


@dataclass
class AprioriReport:
    lhs: float
    rhs: float
    ratio: float
    degenerate: bool


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result is refused instead
def m_norm(theta: SolutionTriple, other: SolutionTriple | None = None) -> MNormValue:
    """M-norm of theta, or of theta - other.  The sums of squares run over
    row blocks of paths: each component's block is reduced by einsum, not by
    BLAS, whose dot products depend on its thread count, straight from its
    first n columns, and z's squares are multiplied before dL; the blocks'
    sums are added in block order.  A difference is taken on full rows, which
    numpy runs as one loop, one component at a time: each is dropped before
    the next is taken."""
    m, n = theta.x.shape[0], theta.dL.shape[1]

    def sums(rows: slice) -> list:
        # the block's x(0), x and y sums of squares, then z's against dL
        out, dL = [], theta.dL[rows]
        for name in ("x", "y", "z"):
            a = getattr(theta, name)[rows]
            if other is not None:
                a = a - getattr(other, name)[rows]
            if name == "x":
                out.append(float(np.einsum("i,i->", a[:, 0], a[:, 0])))
            v = a[:, :n]
            spec, ops = ("ij,ij,ij->", (v, v, dL)) if name == "z" else ("ij,ij->", (v, v))
            out.append(float(np.einsum(spec, *ops)))
            del a, v, ops
        return out

    x0_sum = dt_sum = dL_sum = 0.0
    for x0, dt_x, dt_y, dL_z in _map_blocks(sums, _row_slices(0, m), n):
        x0_sum += x0
        dt_sum += dt_x
        dt_sum += dt_y
        dL_sum += dL_z
    parts = {"x0": x0_sum / m, "dt": dt_sum / m * theta.dt, "dL": dL_sum / m}
    value = math.sqrt(parts["x0"] + parts["dt"] + parts["dL"])
    if not math.isfinite(value):
        raise _NonFiniteError(f"M-norm is {value}: the squares of the solution overflow")
    return MNormValue(value=value, parts=parts)


def contraction_fit(residuals) -> float:
    """Geometric mean of successive residual ratios, first iterate dropped."""
    r = np.asarray(residuals, dtype=float)
    if r.size < 3:
        raise ValueError("need at least 3 residuals to fit a contraction ratio")
    if np.any(r <= 0.0):
        raise ValueError("residuals must be positive")
    ratios = r[2:] / r[1:-1]
    return float(np.exp(np.mean(np.log(ratios))))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite energy is refused instead
def apriori_ratio(theta: SolutionTriple, data, x0: float) -> AprioriReport:
    """Monte Carlo ratio for the a priori solution estimate: the mean per-path
    solution energy over the mean per-path data energy.  data(rows) gives the
    forcings of the system theta solves on a row block of paths:
    `ForcingSet.rows` of its forcings, or a coupled bundle's coefficients at
    the zero solution.  The energies are summed block by block."""
    m, n = theta.dL.shape
    lhs_paths, rhs_paths = np.empty(m), np.empty(m)

    def energies(rows: slice) -> None:
        x, y, dL = theta.x[rows], theta.y[rows], theta.dL[rows]
        lhs_paths[rows] = np.max(x**2 + y**2, axis=1) + np.sum(theta.z[rows, :n] ** 2 * dL, axis=1)
        d = data(rows)
        # row sums of squares by einsum: no block-sized temporaries
        b0, g0 = d.b0[:, :n], d.g0[:, :n]
        dt_energy = (np.einsum("ij,ij->i", b0, b0) + np.einsum("ij,ij->i", g0, g0)) * theta.dt
        dL_energy = sum(
            np.einsum("ij,ij,ij->i", a[:, :n], a[:, :n], dL) for a in (d.delta0, d.h0, d.sigma0)
        )
        rhs_paths[rows] = x0 * x0 + d.phi0**2 + dt_energy + dL_energy

    _map_blocks(energies, _row_slices(0, m), n)
    lhs = float(np.mean(lhs_paths))
    rhs = float(np.mean(rhs_paths))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise _NonFiniteError(f"a priori energies overflow: lhs {lhs}, rhs {rhs}")
    tol = 1e-12
    if rhs <= tol:
        return AprioriReport(lhs=lhs, rhs=rhs, ratio=0.0, degenerate=True)
    return AprioriReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, degenerate=False)
