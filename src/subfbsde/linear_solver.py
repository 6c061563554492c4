"""Explicit solver for the linear base FBSDE.

The linear system
    dx = (-y + b0) dt + (-y + delta0) dL + (-z + sigma0) dB_L
   -dy = ( x + g0) dt + ( x + h0    ) dL -  z dB_L,
    x(0) = x0,  y(T) = x(T) + phi0
decouples through ybar = y - x.  The pair (ybar, zbar) solves a BSDE whose
exponentially weighted version reduces to the martingale of the terminal
aggregate xi; the forward component then has a closed weighted-integral
form.  Deterministic-clock integrals (dt and dL) use the trapezoid rule,
whose partial sums only touch already-revealed nodes and therefore stay
adapted; the dB integral is left-point (Ito).  The conditional expectations
of the backward pass are the slice regressions of a `RegressionPlan`, which
depends only on the ensemble and the basis and is shared by every solve on
that ensemble; the plan also holds the weights exp(-(t + L)).  The rest of
a solve is per path and runs over row blocks of paths.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .regression import RegressionPlan, _NonFiniteError, _row_slices

# unused here: kept because the benchmark tracer (perfbench/spans.py) wraps these names
from .regression import extract_z, fit_condexp  # noqa: F401
from .subdiffusion import PathEnsemble

__all__ = [
    "ForcingSet",
    "SolutionTriple",
    "solve_linear",
]


@dataclass
class ForcingSet:
    """Exogenous forcings on the grid: b0, g0 integrate against dt;
    delta0, h0, sigma0 against dL; phi0 shifts the terminal condition.

    Node arrays are (n_paths, n_steps+1); phi0 is (n_paths,).
    """

    b0: np.ndarray
    g0: np.ndarray
    delta0: np.ndarray
    h0: np.ndarray
    sigma0: np.ndarray
    phi0: np.ndarray

    @classmethod
    def zeros(cls, n_paths: int, n_steps: int) -> "ForcingSet":
        node = lambda: np.zeros((n_paths, n_steps + 1))
        return cls(node(), node(), node(), node(), node(), np.zeros(n_paths))

    @classmethod
    def constant(cls, n_paths: int, n_steps: int, **values) -> "ForcingSet":
        f = cls.zeros(n_paths, n_steps)
        for key, val in values.items():
            arr = getattr(f, key)
            arr += val
        return f

    def rows(self, rows: slice) -> ForcingSet:
        """The forcings of a row block of paths, as views."""
        return ForcingSet(*(getattr(self, f.name)[rows] for f in fields(self)))

    def validate(self, ensemble: PathEnsemble) -> None:
        shape = ensemble.X.shape
        for name in ("b0", "g0", "delta0", "h0", "sigma0"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"forcing {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise _NonFiniteError(f"forcing {name} contains non-finite values")
        if self.phi0.shape != (shape[0],):
            raise ValueError("phi0 must be one value per path")
        if not np.all(np.isfinite(self.phi0)):
            raise _NonFiniteError("phi0 contains non-finite values")


@dataclass
class SolutionTriple:
    """Grid-valued ensemble solution candidate (x, y, z).

    x, y live on nodes; z is the left-point integrand against dB_L and is
    meaningful only dL-almost everywhere (its terminal column is zero).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    dt: float
    dL: np.ndarray

    @classmethod
    def zeros(cls, ensemble: PathEnsemble) -> "SolutionTriple":
        shape = ensemble.X.shape
        return cls(
            x=np.zeros(shape),
            y=np.zeros(shape),
            z=np.zeros(shape),
            dt=ensemble.grid.dt,
            dL=ensemble.dL,
        )


def _cumulative_integral(out, a, d, dt, dL, ito=None):
    """Running integral of one row block into out (out[:, 0] = 0): trapezoid
    of the node values a against dt plus d against dL, plus the left-point
    increments 2 * ito.  All increments are summed into one block before the
    one cumsum.  The k-th partial sum only touches nodes <= k, so the running
    integral stays adapted."""
    inc = a[:, :-1] + a[:, 1:]
    inc *= dt
    tmp = d[:, :-1] + d[:, 1:]
    tmp *= dL
    inc += tmp
    if ito is not None:
        inc += ito
    inc *= 0.5
    out[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=out[:, 1:])


def solve_linear(forcings: ForcingSet, x0: float, plan: RegressionPlan) -> SolutionTriple:
    """Solve the linear base FBSDE on the ensemble of the regression plan.

    Backward pass: the weighted backward value is the conditional expectation
    of xi minus the running integral, estimated per slice by least squares on
    the Markov features; the integrand comes from the ratio estimator.
    Forward pass: closed-form weighted integrals.  plan fixes the ensemble and
    the basis; callers that solve repeatedly on one ensemble build it once.

    Everything but the regressions is per path, so it runs in two sweeps over
    row blocks of paths that stay in cache, around the one global step
    `plan.regress(xi)`.
    """
    ensemble = plan.ensemble
    forcings.validate(ensemble)
    f = forcings
    m, n = ensemble.n_paths, ensemble.n_steps
    dt, dL, dB = ensemble.grid.dt, ensemble.dL, ensemble.dB
    w = plan.w
    x, y, z = np.empty((m, n + 1)), np.empty((m, n + 1)), np.empty((m, n + 1))

    # first sweep: the running integral I of the weighted forcings; y holds
    # it until the second sweep overwrites it
    for rows in _row_slices(0, m):
        a = f.g0[rows] + f.b0[rows]
        a *= w[rows]
        d = f.h0[rows] + f.delta0[rows]
        d *= w[rows]
        _cumulative_integral(y[rows], a, d, dt, dL[rows])
    xi = w[:, -1] * f.phi0 + y[:, -1]

    # conditional-expectation martingale M of xi along the grid, and its
    # integrand ztilde; the filtration is trivial at time 0, so plain means
    # there, and ztilde is zero at the terminal node
    cond, ztilde = plan.regress(xi)
    mean_dL = float(np.mean(dL[:, 0]))
    ztilde0 = np.mean(xi * dB[:, 0]) / mean_dL if mean_dL >= plan.floor else 0.0
    mean_xi = np.mean(xi)

    # second sweep: ybar = (M - I) / w and zbar = ztilde / w, then the forward
    # pass in closed form, trapezoid on the dt/dL integrals and left-point
    # (Ito) on the dB integral
    for rows in _row_slices(0, m):
        iw = 1.0 / w[rows]
        I = y[rows]
        ybar = np.empty(I.shape)
        np.subtract(mean_xi, I[:, 0], out=ybar[:, 0])
        np.subtract(cond[rows], I[:, 1:n], out=ybar[:, 1:n])
        np.subtract(xi[rows], I[:, n], out=ybar[:, n])
        ybar *= iw
        zbar = np.empty(I.shape)
        zbar[:, 0] = ztilde0
        zbar[:, 1:n] = ztilde[rows]
        zbar[:, n] = 0.0
        zbar *= iw
        zr = z[rows]
        np.add(zbar, f.sigma0[rows], out=zr)
        zr *= 0.5
        zr[:, n] = 0.0
        ito = f.sigma0[rows, :n] - zbar[:, :n]
        ito *= iw[:, :n]
        ito *= dB[rows]
        a = np.subtract(f.b0[rows], ybar, out=zbar)  # zbar is spent
        a *= iw
        d = f.delta0[rows] - ybar
        d *= iw
        xr = x[rows]
        _cumulative_integral(xr, a, d, dt, dL[rows], ito)
        xr += x0
        xr *= w[rows]
        np.add(xr, ybar, out=I)
        # x is finite wherever y = x + ybar is
        if not (np.isfinite(I).all() and np.isfinite(zr).all()):
            raise FloatingPointError("linear solve produced non-finite values")

    return SolutionTriple(x=x, y=y, z=z, dt=dt, dL=dL)
