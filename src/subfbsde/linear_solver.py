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
that ensemble.  A solve fits them once; the rest, their predictions and the
weights exp(-(t + L)) included, runs per row block, two blocks at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .regression import RegressionPlan, _NonFiniteError, _map_blocks, _row_slices

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

    Node arrays are (paths, n_steps+1), phi0 is (paths,): all paths or a block.
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
        """The forcings of a row block of paths, as views (a scalar as one value)."""
        return ForcingSet(*(np.atleast_1d(getattr(self, f.name))[rows] for f in fields(self)))

    def validate(self, shape: tuple) -> None:
        """Refuse node forcings not of `shape`, a phi0 not one per path, and non-finite values."""
        for name in ("b0", "g0", "delta0", "h0", "sigma0"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"forcing {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise _NonFiniteError(f"forcing {name} contains non-finite values")
        if self.phi0.shape != shape[:1]:
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


def _weights(ensemble: PathEnsemble, rows: slice) -> np.ndarray:
    """exp(-(t + L)) on a row block, bit for bit (-t - L rounds to -(t + L));
    one row, broadcast over the block, for a clock that every path shares."""
    L = ensemble.L
    w = np.subtract(-ensemble.grid.times(), L[rows] if L.strides[0] else L[:1])
    return np.exp(w, out=w)


def _increments(a, d, dt, dL, out, ito=None):
    """Increments of a running integral on one row block, (paths, n_steps),
    written into out: trapezoid of the node values a against dt plus d
    against dL, plus the left-point increments 2 * ito, all summed into one
    block before the one cumsum (once for d is a).  The k-th partial sum only
    touches nodes <= k, so the running integral stays adapted.  For d is a,
    out may overlap a, which is spent once its node sums are taken."""
    s = a[:, :-1] + a[:, 1:]
    np.multiply(s, dt, out=out)
    if d is not a:
        np.add(d[:, :-1], d[:, 1:], out=s)
    s *= dL
    out += s
    if ito is not None:
        out += ito
    out *= 0.5
    return out


def solve_linear(forcings, x0: float, plan: RegressionPlan) -> SolutionTriple:
    """Solve the linear base FBSDE on the ensemble of the regression plan.

    Backward pass: the weighted backward value is the conditional expectation
    of xi minus the running integral, estimated per slice by least squares on
    the Markov features; the integrand comes from the ratio estimator.
    Forward pass: closed-form weighted integrals.  plan fixes the ensemble and
    the basis; callers that solve repeatedly on one ensemble build it once.

    Everything but the regression fits is per path and runs in two sweeps
    over the 512-row blocks of every reduction (`regression._BLOCK_ROWS`),
    around the one global step `plan.fit(xi)`, two blocks at once
    (`_map_blocks`).  forcings(rows) gives the `ForcingSet` of a row block
    (e.g. `ForcingSet.rows`), which the first sweep evaluates and checks
    once, possibly from two threads at once, and never writes.
    """
    ensemble = plan.ensemble
    m, n = ensemble.n_paths, ensemble.n_steps
    dt, dL, dB = ensemble.grid.dt, ensemble.dL, ensemble.dB
    x, y, z = np.empty((m, n + 1)), np.empty((m, n + 1)), np.empty((m, n + 1))
    xi = np.empty(m)

    # first sweep: y holds the running integral I of the weighted forcings, x
    # the forcings' dt/dL forward increments and z sigma0; the last block is
    # open-ended, so forcings of too many paths are refused.  Each forcing
    # array is dropped once spent, so the block's temporaries stay few
    def first(rows):
        f = forcings(slice(rows.start, rows.stop if rows.stop < m else None))
        f.validate(y[rows].shape)
        b0, g0, delta0, h0, sigma0, phi0 = f.b0, f.g0, f.delta0, f.h0, f.sigma0, f.phi0
        del f
        z[rows] = sigma0
        del sigma0
        a = g0 + b0
        del g0
        d = h0 + delta0
        del h0
        wr, dLr, yr = _weights(ensemble, rows), dL[rows], y[rows]
        a *= wr
        d *= wr
        yr[:, 0] = 0.0
        np.cumsum(_increments(a, d, dt, dLr, yr[:, 1:]), axis=1, out=yr[:, 1:])
        xi[rows] = wr[:, -1] * phi0 + yr[:, -1]
        iw = np.divide(1.0, wr, out=wr)
        np.multiply(b0, iw, out=a)
        del b0
        np.multiply(delta0, iw, out=d)
        del delta0
        _increments(a, d, dt, dLr, x[rows, 1:])

    _map_blocks(first, _row_slices(0, m), n)
    # conditional-expectation martingale M of xi along the grid, and its
    # integrand ztilde; the filtration is trivial at time 0, so plain means
    # there, and ztilde is zero at the terminal node
    fits = plan.fit(xi)
    mean_dL = float(np.mean(dL[:, 0]))
    ztilde0 = np.mean(xi * dB[:, 0]) / mean_dL if mean_dL >= plan.floor else 0.0
    mean_xi = np.mean(xi)

    # second sweep over the plan's row blocks, each predicting its M and
    # ztilde: ybar = (M - I) / w, built in y's rows over I, and zbar =
    # ztilde / w, then the forward pass in closed form: its ybar (trapezoid)
    # and Ito (left-point, sigma0 read from z) increments are subtracted from
    # x before one cumsum from x0.  Each spent array is dropped before the
    # next one is allocated
    def second(item):
        rows, block = item
        cond, ztilde = plan.predict(fits, rows, block)
        ybar = y[rows]
        np.subtract(mean_xi, ybar[:, 0], out=ybar[:, 0])
        np.subtract(cond, ybar[:, 1:n], out=ybar[:, 1:n])
        np.subtract(xi[rows], ybar[:, n], out=ybar[:, n])
        del cond
        zbar = np.empty(ybar.shape)
        zbar[:, 0] = ztilde0
        zbar[:, 1:n] = ztilde
        del ztilde
        zbar[:, n] = 0.0
        wr = _weights(ensemble, rows)
        iw = 1.0 / wr
        ybar *= iw
        zbar *= iw
        zr = z[rows]
        ito = zbar[:, :n] - zr[:, :n]
        ito *= iw[:, :n]
        ito *= dB[rows]
        zr += zbar
        zr *= 0.5
        zr[:, n] = 0.0
        a = np.multiply(ybar, iw, out=zbar)  # zbar is spent
        del iw
        xr = x[rows]
        np.subtract(xr[:, 1:], _increments(a, a, dt, dL[rows], a[:, :n], ito), out=xr[:, 1:])
        xr[:, 0] = x0
        np.cumsum(xr, axis=1, out=xr)
        xr *= wr
        np.add(xr, ybar, out=ybar)
        # x is finite wherever y = x + ybar is
        if not (np.isfinite(ybar).all() and np.isfinite(zr).all()):
            raise FloatingPointError("linear solve produced non-finite values")

    _map_blocks(second, plan.row_blocks(), n)
    return SolutionTriple(x=x, y=y, z=z, dt=dt, dL=dL)
