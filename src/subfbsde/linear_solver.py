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
weights exp(-(t + L)) included, runs per row block, two blocks at a time,
on contiguous operands: the trapezoid sums are taken on the flattened
blocks, the plan's feature columns are copied per block, and a jump-free
clock's weights are tiled once per solve.  A solve writes into a given
solution triple (`out`), which lets a Picard loop recycle its grids.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .regression import _BLOCK_ROWS, RegressionPlan, _NonFiniteError, _map_blocks, _row_slices

# unused here: kept because the benchmark tracer (perfbench/spans.py) wraps these names
from .regression import extract_z, fit_condexp  # noqa: F401
from .subdiffusion import PathEnsemble

__all__ = [
    "ForcingSet",
    "SolutionTriple",
    "solve_linear",
]

_NODE_FORCINGS = ("b0", "g0", "delta0", "h0", "sigma0")


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
        self._check_shapes(shape)
        for name in _NODE_FORCINGS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise _NonFiniteError(f"forcing {name} contains non-finite values")
        if not np.all(np.isfinite(self.phi0)):
            raise _NonFiniteError("phi0 contains non-finite values")

    def _check_shapes(self, shape: tuple) -> None:
        """`validate` without the scans for non-finite values."""
        for name in _NODE_FORCINGS:
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"forcing {name} has shape {arr.shape}, expected {shape}")
        if self.phi0.shape != shape[:1]:
            raise ValueError("phi0 must be one value per path")


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


def _block_weights(ensemble: PathEnsemble):
    """rows -> (w, 1/w) of a row block, w = exp(-(t + L)) (`_weights`).  A
    per-path clock computes w per block and leaves 1/w to the caller (None).
    A jump-free clock's weights are one row shared by every path, and numpy
    runs one inner loop per path on a broadcast row, so w and 1/w are tiled
    once per solve into read-only contiguous blocks of `_BLOCK_ROWS` paths,
    the most a row block holds.  dL is not tiled: the sweeps multiply it into
    column views of a block, one inner loop per path anyway."""
    if ensemble.L.strides[0]:
        return lambda rows: (_weights(ensemble, rows), None)
    w = _weights(ensemble, slice(0, 1))
    tiles = [np.repeat(row, min(ensemble.n_paths, _BLOCK_ROWS), axis=0) for row in (w, 1.0 / w)]
    for tile in tiles:
        tile.flags.writeable = False
    return lambda rows: tuple(tile[: rows.stop - rows.start] for tile in tiles)


def _increments(a, d, dt, dL, s, ito=None, shift=0):
    """Increments of a running integral on one row block, (paths, n_steps),
    written into s: trapezoid of the node values a against dt plus d against
    dL, plus the left-point increments 2 * ito, all summed into one block
    before the one cumsum (once for d is a).  The k-th partial sum only
    touches nodes <= k, so the running integral stays adapted.

    The node sums are taken on the flattened (paths, n_steps + 1) blocks, so
    every operand is contiguous: step k of a path lands in column k + shift
    of s, and the one spent sum between two paths in the column left over
    (the last, or for shift 1 the first of the next path, so s may be the
    destination's own rows).  a and d are spent once their node sums are
    taken; ito is of their shape.  For d is a, shift is 0 and the increments
    land in a instead.  Returns the block they landed in."""
    n, size = a.shape[1] - 1, a.size - 1
    flat = lambda arr, lo=0: arr.reshape(-1)[lo : lo + size]  # noqa: E731
    out = flat(s, shift)
    np.add(flat(a), flat(a, 1), out=out)
    if d is a:
        # the dt part goes to a, and the dL part is taken from the sums in s
        np.multiply(out, dt, out=flat(a))
        s, a, out = a, s, flat(a)
    else:
        out *= dt
        np.add(flat(d), flat(d, 1), out=flat(a))
    a[:, :n] *= dL
    out += flat(a)
    if ito is not None:
        out += flat(ito)
    out *= 0.5
    return s


# forcings are scanned after the arithmetic: what overflows is refused by name, not warned about
@np.errstate(over="ignore", invalid="ignore")
def solve_linear(
    forcings, x0: float, plan: RegressionPlan, out: SolutionTriple | None = None
) -> SolutionTriple:
    """Solve the linear base FBSDE on the ensemble of the regression plan.

    Backward pass: the weighted backward value is the conditional expectation
    of xi minus the running integral, estimated per slice by least squares on
    the Markov features; the integrand comes from the ratio estimator.
    Forward pass: closed-form weighted integrals.  plan fixes the ensemble and
    the basis; callers that solve repeatedly on one ensemble build it once.

    Everything but the regression fits is per path and runs in two sweeps
    over the 512-row blocks of every reduction (`regression._BLOCK_ROWS`),
    around the one global step `plan.fit` of the targets xi and xi dB_k, two
    blocks at once (`_map_blocks`).  forcings(rows) gives the `ForcingSet` of
    a row block (e.g. `ForcingSet.rows`), which the first sweep evaluates
    once, possibly from two threads at once, and never writes.  A block's
    forcings are scanned for non-finite values only where its xi or its
    sigma0 (z) is non-finite, which every non-finite forcing makes them: the
    block is then evaluated again and `ForcingSet.validate` names the forcing.

    out, a `SolutionTriple` on the plan's grid, receives the solution in its
    own arrays and is returned; every value it held is overwritten, so it
    must not be an array the forcings read.  None allocates a new triple.
    """
    ensemble = plan.ensemble
    m, n = ensemble.n_paths, ensemble.n_steps
    dt, dL, dB = ensemble.grid.dt, ensemble.dL, ensemble.dB
    if out is None:
        out = SolutionTriple(*(np.empty((m, n + 1)) for _ in range(3)), dt=dt, dL=dL)
    elif not all(
        a.shape == (m, n + 1) and a.flags.c_contiguous and a.flags.writeable
        for a in (out.x, out.y, out.z)
    ):
        raise ValueError("out must hold three writable C-contiguous (n_paths, n_steps + 1) grids")
    x, y, z = out.x, out.y, out.z
    xi = np.empty(m)
    weights = _block_weights(ensemble)

    # first sweep: y holds the running integral I of the weighted forcings, x
    # the forcings' dt/dL forward increments and z sigma0; the last block is
    # open-ended, so forcings of too many paths are refused.  Each forcing
    # array is dropped once spent, so the block's temporaries stay few
    def first(rows):
        block = slice(rows.start, rows.stop if rows.stop < m else None)
        f = forcings(block)
        f._check_shapes(y[rows].shape)
        b0, g0, delta0, h0, sigma0, phi0 = f.b0, f.g0, f.delta0, f.h0, f.sigma0, f.phi0
        del f
        zr = z[rows]
        zr[...] = sigma0
        del sigma0
        a = g0 + b0
        del g0
        d = h0 + delta0
        del h0
        (wr, iw), dLr = weights(rows), dL[rows]
        a *= wr
        d *= wr
        # y's and x's rows hold their own increments, shifted by one node
        yr = _increments(a, d, dt, dLr, y[rows], shift=1)
        np.cumsum(yr[:, 1:], axis=1, out=yr[:, 1:])
        yr[:, 0] = 0.0
        xi[rows] = wr[:, -1] * phi0 + yr[:, -1]
        if iw is None:
            iw = np.divide(1.0, wr, out=wr)
        np.multiply(b0, iw, out=a)
        del b0
        np.multiply(delta0, iw, out=d)
        del delta0, iw, wr
        _increments(a, d, dt, dLr, x[rows], shift=1)
        # a non-finite forcing reaches xi (b0, g0, delta0, h0, phi0) or z
        # (sigma0), and a running sum stays non-finite once it is
        if not (np.isfinite(xi[rows]).all() and np.isfinite(zr).all()):
            del a, d
            forcings(block).validate(yr.shape)

    _map_blocks(first, _row_slices(0, m), n)
    # conditional-expectation martingale M of xi along the grid, and its
    # integrand ztilde, numerator xi dB_k; the filtration is trivial at time 0,
    # so plain means there, and ztilde is zero at the terminal node
    coef = plan.fit(lambda r: xi[r], lambda r: xi[r, None] * dB[r, 1:n])
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
        cond, ztilde = plan.predict(coef, rows, block)
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
        wr, iw = weights(rows)
        if iw is None:
            iw = 1.0 / wr
        ybar *= iw
        zbar *= iw
        zr = z[rows]
        # the Ito increments in the first n columns of a (paths, n_steps + 1) block
        ito = zbar - zr
        ito *= iw
        ito[:, :n] *= dB[rows]
        zr += zbar
        zr *= 0.5
        zr[:, n] = 0.0
        a = np.multiply(ybar, iw, out=zbar)  # zbar is spent
        del iw
        inc = _increments(a, a, dt, dL[rows], np.empty(a.shape), ito).reshape(-1)
        del a, ito
        # step k of a path is subtracted from its node k + 1, on the flat
        # blocks; the spent sum between two paths lands on node 0, set next
        xr = x[rows]
        x_flat = xr.reshape(-1)
        np.subtract(x_flat[1:], inc[:-1], out=x_flat[1:])
        del inc
        xr[:, 0] = x0
        np.cumsum(xr, axis=1, out=xr)
        xr *= wr
        np.add(xr, ybar, out=ybar)
        # x is finite wherever y = x + ybar is
        if not (np.isfinite(ybar).all() and np.isfinite(zr).all()):
            raise FloatingPointError("linear solve produced non-finite values")

    _map_blocks(second, plan.row_blocks(), n)
    return out
