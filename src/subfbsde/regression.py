"""Least-squares Monte Carlo conditional expectations on path ensembles.

Conditional expectations given the path history are approximated by ridge
least squares onto total-degree polynomials of the slice features, the
augmented Markov state (X_k, R_k) or X_k alone.  The martingale integrand z
is recovered by the ratio estimator
    z_k = E[y_{k+1} dB_k | features] / E[dL_k | features],
set to zero wherever the clock is predicted frozen: z is only defined
dL-almost everywhere.

`fit_condexp` and `extract_z` regress one slice.  `RegressionPlan` does the
same regressions for every slice of an ensemble at once: the designs are
fixed by the ensemble, so their Gram matrices and the ratio estimator's
denominator are set up once; a linear solve reduces its target onto the
monomials and expands the coefficients back one row block at a time.  The
single-slice functions stay as the reference the plan is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSpec",
    "CondExpEstimator",
    "RegressionPlan",
    "SingularSliceError",
    "polynomial_features",
    "fit_condexp",
    "extract_z",
]


class _NonFiniteError(ValueError, FloatingPointError):
    """Non-finite numbers where the solver needs finite ones (a bundle's
    coefficients, forcings, regression targets).  A ValueError for callers
    that validate inputs, and a FloatingPointError, the class of numerical
    failures, for callers that tell those apart from bad settings."""


class SingularSliceError(RuntimeError):
    """A slice regression that cannot be solved: under ridge 0 its Gram is
    numerically rank deficient; with a ridge its Gram is singular in LU,
    because the features are so large that the ridge vanishes next to them."""

    def __init__(self, slice_index, ridge: float = 0.0):
        self.slice_index = slice_index
        if ridge == 0.0:
            advice = "add ridge regularization or drop collinear features"
        else:
            advice = (
                f"it is singular despite the ridge {ridge:g}, "
                "which is too small for the scale of the features"
            )
        super().__init__(
            f"regression Gram matrix is rank deficient at slice {slice_index}; {advice}"
        )


@dataclass(frozen=True)
class BasisSpec:
    """Total-degree polynomial basis with ridge regularization.

    ridge=None selects the default 1e-10 * n_paths (frozen-clock slices make
    features collinear, so some regularization is always advisable).
    """

    degree: int = 2
    include_r: bool = True
    ridge: float | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.ridge is not None and not (0.0 <= self.ridge < math.inf):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")

    def effective_ridge(self, n_paths: int) -> float:
        return 1e-10 * n_paths if self.ridge is None else self.ridge


def _monomials(columns, degree: int, shape):
    """All monomials of total degree <= degree in the feature columns,
    intercept first; the intercept is a read-only broadcast of 1 and the
    degree-1 monomials are the columns themselves."""
    yield np.broadcast_to(1.0, shape)
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(columns)), deg):
            col = columns[combo[0]]
            for j in combo[1:]:
                col = col * columns[j]
            yield col


def polynomial_features(features: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of total degree <= degree, intercept first.  features
    is (n_paths, n_features), or 1-d for one feature per path."""
    F = np.asarray(features, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.ndim != 2:
        raise ValueError("features must be a 1-d or 2-d array (n_paths, n_features)")
    columns = [F[:, j] for j in range(F.shape[1])]
    return np.column_stack(list(_monomials(columns, degree, F.shape[:1])))


@dataclass
class CondExpEstimator:
    """Fitted slice regression; prediction is affine in the training targets."""

    basis: BasisSpec
    coefficients: np.ndarray

    def predict(self, features: np.ndarray) -> np.ndarray:
        A = polynomial_features(features, self.basis.degree)
        return A @ self.coefficients


def fit_condexp(
    features: np.ndarray,
    targets: np.ndarray,
    basis: BasisSpec,
    slice_index=None,
) -> CondExpEstimator:
    """Ridge least squares of targets on the polynomial basis of features."""
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(targets)):
        raise _NonFiniteError(f"non-finite regression targets at slice {slice_index}")
    A = polynomial_features(features, basis.degree)
    m, p = A.shape
    if m < p + 1:
        raise ValueError(
            f"need at least basis dimension + 1 = {p + 1} paths, got {m}"
        )
    ridge = basis.effective_ridge(m)
    gram = A.T @ A
    rhs = A.T @ targets
    if ridge == 0.0:
        if np.linalg.matrix_rank(A) < p:
            raise SingularSliceError(slice_index)
        coef = np.linalg.solve(gram, rhs)
    else:
        coef = np.linalg.solve(gram + ridge * np.eye(p), rhs)
    return CondExpEstimator(basis=basis, coefficients=coef)


def extract_z(
    y_next: np.ndarray,
    dB: np.ndarray,
    dL: np.ndarray,
    features: np.ndarray,
    basis: BasisSpec,
    floor: float,
    slice_index=None,
) -> np.ndarray:
    """Per-path martingale integrand estimate at one slice.

    Fits are cross-fitted over a half split of the paths: each half is
    predicted from the other half's coefficients.  In-sample prediction
    correlates the fitted numerator with dB, which biases every downstream
    integral against dB; cross-fitting removes that bias at the price of a
    factor-2 variance in the fit.
    """
    if np.all(dL == 0.0):
        return np.zeros_like(dL)  # fully frozen slice
    m = dL.shape[0]
    features = np.asarray(features, dtype=float)
    half = m // 2
    num = np.empty(m)
    den = np.empty(m)
    for fit_sl, pred_sl in ((slice(0, half), slice(half, m)), (slice(half, m), slice(0, half))):
        fa, fb = features[fit_sl], features[pred_sl]
        num[pred_sl] = fit_condexp(fa, (y_next * dB)[fit_sl], basis, slice_index).predict(fb)
        den[pred_sl] = fit_condexp(fa, dL[fit_sl], basis, slice_index).predict(fb)
    z = num / np.maximum(den, floor)
    z[den < floor] = 0.0
    return z


# paths per row block of the batched regressions, the linear solve's sweeps
# and the Picard forcings: a block's monomials and temporaries stay in cache
# from the moment they are built to their last use
_BLOCK_ROWS = 512


def _row_slices(start: int, stop: int):
    """Row slices of at most _BLOCK_ROWS rows covering rows start:stop."""
    for lo in range(start, stop, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, stop))


def _predict(fits, block) -> list:
    """Predict `RegressionPlan._fit`'s fits on a row block, one (rows,
    n_steps - 1) array per job: a job fits in-sample (sample 0) or on both
    halves, each predicting the other, so one fit predicts every row."""
    half, monomials = block
    coefs = [c for s, c in fits if s in (0, 3 - half)]  # one per job, in job order
    shape = next(monomials).shape  # the intercept, written directly
    outs = [np.full(shape, c[0]) for c in coefs]
    prod = np.empty(shape)
    for j, mono in enumerate(monomials, start=1):
        for dest, c in zip(outs, coefs):
            np.multiply(mono, c[j], out=prod)
            dest += prod
    return outs


class RegressionPlan:
    """The slice regressions of a linear solve, set up once per ensemble and
    basis.

    Slice k (1 <= k < n_steps) regresses on the monomials of the ensemble's
    features at k, so everything that depends on the designs alone is built
    here: the ridged Gram matrix of every slice for all paths and for each
    cross-fit half, with the ridge `fit_condexp` uses at each sample size,
    the cross-fitted denominator E[dL_k | F] of the ratio estimator with the
    mask where z is set to zero, and the read-only weights w = exp(-(t + L))
    of the linear solve.  `fit` fits one linear solve's regressions on every
    slice at once, with the single-slice path's checks; `predict` evaluates
    them on a row block.  The monomials are streamed from X and R over row
    blocks of paths, never stored: the Grams, the target reductions and the
    predictions all come from that stream, so the plan holds p x p numbers
    per slice, one (n_paths, n_steps - 1) denominator and one weight grid.
    """

    def __init__(self, ensemble, basis: BasisSpec):
        m, n = ensemble.n_paths, ensemble.n_steps
        inner = slice(1, n)
        self.ensemble = ensemble
        self.basis = basis
        # predicted clock activity below the floor counts as a frozen clock
        self.floor = 1e-12 * ensemble.grid.dt / ensemble.kappa
        self.w = np.exp(-(ensemble.grid.times()[None, :] + ensemble.L))
        self.w.flags.writeable = False
        self._columns = [ensemble.X[:, inner]]
        # Where R is zero on every path (a jump-free clock), the monomials
        # that contain R vanish: their Gram rows are the ridge alone and
        # their coefficients exactly zero, so the plan fits without them.
        # The checks below still judge the design the basis asks for.
        r_vanishes = basis.include_r and not ensemble.R[:, inner].any()
        if basis.include_r and not r_vanishes:
            self._columns.append(ensemble.R[:, inner])
        self._dB = ensemble.dB[:, inner]
        self._half = half = m // 2

        dL = ensemble.dL[:, inner]
        frozen = np.all(dL == 0.0, axis=0)
        dim = math.comb(1 + basis.include_r + basis.degree, basis.degree)
        self._ridges = [basis.effective_ridge(size) for size in (m, half, m - half)]
        if n > 1 and m < dim + 1:
            raise ValueError(f"need at least basis dimension + 1 = {dim + 1} paths, got {m}")
        if n > 1 and r_vanishes and basis.degree > 0 and basis.ridge == 0.0:
            raise SingularSliceError(1)  # the zero R column of every design

        p = math.comb(len(self._columns) + basis.degree, basis.degree)
        # the raw Grams of the cross-fit halves (samples 1, 2) reduced over the
        # monomial stream, and their sum; features too large for floats
        # overflow here, and the check below names the slice instead of warning
        self._grams = np.zeros((3, n - 1, p, p))
        upper = np.triu_indices(p)
        with np.errstate(over="ignore", invalid="ignore"):
            for _, (h, monomials) in self.row_blocks():
                mono = list(monomials)
                for i, j in zip(*upper):
                    self._grams[h, :, i, j] += np.einsum("ik,ik->k", mono[i], mono[j])
            self._grams[..., upper[1], upper[0]] = self._grams[..., upper[0], upper[1]]
            self._grams[0] = self._grams[1] + self._grams[2]
            self._grams += np.multiply.outer(self._ridges, np.eye(p))[:, None]
        finite = np.isfinite(self._grams).all(axis=(0, 2, 3))
        if not finite.all():
            raise _NonFiniteError(f"non-finite regression design at slice {finite.argmin() + 1}")
        # under ridge 0, singular Grams in the single-slice path's order: the
        # in-sample fits of every slice come before the cross-fits
        deficient = np.zeros((3, n - 1), dtype=bool)
        if basis.ridge == 0.0:
            deficient = np.linalg.matrix_rank(self._grams, hermitian=True) < p
        crossfit = deficient[1:].any(axis=0) & ~frozen
        if deficient[0].any():
            raise SingularSliceError(int(deficient[0].argmax()) + 1)
        if not np.all(frozen) and half < dim + 1:
            raise ValueError(
                f"need at least 2 * (basis dimension + 1) = {2 * (dim + 1)} paths to "
                f"cross-fit the integrand, got {m}"
            )
        if crossfit.any():
            raise SingularSliceError(int(crossfit.argmax()) + 1)
        # frozen slices are never cross-fitted (z is zero there); the identity
        # keeps their possibly singular half Grams out of the batched solve
        self._grams[1:, frozen] = np.eye(p)

        fits = self._fit((lambda rows: dL[rows], (1, 2)))
        den = np.concatenate([_predict(fits, block)[0] for _, block in self.row_blocks()])
        self._zero = (den < self.floor) | frozen
        self._den = np.maximum(den, self.floor)

    def row_blocks(self):
        """Row blocks of the paths that never straddle the cross-fit split:
        (rows, (half, monomials of the block)), half 1 for the first half of
        the paths and 2 for the second."""
        m = self._columns[0].shape[0]
        for lo, hi, half in ((0, self._half, 1), (self._half, m, 2)):
            for rows in _row_slices(lo, hi):
                # copy a stride-0 column (a jump-free R): einsum sums it in another order
                cols = [c[rows] if c.strides[0] else c[rows].copy() for c in self._columns]
                yield rows, (half, _monomials(cols, self.basis.degree, cols[0].shape))

    def _fit(self, *jobs) -> list:
        """Batched slice regressions.  Each job is (target, samples):
        target(rows) gives the targets of a row block of paths, column k - 1
        for slice k, or a 1-d block shared by all slices; they are fitted on
        every slice at once for each sample in samples (0: all paths, 1 and
        2: the two halves).  Returns (sample, coefficients) per fit, by job."""
        n_slices, p = self._grams.shape[1:3]
        fits = [(job, s) for job, (_, samples) in enumerate(jobs) for s in samples]
        rhs = np.zeros((len(fits), n_slices, p))
        for rows, (half, monomials) in self.row_blocks():
            targets = [target(rows) for target, _ in jobs]
            reduce = [(i, targets[job]) for i, (job, s) in enumerate(fits) if s in (0, half)]
            for j, mono in enumerate(monomials):
                for i, target in reduce:
                    spec = "i,ik->k" if target.ndim == 1 else "ik,ik->k"
                    rhs[i, :, j] += np.einsum(spec, target, mono)
        if not np.all(np.isfinite(rhs)):
            raise _NonFiniteError("non-finite regression targets")
        grams = self._grams[[s for _, s in fits]]
        try:
            coef = np.linalg.solve(grams, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # exactly singular in LU despite the ridge (a pathological jump
            # law can make R huge); the batched solve does not say where
            for k in range(n_slices):
                for i, (_, s) in enumerate(fits):
                    try:
                        np.linalg.solve(grams[i, k], rhs[i, k])
                    except np.linalg.LinAlgError:
                        raise SingularSliceError(k + 1, self._ridges[s]) from None
            raise
        # (fits, p, slices): each monomial's coefficients are one contiguous row
        coef = np.ascontiguousarray(coef.transpose(0, 2, 1))
        return [(s, c) for (_, s), c in zip(fits, coef)]

    def fit(self, xi: np.ndarray) -> list:
        """A linear solve's regressions on every slice 1 <= k < n_steps, for
        `predict`: xi in-sample and xi dB_k on each cross-fit half."""
        return self._fit((lambda r: xi[r], (0,)), (lambda r: xi[r, None] * self._dB[r], (1, 2)))

    def predict(self, fits, rows: slice, block):
        """`fit` predicted on a block of `row_blocks`, as two (rows, n_steps -
        1) arrays: the in-sample E[xi | F_k] and the cross-fitted ratio
        E[xi dB_k | F] / E[dL_k | F] (`extract_z` per slice)."""
        cond, z = _predict(fits, block)
        z /= self._den[rows]
        z[self._zero[rows]] = 0.0
        return cond, z
