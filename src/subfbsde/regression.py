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
denominator are set up once and each linear solve only reduces its target
onto the monomials and expands the coefficients back.  The single-slice
functions stay as the reference the plan is tested against.
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
    def __init__(self, slice_index):
        self.slice_index = slice_index
        super().__init__(
            f"regression design matrix is rank deficient at slice {slice_index}; "
            "add ridge regularization or drop collinear features"
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
        if self.ridge is not None and self.ridge < 0.0:
            raise ValueError("ridge must be >= 0")

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
    """All monomials of total degree <= degree, intercept first."""
    F = np.atleast_2d(np.asarray(features, dtype=float))
    if F.ndim != 2:
        raise ValueError("features must be a 2-d array (n_paths, n_features)")
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
    features = np.atleast_2d(np.asarray(features, dtype=float))
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


class RegressionPlan:
    """The slice regressions of a linear solve, set up once per ensemble and
    basis.

    Slice k (1 <= k < n_steps) regresses on the monomials of the ensemble's
    features at k, so everything that depends on the designs alone is built
    here: the ridged Gram matrix of every slice for all paths and for each
    cross-fit half, with the ridge `fit_condexp` uses at each sample size,
    and the cross-fitted denominator E[dL_k | F] of the ratio estimator with
    the mask where z is set to zero.  `regress` then runs the regressions
    of one linear solve on every slice at once, with the same checks as the
    single-slice path.  Monomial columns are streamed from the
    ensemble's X and R arrays rather than stored, so the plan holds p x p
    numbers per slice plus one (n_paths, n_steps - 1) denominator.
    """

    def __init__(self, ensemble, basis: BasisSpec):
        m, n = ensemble.n_paths, ensemble.n_steps
        inner = slice(1, n)
        self.ensemble = ensemble
        self.basis = basis
        # predicted clock activity below the floor counts as a frozen clock
        self.floor = 1e-12 * ensemble.grid.dt / ensemble.kappa
        self._columns = [ensemble.X[:, inner]]
        if basis.include_r:
            self._columns.append(ensemble.R[:, inner])
        self._dB = ensemble.dB[:, inner]
        self._half = half = m // 2

        dL = ensemble.dL[:, inner]
        frozen = np.all(dL == 0.0, axis=0)
        p = math.comb(len(self._columns) + basis.degree, basis.degree)
        sizes = (m, half, m - half)
        if n > 1 and m < p + 1:
            raise ValueError(f"need at least basis dimension + 1 = {p + 1} paths, got {m}")

        self._grams = np.empty((3, n - 1, p, p))
        singular = ([], [])  # slices whose full / half designs are rank deficient
        for k in range(1, n):
            A = polynomial_features(
                np.column_stack([c[:, k - 1] for c in self._columns]), basis.degree
            )
            designs = (A, A[:half], A[half:])
            for s, As in enumerate(designs):
                self._grams[s, k - 1] = As.T @ As + basis.effective_ridge(sizes[s]) * np.eye(p)
            if basis.ridge == 0.0:
                if np.linalg.matrix_rank(A) < p:
                    singular[0].append(k)
                if not frozen[k - 1] and any(np.linalg.matrix_rank(As) < p for As in designs[1:]):
                    singular[1].append(k)
        # checks in the order of the single-slice path: the in-sample fits of
        # every slice come before the cross-fits
        if singular[0]:
            raise SingularSliceError(singular[0][0])
        if not np.all(frozen) and half < p + 1:
            raise ValueError(
                f"need at least 2 * (basis dimension + 1) = {2 * (p + 1)} paths to "
                f"cross-fit the integrand, got {m}"
            )
        if singular[1]:
            raise SingularSliceError(singular[1][0])
        # frozen slices are never cross-fitted (z is zero there); the identity
        # keeps their possibly singular half Grams out of the batched solve
        self._grams[1:, frozen] = np.eye(p)

        (den,) = self._fit_predict((dL, (1, 2)))
        self._zero = (den < self.floor) | frozen
        self._den = np.maximum(den, self.floor)

    def _row_blocks(self):
        """Row blocks of the paths that never straddle the cross-fit split:
        (rows, half, monomials of the block), half 1 for the first half of
        the paths and 2 for the second."""
        m = self._columns[0].shape[0]
        for lo, hi, half in ((0, self._half, 1), (self._half, m, 2)):
            for rows in _row_slices(lo, hi):
                cols = [c[rows] for c in self._columns]
                yield rows, half, _monomials(cols, self.basis.degree, cols[0].shape)

    def _fit_predict(self, *jobs) -> list:
        """Batched slice regressions.  Each job is (target, samples): the
        target of slice k is target[:, k], or target itself for a 1-d target
        shared by all slices; it is fitted on every slice at once for each
        sample in samples (0: all paths, 1 and 2: the two halves) and
        predicted in-sample for sample 0 and on the other half for a half,
        into one output per job."""
        n_slices, p = self._grams.shape[1:3]
        fits = [(job, s) for job, (_, samples) in enumerate(jobs) for s in samples]
        rhs = np.zeros((len(fits), n_slices, p))
        for rows, half, monomials in self._row_blocks():
            reduce = [
                (i, jobs[job][0][rows]) for i, (job, s) in enumerate(fits) if s in (0, half)
            ]
            for j, mono in enumerate(monomials):
                for i, target in reduce:
                    spec = "i,ik->k" if target.ndim == 1 else "ik,ik->k"
                    rhs[i, :, j] += np.einsum(spec, target, mono)
        if not np.all(np.isfinite(rhs)):
            raise _NonFiniteError("non-finite regression targets")
        coef = np.linalg.solve(self._grams[[s for _, s in fits]], rhs[..., None])[..., 0]
        out = [np.zeros(self._columns[0].shape) for _ in jobs]
        for rows, half, monomials in self._row_blocks():
            expand = [
                (out[job][rows], coef[i]) for i, (job, s) in enumerate(fits) if s in (0, 3 - half)
            ]
            for j, mono in enumerate(monomials):
                for dest, c in expand:
                    dest += mono * c[:, j]
        return out

    def regress(self, xi: np.ndarray):
        """The backward-pass regressions of one linear solve on every slice
        1 <= k < n_steps, as two (n_paths, n_steps - 1) arrays: the in-sample
        E[xi | F_k] (`fit_condexp` per slice) and the cross-fitted ratio
        estimate E[xi dB_k | F] / E[dL_k | F] of the integrand (`extract_z`
        per slice)."""
        cond, num = self._fit_predict((xi, (0,)), (xi[:, None] * self._dB, (1, 2)))
        z = num / self._den
        z[self._zero] = 0.0
        return cond, z
