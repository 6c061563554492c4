"""Least-squares Monte Carlo conditional expectations on path ensembles.

Conditional expectations given the path history are approximated by ridge
least squares onto total-degree polynomials of the slice features, the
augmented Markov state (X_k, R_k) or X_k alone.  The martingale integrand z
is recovered by the ratio estimator
    z_k = E[y_{k+1} dB_k | features] / E[dL_k | features],
set to zero wherever the clock is predicted frozen: z is only defined
dL-almost everywhere.

`RegressionPlan` runs them on every slice of an ensemble at once: the designs
are fixed by the ensemble (`_feature_columns`), so their Grams are built and
judged, and the ratio estimator's denominator is set up, once; a solve hands
it the targets and the numerator, which it reduces onto the monomials, solves
for every slice at once and expands back one row block at a time.  The
single-slice `fit_condexp`, `extract_z` and `polynomial_features` run in no
solve and are not exported: they stay as the reference the plan is tested
against and because the benchmark tracer (perfbench/spans.py) patches them.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSpec",
    "RegressionPlan",
    "SingularSliceError",
]


class _NonFiniteError(ValueError, FloatingPointError):
    """Non-finite numbers where the solver needs finite ones (a bundle's
    coefficients, forcings, regression targets).  A ValueError for callers
    that validate inputs, and a FloatingPointError, the class of numerical
    failures, for callers that tell those apart from bad settings."""


class SingularSliceError(FloatingPointError):
    """A slice regression that cannot be solved, a numerical failure: its
    Gram is singular in LU, or under ridge 0 numerically rank deficient.
    With a ridge, the features are so large that it vanishes next to them."""

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
    return np.column_stack(list(_monomials(list(F.T), degree, F.shape[:1])))


def fit_condexp(features, targets, basis: BasisSpec, slice_index=None) -> np.ndarray:
    """Ridge least squares of targets on the polynomial basis of features:
    the coefficients, predicted by `polynomial_features(F, degree) @ coef`."""
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(targets)):
        raise _NonFiniteError(f"non-finite regression targets at slice {slice_index}")
    A = polynomial_features(features, basis.degree)
    m, p = A.shape
    if m < p + 1:
        raise ValueError(f"need at least basis dimension + 1 = {p + 1} paths, got {m}")
    ridge = basis.effective_ridge(m)
    if ridge == 0.0 and np.linalg.matrix_rank(A) < p:
        raise SingularSliceError(slice_index)
    return np.linalg.solve(A.T @ A + ridge * np.eye(p), A.T @ targets)


def extract_z(
    numerator: np.ndarray,
    dL: np.ndarray,
    features: np.ndarray,
    basis: BasisSpec,
    floor: float,
    slice_index=None,
) -> np.ndarray:
    """Per-path martingale integrand estimate at one slice from the ratio
    estimator's per-path numerator (y_{k+1} dB_k) and clock increments.

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
    num, den = np.empty(m), np.empty(m)
    for fit_sl, pred_sl in ((slice(0, half), slice(half, m)), (slice(half, m), slice(0, half))):
        fa, A = features[fit_sl], polynomial_features(features[pred_sl], basis.degree)
        num[pred_sl] = A @ fit_condexp(fa, numerator[fit_sl], basis, slice_index)
        den[pred_sl] = A @ fit_condexp(fa, dL[fit_sl], basis, slice_index)
    z = num / np.maximum(den, floor)
    z[den < floor] = 0.0
    return z


def _feature_columns(ensemble, basis: BasisSpec) -> list:
    """The feature columns of the slice regressions, (n_paths, n_steps - 1)
    views with slice k in column k - 1: X, and R unless the basis leaves it
    out or it is zero on every path (its monomials would vanish)."""
    X, R = (a[:, 1 : ensemble.n_steps] for a in (ensemble.X, ensemble.R))
    return [X, R] if basis.include_r and R.any() else [X]


# paths per row block of every row-block loop (the linear solve's sweeps, the
# batched regressions and every reduction): a block's monomials and
# temporaries stay in cache from the moment they are built to their last use,
# and each numpy call on a block is long next to the helper thread's GIL
# hand-over.  Two blocks are in flight at once, so a sweep drops each
# temporary as soon as it is spent.
_BLOCK_ROWS = 512


def _row_slices(start: int, stop: int):
    """Row slices of at most `_BLOCK_ROWS` rows covering rows start:stop."""
    for lo in range(start, stop, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, stop))


# a helper thread pays where each numpy call on a block outlasts the GIL's hand-over.
# One jump-clock solve, time with/without it (2 vCPUs, medians of 9 pairs, 3 runs):
# 10k paths 0.70-0.85 at 40 steps, 0.71-0.74 at 64, 0.60-0.68 at 100; 1000 x 100
# 0.71-0.95; 400 paths 1.21-1.41 at 64, 1.02-1.26 at 100 (and 40 slowed the tests)
_HELPER_MIN_STEPS = 70


def _helper_pays(n_steps: int) -> bool:
    """A grid of enough steps, and more than one CPU this process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return n_steps >= _HELPER_MIN_STEPS and (cpus or 1) > 1


def _map_blocks(fn, items, n_steps: int) -> list:
    """[fn(item) for item in items] over row blocks of a grid of n_steps steps,
    on the calling thread and, for two items or more where `_helper_pays`, one
    helper thread, each pulling the next item.  Results come in item order; the
    first failure in item order is raised, and no item starts after one.  The
    helper runs under the caller's numpy error state (a new thread does not
    inherit it) and is joined before the return."""
    items, lock, results, errors, stop = enumerate(items), threading.Lock(), {}, {}, []
    head = list(itertools.islice(items, 2))
    pending = itertools.chain(head, items)

    def drain(settings):
        with np.errstate(**settings):
            while True:
                with lock:
                    i, item = (None, None) if errors or stop else next(pending, (None, None))
                if i is None:
                    return
                try:
                    results[i] = fn(item)
                except Exception as err:
                    errors[i] = err

    thread = None
    if len(head) > 1 and _helper_pays(n_steps):
        thread = threading.Thread(target=drain, args=(np.geterr(),), daemon=True)
        thread.start()
    try:
        drain(np.geterr())
    finally:
        if thread is not None:
            stop.append(True)  # the caller was interrupted, or no item is left
            thread.join()
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(results))]


def _predict(monomials, *coefs) -> list:
    """Predict coefficient arrays, (p, n_steps - 1) each, on a row block's
    monomial stream: one (rows, n_steps - 1) prediction per array."""
    shape = next(monomials).shape  # the intercept, written directly
    outs = [np.full(shape, c[0]) for c in coefs]
    prod = np.empty(shape)
    j = 0
    for mono in monomials:  # no enumerate: its result tuple would hold the spent monomial
        j += 1
        for dest, c in zip(outs, coefs):
            np.multiply(mono, c[j], out=prod)
            dest += prod
        del mono  # before the stream builds the next one
    return outs


class RegressionPlan:
    """The slice regressions of a linear solve, set up once per ensemble and
    basis.

    Slice k (1 <= k < n_steps) regresses on the monomials of the ensemble's
    features at k, so everything that depends on the designs alone is built
    here: the ridged Gram matrix of every slice for all paths and for each
    cross-fit half, with the ridge `fit_condexp` uses at each sample size, and
    the cross-fitted denominator E[dL_k | F] of the ratio estimator with the
    mask where z is set to zero, its sums taken in the Gram pass.  It judges
    the design it fits: too few paths fail the build before the Gram pass, and
    a Gram no solve could use names its earliest slice, so `fit` fits the
    targets a linear solve hands it on every slice in one batched solve;
    `predict` evaluates them on a row block.  The monomials are streamed from
    `_feature_columns` over row blocks of paths, twice per build and once per
    fit, never stored; the blocks' sums are added in block order.  The plan
    holds p x p numbers per slice and one (n_paths, n_steps - 1) denominator.
    """

    def __init__(self, ensemble, basis: BasisSpec):
        m, n = ensemble.n_paths, ensemble.n_steps
        self.ensemble = ensemble
        self.basis = basis
        # predicted clock activity below the floor counts as a frozen clock
        self.floor = 1e-12 * ensemble.grid.dt / ensemble.kappa
        # the plan fits, counts paths for and judges this design alone
        self._columns = _feature_columns(ensemble, basis)
        self._half = half = m // 2

        dL = ensemble.dL[:, 1:n]
        frozen = np.all(dL == 0.0, axis=0)
        p = math.comb(len(self._columns) + basis.degree, basis.degree)
        ridges = [basis.effective_ridge(size) for size in (m, half, m - half)]
        if n > 1 and m < p + 1:
            raise ValueError(f"need at least basis dimension + 1 = {p + 1} paths, got {m}")
        if not frozen.all() and half < p + 1:
            raise ValueError(
                f"need at least 2 * (basis dimension + 1) = {2 * (p + 1)} paths to "
                f"cross-fit the integrand, got {m}"
            )
        # the raw Grams of the cross-fit halves (samples 1, 2) reduced over the
        # monomial stream, and their sum, with each half's sums of dL against the
        # monomials (sample 0 stays zero); features too large for floats
        # overflow here, and the check below names the slice instead of warning
        self._grams = np.zeros((3, n - 1, p, p))
        dL_sums = np.zeros((3, n - 1, p))
        upper = np.triu_indices(p)

        def gram(block):
            rows, (h, monomials) = block
            mono = list(monomials)
            grams = [np.einsum("ik,ik->k", mono[i], mono[j]) for i, j in zip(*upper)]
            return h, grams, [np.einsum("ik,ik->k", dL[rows], a) for a in mono]

        with np.errstate(over="ignore", invalid="ignore"):
            for h, grams, sums in _map_blocks(gram, self.row_blocks(), n):
                for i, j, part in zip(*upper, grams):
                    self._grams[h, :, i, j] += part
                for j, part in enumerate(sums):
                    dL_sums[h, :, j] += part
            self._grams[..., upper[1], upper[0]] = self._grams[..., upper[0], upper[1]]
            self._grams[0] = self._grams[1] + self._grams[2]
            self._grams += np.multiply.outer(ridges, np.eye(p))[:, None]
        finite = np.isfinite(self._grams).all(axis=(0, 2, 3))
        if not finite.all():
            raise _NonFiniteError(f"non-finite regression design at slice {finite.argmin() + 1}")
        # frozen slices are never cross-fitted (z is zero there); the identity
        # keeps their possibly singular half Grams out of the checks and solves
        self._grams[1:, frozen] = np.eye(p)
        # Grams singular in LU (as `np.linalg.solve` factors them) or, under ridge 0,
        # rank deficient: the earliest slice is named, in-sample before its halves
        singular = np.linalg.slogdet(self._grams)[0] == 0.0
        if basis.ridge == 0.0:
            singular |= np.linalg.matrix_rank(self._grams, hermitian=True) < p
        if singular.any():
            k = int(singular.any(axis=0).argmax())
            raise SingularSliceError(k + 1, ridges[int(singular[:, k].argmax())])

        # a frozen slice's sums are 0, and so are its coefficients and predicted den
        coef = self._solve(dL_sums)
        den = np.empty(dL.shape)

        def predict(block):  # straight into the block's rows
            rows, (half, monomials) = block
            np.copyto(den[rows], _predict(monomials, coef[3 - half])[0])

        _map_blocks(predict, self.row_blocks(), n)
        self._zero = den < self.floor
        self._den = np.maximum(den, self.floor, out=den)

    def row_blocks(self):
        """Row blocks of at most `_BLOCK_ROWS` paths that never straddle the
        cross-fit split: (rows, (half, monomials of the block)), half 1 for
        the first half of the paths and 2 for the second.  The block's
        feature columns are contiguous copies, held by its monomial stream
        alone: numpy runs one inner loop per path on a column slice of X or
        R, and einsum sums a stride-0 column (a jump-free R) in another order."""
        m = self._columns[0].shape[0]
        for lo, hi, half in ((0, self._half, 1), (self._half, m, 2)):
            for rows in _row_slices(lo, hi):
                yield rows, (half, self._block_monomials(rows))

    def _block_monomials(self, rows: slice):
        # a call of its own, so that the suspended `row_blocks` holds no copy
        cols = [c[rows].copy() for c in self._columns]
        return _monomials(cols, self.basis.degree, cols[0].shape)

    def _solve(self, sums) -> np.ndarray:
        """Coefficients (3, p, n_steps - 1), each monomial's one contiguous row,
        of sums (3, n_steps - 1, p) against the monomials: one batched solve
        over the Grams, every one judged solvable when the plan was built."""
        coef = np.linalg.solve(self._grams, sums[..., None])[..., 0]
        return np.ascontiguousarray(coef.transpose(0, 2, 1))

    def fit(self, target, numerator) -> np.ndarray:
        """A linear solve's regressions on every slice 1 <= k < n_steps, for
        `predict`: coefficients (3, p, n_steps - 1) of target in-sample
        (sample 0) and of the ratio estimator's numerator on each cross-fit
        half (samples 1, 2).  Both are row-block callables: target(rows) gives
        a 1-d block shared by all slices, numerator(rows) column k - 1 for
        slice k."""
        sums = np.zeros(self._grams.shape[:3])

        def reduce(block):
            # the block's sums, zero for the fit on the other half
            rows, (half, monomials) = block
            xi, num = target(rows), numerator(rows)
            out = np.zeros_like(sums)
            j = 0
            for mono in monomials:  # as in `_predict`, each spent monomial is dropped
                out[0, :, j] = np.einsum("i,ik->k", xi, mono)
                out[half, :, j] = np.einsum("ik,ik->k", num, mono)
                j += 1
                del mono
            return out

        for out in _map_blocks(reduce, self.row_blocks(), self.ensemble.n_steps):
            sums += out  # block order; an added zero leaves a sum unchanged
        if not np.all(np.isfinite(sums)):
            raise _NonFiniteError("non-finite regression targets")
        return self._solve(sums)

    def predict(self, coef, rows: slice, block):
        """`fit`'s coefficients predicted on a block of `row_blocks`, as two
        (rows, n_steps - 1) arrays: the in-sample E[target | F_k] and the
        cross-fitted ratio E[numerator | F] / E[dL_k | F] (`extract_z` per
        slice)."""
        half, monomials = block
        cond, z = _predict(monomials, coef[0], coef[3 - half])
        z /= self._den[rows]
        z[self._zero[rows]] = 0.0
        return cond, z
