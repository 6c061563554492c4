"""The ensemble-bound regression plan against the single-slice reference path."""

import dataclasses

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ContinuationConfig,
    ForcingSet,
    PathEnsemble,
    RegressionPlan,
    SingularSliceError,
    TimeGrid,
    build_ensemble,
    get_bundle,
    solve_fbsde,
    solve_linear,
)
from subfbsde import regression
from subfbsde.linear_solver import _weights
from subfbsde.regression import extract_z, fit_condexp, polynomial_features
from oracles import whole_array_solve_linear


class SliceBySlicePlan:
    """The backward-pass regressions one slice at a time with `fit_condexp`
    and `extract_z`, in the order the plan judges them: slice by slice, the
    in-sample fit before the cross-fitted ratio.  It builds no plan, only
    reads the plan's feature columns, and has the plan's interface: `fit`
    takes the same two row-block callables and returns the whole (n_paths,
    n_steps - 1) predictions, and `predict` returns its one row block, every
    path."""

    def __init__(self, ensemble, basis):
        self.ensemble = ensemble
        self.basis = basis
        self.floor = 1e-12 * ensemble.grid.dt / ensemble.kappa

    def row_blocks(self):
        yield slice(0, self.ensemble.n_paths), None

    def fit(self, target, numerator):
        ens, basis = self.ensemble, self.basis
        rows = slice(0, ens.n_paths)
        xi, numerator = target(rows), numerator(rows)
        columns = regression._feature_columns(ens, basis)
        cond = np.empty((ens.n_paths, ens.n_steps - 1))
        z = np.empty_like(cond)
        for k in range(1, ens.n_steps):
            feats = np.column_stack([c[:, k - 1] for c in columns])
            cond[:, k - 1] = fit_condexp(feats, xi, basis, slice_index=k).predict(feats)
            z[:, k - 1] = extract_z(
                numerator[:, k - 1], ens.dL[:, k], feats, basis, self.floor, k
            )
        return cond, z

    def predict(self, fits, rows, block):
        return fits[0][rows], fits[1][rows]


def state_dependent_forcings(ens):
    """Forcings whose terminal aggregate depends on the path, so every slice
    regression has a non-trivial target."""
    m, n = ens.n_paths, ens.n_steps
    f = ForcingSet.constant(m, n, b0=0.3, g0=-0.2, sigma0=0.5)
    f.h0 += np.sin(ens.X) + 0.3 * ens.R
    f.delta0 += np.cos(ens.X)
    f.phi0 = ens.X[:, -1] ** 2 + 0.1 * np.random.default_rng(0).standard_normal(m)
    return f


def assert_same_solution(theta, ref):
    assert np.allclose(theta.x, ref.x, rtol=0.0, atol=1e-10)
    assert np.allclose(theta.y, ref.y, rtol=0.0, atol=1e-10)
    assert np.max(np.abs(theta.z - ref.z)) <= 1e-8 * np.max(np.abs(ref.z))


@pytest.mark.parametrize("include_r", [True, False])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("which", ["jump_ensemble", "drift_ensemble"])
def test_plan_matches_single_slice_path(request, which, degree, include_r):
    ens = request.getfixturevalue(which)
    basis = BasisSpec(degree=degree, include_r=include_r)
    f = state_dependent_forcings(ens)
    theta = solve_linear(f.rows, 1.0, RegressionPlan(ens, basis))
    ref = solve_linear(f.rows, 1.0, SliceBySlicePlan(ens, basis))
    assert np.max(np.abs(ref.z)) > 0.0
    assert_same_solution(theta, ref)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_vanishing_r_monomials_leave_the_plan(drift_ensemble, degree):
    # a jump-free clock has R = 0 on every path: include_r fits exactly as
    # without it, down to the last bit (at degree 3 a 10 x 10 Gram with zero
    # rows rounds differently from the 4 x 4 one, so only dropping them gives
    # equality)
    f = state_dependent_forcings(drift_ensemble)
    with_r, without_r = (
        solve_linear(f.rows, 1.0, RegressionPlan(drift_ensemble, BasisSpec(degree, include_r)))
        for include_r in (True, False)
    )
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(with_r, name), getattr(without_r, name)), name


def test_jump_ensemble_keeps_its_r_monomials(jump_ensemble, jump_plan):
    assert jump_plan._grams.shape[-1] == 6
    f = state_dependent_forcings(jump_ensemble)
    with_r = solve_linear(f.rows, 1.0, jump_plan)
    without_r = solve_linear(f.rows, 1.0, RegressionPlan(jump_ensemble, BasisSpec(include_r=False)))
    assert not np.allclose(with_r.y, without_r.y)


@pytest.mark.parametrize("which", ["jump", "drift"])
def test_plan_matches_single_slice_path_on_ragged_blocks(jump_spec, drift_spec, which):
    # 1300 paths: the cross-fit split at 650 is no multiple of the 512-row
    # block, so each half ends in a partial block
    spec = jump_spec if which == "jump" else drift_spec
    ens = build_ensemble(spec, TimeGrid(a=0.0, T=1.0, n_steps=10), n_paths=1300, seed=5, x0=0.3)
    f = state_dependent_forcings(ens)
    theta = solve_linear(f.rows, 1.0, RegressionPlan(ens, BasisSpec()))
    ref = solve_linear(f.rows, 1.0, SliceBySlicePlan(ens, BasisSpec()))
    assert np.max(np.abs(ref.z)) > 0.0
    assert_same_solution(theta, ref)


def test_shared_clock_rows_solve_as_per_path_ones(drift_spec):
    # a delayed jump-free clock: R = (a - t)^+ is one nonzero row that every
    # path shares, a stride-0 feature; the solve must not depend on its layout
    # (constant forcings, as the CLI's: einsum summed the stride-0 R against
    # this xi in another order, and y moved in the last bits)
    ens = build_ensemble(drift_spec, TimeGrid(a=0.3, T=1.0, n_steps=20), n_paths=1300, seed=5)
    assert ens.R.strides[0] == 0 and ens.R.any()
    per_path = dataclasses.replace(ens, L=ens.L.copy(), R=ens.R.copy(), dL=ens.dL.copy())
    f = ForcingSet.constant(ens.n_paths, ens.n_steps, g0=1.0, sigma0=0.5, phi0=0.3)
    shared, own = (
        solve_linear(f.rows, 1.0, RegressionPlan(e, BasisSpec())) for e in (ens, per_path)
    )
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(shared, name), getattr(own, name)), name


def _constant_x(ens, k, rows):
    X = ens.X.copy()
    X[rows, k] = 0.0
    return dataclasses.replace(ens, X=X)


@pytest.mark.parametrize(
    "flat, expected",
    [
        ({7: slice(None)}, 7),  # rank-deficient in-sample design
        ({4: slice(0, 200)}, 4),  # only the first cross-fit half is deficient
        ({4: slice(200, 400)}, 4),  # only the second half
        ({4: slice(0, 200), 7: slice(None)}, 4),  # the earliest slice, not the in-sample fits
    ],
)
def test_ridge_zero_singular_slice_index(drift_ensemble, flat, expected):
    ens = drift_ensemble
    for k, rows in flat.items():
        ens = _constant_x(ens, k, rows)
    basis = BasisSpec(degree=1, include_r=False, ridge=0.0)
    f = state_dependent_forcings(ens)
    with pytest.raises(SingularSliceError) as ref_err:
        solve_linear(f.rows, 1.0, SliceBySlicePlan(ens, basis))
    with pytest.raises(SingularSliceError) as err:
        solve_linear(f.rows, 1.0, RegressionPlan(ens, basis))
    assert err.value.slice_index == ref_err.value.slice_index == expected


@pytest.mark.parametrize("rows", [slice(None), slice(200, 400)], ids=["all", "second_half"])
def test_ridge_zero_rank_is_judged_on_the_gram(drift_ensemble, rows):
    # X in [1, 1 + 1e-5] at slice 6, on every path or on the second cross-fit
    # half only: the design [1, X, X^2] has full rank (condition ~1e11), but
    # its Gram, the matrix LU factors, is numerically singular
    k = 6
    X = drift_ensemble.X.copy()
    X[rows, k] = 1.0 + 1e-5 * np.random.default_rng(4).random(X[rows, k].shape)
    assert np.linalg.matrix_rank(polynomial_features(X[rows, k], 2)) == 3
    ens = dataclasses.replace(drift_ensemble, X=X)
    with pytest.raises(SingularSliceError, match="at slice 6; add ridge regularization") as err:
        RegressionPlan(ens, BasisSpec(degree=2, include_r=False, ridge=0.0))
    assert err.value.slice_index == k


def test_non_finite_design_names_its_first_slice(drift_ensemble):
    # degree-4 Gram entries of X = 1e100 overflow at slices 5 and 8 only
    X = drift_ensemble.X.copy()
    X[:3, [5, 8]] = 1e100
    with pytest.raises(FloatingPointError, match="non-finite regression design at slice 5$"):
        RegressionPlan(dataclasses.replace(drift_ensemble, X=X), BasisSpec())


def _inject_ones_gram(monkeypatch, *cells):
    """Make the plan build's LU test see an all-ones Gram for each (sample,
    slice k) of cells, which it judges as `solve` would."""
    ones = np.ones((6, 6))
    assert np.linalg.slogdet(ones)[0] == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(ones, np.ones(6))
    slogdet = np.linalg.slogdet

    def with_ones_gram(grams):
        grams = grams.copy()
        for sample, k in cells:
            grams[sample, k - 1] = ones
        return slogdet(grams)

    monkeypatch.setattr(np.linalg, "slogdet", with_ones_gram)


def test_singular_half_gram_names_its_slice_and_ridge(jump_ensemble, monkeypatch):
    # a Gram exactly singular in LU despite a positive ridge fails the plan
    # build, named by its slice and that half's ridge (1e-10 per path: 2e-08
    # for a 200-path half, 4e-08 for all 400 paths)
    k = 5
    assert np.any(jump_ensemble.dL[:, k] > 0.0)  # not frozen, so cross-fitted
    _inject_ones_gram(monkeypatch, (2, k))
    with pytest.raises(SingularSliceError, match="at slice 5; it is singular despite the ridge "
                       "2e-08") as err:
        RegressionPlan(jump_ensemble, BasisSpec())
    assert err.value.slice_index == k
    assert isinstance(err.value, FloatingPointError)  # a numerical failure


def test_singular_in_sample_gram_names_its_slice_and_ridge(jump_ensemble, monkeypatch):
    # an in-sample Gram singular in LU fails the build before any solve,
    # named with the ridge of all 400 paths
    _inject_ones_gram(monkeypatch, (0, 7))
    with pytest.raises(SingularSliceError, match="at slice 7; it is singular despite the ridge "
                       "4e-08"):
        RegressionPlan(jump_ensemble, BasisSpec())


@pytest.mark.parametrize(
    "injected, expected",
    [
        ([(2, 5), (0, 7)], "at slice 5; it is singular despite the ridge 2e-08"),
        ([(2, 5), (0, 5)], "at slice 5; it is singular despite the ridge 4e-08"),
    ],
    ids=["earliest_slice", "in_sample_before_its_halves"],
)
def test_singular_verdict_names_the_earliest_slice(jump_ensemble, monkeypatch, injected, expected):
    _inject_ones_gram(monkeypatch, *injected)
    with pytest.raises(SingularSliceError, match=expected):
        RegressionPlan(jump_ensemble, BasisSpec())


@pytest.mark.parametrize(
    "n_paths, expected",
    [(3, "= 4 paths, got 3$"), (7, "= 8 paths to cross-fit the integrand, got 7$")],
    ids=["in_sample", "cross_fit"],
)
def test_paths_are_counted_on_the_fitted_basis_before_the_gram_pass(
    drift_spec, monkeypatch, n_paths, expected
):
    # R is zero on every path of a jump-free clock: the fitted basis is 1, X,
    # X^2, and too few paths for it fail the build before any row block runs
    ens = build_ensemble(drift_spec, TimeGrid(a=0.0, T=1.0, n_steps=10), n_paths, seed=5)

    def no_pass(*args):
        raise AssertionError("a row-block pass ran")

    monkeypatch.setattr(regression, "_map_blocks", no_pass)
    with pytest.raises(ValueError, match=expected):
        RegressionPlan(ens, BasisSpec())


def test_frozen_slice_gives_zero_z(drift_ensemble):
    k = 9
    dL, dB = drift_ensemble.dL.copy(), drift_ensemble.dB.copy()
    dL[:, k] = 0.0
    dB[:, k] = 0.0
    # a half design that is singular at the frozen slice is never cross-fitted
    ens = dataclasses.replace(_constant_x(drift_ensemble, k, slice(0, 200)), dL=dL, dB=dB)
    basis = BasisSpec(degree=2, include_r=False, ridge=0.0)
    f = state_dependent_forcings(ens)
    plan = RegressionPlan(ens, basis)
    theta = solve_linear(f.rows, 1.0, plan)
    ztilde = whole_array_solve_linear(f, 1.0, plan)[4]
    assert np.all(ztilde[:, k] == 0.0)
    assert np.all(theta.z[:, k] == 0.5 * f.sigma0[:, k])
    ref = solve_linear(f.rows, 1.0, SliceBySlicePlan(ens, basis))
    assert_same_solution(theta, ref)


def test_plan_built_once_per_solve_fbsde(drift_ensemble, monkeypatch):
    builds = []
    init = RegressionPlan.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RegressionPlan, "__init__", counting_init)
    bundle = get_bundle("canonical_monotone", c=0.5)
    config = ContinuationConfig(eta=0.5)
    _, diag = solve_fbsde(bundle, 1.0, drift_ensemble, config)
    assert diag.total_linear_solves > 1
    assert len(builds) == 1


def test_no_stale_plan_after_replace(jump_ensemble):
    bundle = get_bundle("riccati_test")
    ens = jump_ensemble
    before, _ = solve_fbsde(bundle, 1.0, ens)
    rng = np.random.default_rng(3)
    dB = ens.dB * (1.0 + 0.5 * rng.random(ens.dB.shape))
    X = ens.X[:, :1] + np.concatenate([np.zeros((ens.n_paths, 1)), np.cumsum(dB, axis=1)], axis=1)
    replaced = dataclasses.replace(ens, X=X, dB=dB)
    fresh = PathEnsemble(
        grid=ens.grid, L=ens.L.copy(), R=ens.R.copy(), dL=ens.dL.copy(),
        X=X.copy(), dB=dB.copy(), kappa=ens.kappa,
    )
    after, _ = solve_fbsde(bundle, 1.0, replaced)
    expected, _ = solve_fbsde(bundle, 1.0, fresh)
    assert not np.allclose(after.y, before.y)
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(after, name), getattr(expected, name))


def test_ensemble_is_a_frozen_snapshot(jump_ensemble, jump_plan):
    ens = jump_ensemble
    with pytest.raises(dataclasses.FrozenInstanceError):
        ens.L = 0.5 * ens.L
    solve_linear(state_dependent_forcings(ens).rows, 1.0, jump_plan)
    # a solve caches nothing on the ensemble
    assert set(vars(ens)) == {field.name for field in dataclasses.fields(PathEnsemble)}


def test_block_weights_are_the_grid_weights(jump_ensemble, drift_ensemble):
    # each sweep block computes its own weights; a jump-free clock's L is
    # one row shared by every path, and so are its weights
    for ens in (jump_ensemble, drift_ensemble):
        w = np.exp(-(ens.grid.times()[None, :] + ens.L))
        for rows in (slice(lo, min(lo + 7, ens.n_paths)) for lo in range(0, ens.n_paths, 7)):
            block = _weights(ens, rows)
            assert block.shape[0] == (1 if ens is drift_ensemble else rows.stop - rows.start)
            assert np.array_equal(np.broadcast_to(block, w[rows].shape), w[rows])
