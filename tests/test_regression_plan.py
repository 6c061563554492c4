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
    extract_z,
    fit_condexp,
    get_bundle,
    solve_fbsde,
    solve_linear,
)
from oracles import whole_array_solve_linear


class SliceBySlicePlan:
    """The backward-pass regressions one slice at a time with `fit_condexp`
    and `extract_z`, in the order the linear solver ran them before the
    plan existed: every in-sample fit, then every cross-fitted ratio."""

    def __init__(self, ensemble, basis):
        self.ensemble = ensemble
        self.basis = basis
        self.floor = 1e-12 * ensemble.grid.dt / ensemble.kappa

    def features_at(self, k):
        ens = self.ensemble
        cols = [ens.X[:, k], ens.R[:, k]] if self.basis.include_r else [ens.X[:, k]]
        return np.column_stack(cols)

    def regress(self, xi):
        ens, basis = self.ensemble, self.basis
        cond = np.empty((ens.n_paths, ens.n_steps - 1))
        z = np.empty_like(cond)
        for k in range(1, ens.n_steps):
            feats = self.features_at(k)
            cond[:, k - 1] = fit_condexp(feats, xi, basis, slice_index=k).predict(feats)
        for k in range(1, ens.n_steps):
            feats = self.features_at(k)
            z[:, k - 1] = extract_z(
                xi, ens.dB[:, k], ens.dL[:, k], feats, basis, self.floor, k
            )
        return cond, z


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
    theta = solve_linear(f, 1.0, RegressionPlan(ens, basis))
    ref = solve_linear(f, 1.0, SliceBySlicePlan(ens, basis))
    assert np.max(np.abs(ref.z)) > 0.0
    assert_same_solution(theta, ref)


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
        ({4: slice(0, 200), 7: slice(None)}, 7),  # in-sample fits are checked first
    ],
)
def test_ridge_zero_singular_slice_index(drift_ensemble, flat, expected):
    ens = drift_ensemble
    for k, rows in flat.items():
        ens = _constant_x(ens, k, rows)
    basis = BasisSpec(degree=1, include_r=False, ridge=0.0)
    f = state_dependent_forcings(ens)
    with pytest.raises(SingularSliceError) as ref_err:
        solve_linear(f, 1.0, SliceBySlicePlan(ens, basis))
    with pytest.raises(SingularSliceError) as err:
        solve_linear(f, 1.0, RegressionPlan(ens, basis))
    assert err.value.slice_index == ref_err.value.slice_index == expected


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
    theta = solve_linear(f, 1.0, plan)
    ztilde = whole_array_solve_linear(f, 1.0, plan)[4]
    assert np.all(ztilde[:, k] == 0.0)
    assert np.all(theta.z[:, k] == 0.5 * f.sigma0[:, k])
    ref = solve_linear(f, 1.0, SliceBySlicePlan(ens, basis))
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
    X = ens.x0 + np.concatenate([np.zeros((ens.n_paths, 1)), np.cumsum(dB, axis=1)], axis=1)
    replaced = dataclasses.replace(ens, X=X, dB=dB)
    fresh = PathEnsemble(
        grid=ens.grid, x0=ens.x0, L=ens.L.copy(), R=ens.R.copy(), dL=ens.dL.copy(),
        X=X.copy(), dB=dB.copy(), kappa=ens.kappa,
    )
    after, _ = solve_fbsde(bundle, 1.0, replaced)
    expected, _ = solve_fbsde(bundle, 1.0, fresh)
    assert not np.allclose(after.y, before.y)
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(after, name), getattr(expected, name))
