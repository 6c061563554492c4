import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ForcingSet,
    RegressionPlan,
    SolutionTriple,
    SubordinatorSpec,
    TimeGrid,
    apriori_ratio,
    build_ensemble,
    m_norm,
    solve_linear,
)
from oracles import linear_forced_oracle, whole_array_solve_linear

FORCINGS = ("b0", "g0", "delta0", "h0", "sigma0", "phi0")


def test_zero_forcing_closed_form_pathwise(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.zeros(m, n)
    theta = solve_linear(f.rows, 1.0, jump_plan)
    t = jump_ensemble.grid.times()
    exact = np.exp(-(t[None, :] + jump_ensemble.L))
    assert np.max(np.abs(theta.x - exact) / exact) <= 1e-12
    assert np.array_equal(theta.y, theta.x)
    assert np.max(np.abs(theta.z)) <= 1e-12
    xi = whole_array_solve_linear(f, 1.0, jump_plan)[3]
    assert np.all(xi == 0.0)


def test_terminal_consistency(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    rng = np.random.default_rng(0)
    f = ForcingSet.constant(m, n, b0=0.7, h0=-0.3, phi0=0.0)
    f.phi0 = rng.standard_normal(m)
    theta = solve_linear(f.rows, 0.5, jump_plan)
    assert np.max(np.abs(theta.y[:, n] - theta.x[:, n] - f.phi0)) <= 1e-10


def test_martingale_residual(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0, delta0=0.5, phi0=0.4)
    _, _, _, xi, ztilde = whole_array_solve_linear(f, 0.0, jump_plan)
    resid = xi - np.mean(xi) - np.sum(ztilde[:, :n] * jump_ensemble.dB, axis=1)
    se = resid.std(ddof=1) / np.sqrt(m)
    assert abs(resid.mean()) <= 3.0 * se + 1e-12


def test_build_xi_constant_forcing_drift_only(drift_ensemble, drift_plan):
    m, n = drift_ensemble.n_paths, drift_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0)
    xi = whole_array_solve_linear(f, 0.0, drift_plan)[3]
    theta = solve_linear(f.rows, 0.0, drift_plan)
    # trapezoid sum of exp(-2s) on [0,1]
    dt = drift_ensemble.grid.dt
    nodes = np.exp(-2.0 * dt * np.arange(n + 1))
    expected = np.trapezoid(nodes, dx=dt)
    assert np.allclose(xi, expected, atol=1e-12)
    # y(0) - x(0) is E[xi], the time-0 value of xi's martingale
    assert np.allclose(theta.y[:, 0] - theta.x[:, 0], expected, atol=1e-12)


def test_superposition(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    rng = np.random.default_rng(5)

    def random_forcings():
        f = ForcingSet.zeros(m, n)
        f.b0 += rng.standard_normal((m, n + 1)) * 0.0 + rng.standard_normal()
        f.g0 += rng.standard_normal()
        f.delta0 += rng.standard_normal()
        f.sigma0 += rng.standard_normal()
        f.h0 += rng.standard_normal()
        f.phi0 += rng.standard_normal()
        return f

    f1, f2 = random_forcings(), random_forcings()
    f12 = ForcingSet(*(getattr(f1, k) + getattr(f2, k) for k in FORCINGS))
    t1 = solve_linear(f1.rows, 1.0, jump_plan)
    t2 = solve_linear(f2.rows, -0.5, jump_plan)
    t12 = solve_linear(f12.rows, 0.5, jump_plan)
    defect = m_norm(
        SolutionTriple(
            t1.x + t2.x - t12.x, t1.y + t2.y - t12.y, t1.z + t2.z - t12.z, t1.dt, t1.dL
        )
    ).value
    assert defect / max(m_norm(t12).value, 1e-12) <= 1e-2


def test_homogeneity(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=0.3, g0=-0.2, sigma0=0.5, phi0=1.0)
    f3 = ForcingSet(*(3.0 * getattr(f, k) for k in FORCINGS))
    t1 = solve_linear(f.rows, 1.0, jump_plan)
    t3 = solve_linear(f3.rows, 3.0, jump_plan)
    assert np.allclose(t3.x, 3.0 * t1.x, atol=1e-9)
    assert np.allclose(t3.y, 3.0 * t1.y, atol=1e-9)
    assert np.allclose(t3.z, 3.0 * t1.z, atol=1e-9)


def test_forced_drift_only_matches_ode_oracle():
    spec = SubordinatorSpec(kappa=1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    ens = build_ensemble(spec, grid, 5000, seed=21)
    m, n = ens.n_paths, ens.n_steps
    f = ForcingSet.constant(m, n, b0=1.0, g0=0.5, phi0=0.25)
    theta = solve_linear(f.rows, 0.0, RegressionPlan(ens, BasisSpec()))
    t = grid.times()
    x_o, y_o = linear_forced_oracle(t, x0=0.0, b0=1.0, g0=0.5, phi0=0.25)
    scale = max(np.max(np.abs(x_o)), np.max(np.abs(y_o)))
    assert np.max(np.abs(theta.x.mean(axis=0) - x_o)) / scale <= 0.02
    assert np.max(np.abs(theta.y.mean(axis=0) - y_o)) / scale <= 0.02


def test_apriori_check_zero_data(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    theta = solve_linear(ForcingSet.zeros(m, n).rows, 0.0, jump_plan)
    report = apriori_ratio(theta, ForcingSet.zeros(m, n).rows, 0.0)
    assert report.degenerate
    assert report.ratio == 0.0
    assert report.lhs == 0.0


def test_apriori_check_scale_invariant(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0, h0=0.3, phi0=0.5)
    f2 = ForcingSet(*(2.0 * getattr(f, k) for k in FORCINGS))
    t1 = solve_linear(f.rows, 1.0, jump_plan)
    t2 = solve_linear(f2.rows, 2.0, jump_plan)
    r1 = apriori_ratio(t1, f.rows, 1.0)
    r2 = apriori_ratio(t2, f2.rows, 2.0)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-6)
    assert r2.lhs == pytest.approx(4.0 * r1.lhs, rel=1e-6)


@pytest.fixture(scope="module")
def three_block_plan(jump_spec):
    # 1100 paths: two full row blocks of 512 and a partial one of 76
    ens = build_ensemble(jump_spec, TimeGrid(a=0.0, T=1.0, n_steps=10), n_paths=1100, seed=3)
    return RegressionPlan(ens, BasisSpec())


def _mis_shaped(m, n, case):
    if case == "node_count":
        return ForcingSet.zeros(m, n + 1)
    if case == "too_few_paths":
        return ForcingSet.zeros(m - 1, n)
    if case == "too_many_paths":
        return ForcingSet.zeros(m + 1, n)
    f = ForcingSet.zeros(m, n)
    f.phi0 = {"phi0_column": np.zeros((m, 1)), "phi0_scalar": np.float64(0.5)}[case]
    return f


@pytest.mark.parametrize(
    "case", ["node_count", "too_few_paths", "too_many_paths", "phi0_column", "phi0_scalar"]
)
@pytest.mark.parametrize("size", ["one_block", "three_blocks"])
def test_mis_shaped_forcings_are_refused(jump_plan, three_block_plan, size, case):
    plan = jump_plan if size == "one_block" else three_block_plan
    f = _mis_shaped(plan.ensemble.n_paths, plan.ensemble.n_steps, case)
    message = "phi0 must be one value per path" if case.startswith("phi0") else "has shape"
    with pytest.raises(ValueError, match=message):
        solve_linear(f.rows, 0.0, plan)


def test_each_forcing_block_is_evaluated_once(three_block_plan):
    # the blocks of the first sweep, the last one open-ended; no other call
    ens = three_block_plan.ensemble
    f = ForcingSet.constant(ens.n_paths, ens.n_steps, b0=1.0, sigma0=0.5)
    calls = []

    def forcings(rows):
        calls.append((rows.start, rows.stop))
        return f.rows(rows)

    theta = solve_linear(forcings, 0.5, three_block_plan)
    assert calls == [(0, 512), (512, 1024), (1024, None)]
    ref = solve_linear(f.rows, 0.5, three_block_plan)
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(theta, name), getattr(ref, name))


def test_forcing_validation(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    bad = ForcingSet.zeros(m, n + 1)
    with pytest.raises(ValueError):
        solve_linear(bad.rows, 0.0, jump_plan)
    f = ForcingSet.zeros(m, n)
    f.b0[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_linear(f.rows, 0.0, jump_plan)


def test_degree_zero_basis_runs(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0)
    theta = solve_linear(f.rows, 0.0, RegressionPlan(jump_ensemble, BasisSpec(degree=0, ridge=0.0)))
    assert np.all(np.isfinite(theta.x))
