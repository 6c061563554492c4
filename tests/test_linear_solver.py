import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ForcingSet,
    SubordinatorSpec,
    TimeGrid,
    apriori_ratio,
    build_ensemble,
    m_norm,
    solve_linear,
)
from oracles import linear_forced_oracle


def test_zero_forcing_closed_form_pathwise(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    theta, ws = solve_linear(ForcingSet.zeros(m, n), 1.0, jump_ensemble)
    t = jump_ensemble.grid.times()
    exact = np.exp(-(t[None, :] + jump_ensemble.L))
    assert np.max(np.abs(theta.x - exact) / exact) <= 1e-12
    assert np.array_equal(theta.y, theta.x)
    assert np.max(np.abs(theta.z)) <= 1e-12
    assert np.all(ws.xi == 0.0)


def test_terminal_consistency(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    rng = np.random.default_rng(0)
    f = ForcingSet.constant(m, n, b0=0.7, h0=-0.3, phi0=0.0)
    f.phi0 = rng.standard_normal(m)
    theta, _ = solve_linear(f, 0.5, jump_ensemble)
    assert np.max(np.abs(theta.y[:, n] - theta.x[:, n] - f.phi0)) <= 1e-10


def test_martingale_residual(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0, delta0=0.5, phi0=0.4)
    theta, ws = solve_linear(f, 0.0, jump_ensemble)
    resid = ws.xi - np.mean(ws.xi) - np.sum(ws.ztilde[:, :n] * jump_ensemble.dB, axis=1)
    se = resid.std(ddof=1) / np.sqrt(m)
    assert abs(resid.mean()) <= 3.0 * se + 1e-12


def test_build_xi_constant_forcing_drift_only(drift_ensemble):
    m, n = drift_ensemble.n_paths, drift_ensemble.n_steps
    _, ws = solve_linear(ForcingSet.constant(m, n, b0=1.0), 0.0, drift_ensemble)
    # trapezoid sum of exp(-2s) on [0,1]
    dt = drift_ensemble.grid.dt
    nodes = np.exp(-2.0 * dt * np.arange(n + 1))
    expected = np.trapezoid(nodes, dx=dt)
    assert np.allclose(ws.xi, expected, atol=1e-12)


def test_superposition(jump_ensemble):
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
    t1, _ = solve_linear(f1, 1.0, jump_ensemble)
    t2, _ = solve_linear(f2, -0.5, jump_ensemble)
    t12, _ = solve_linear(f1.added(f2), 0.5, jump_ensemble)
    defect = m_norm(
        type(t1)(
            t1.x + t2.x - t12.x, t1.y + t2.y - t12.y, t1.z + t2.z - t12.z, t1.dt, t1.dL
        )
    ).value
    assert defect / max(m_norm(t12).value, 1e-12) <= 1e-2


def test_homogeneity(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=0.3, g0=-0.2, sigma0=0.5, phi0=1.0)
    t1, _ = solve_linear(f, 1.0, jump_ensemble)
    t3, _ = solve_linear(f.scaled(3.0), 3.0, jump_ensemble)
    assert np.allclose(t3.x, 3.0 * t1.x, atol=1e-9)
    assert np.allclose(t3.y, 3.0 * t1.y, atol=1e-9)
    assert np.allclose(t3.z, 3.0 * t1.z, atol=1e-9)


def test_forced_drift_only_matches_ode_oracle():
    spec = SubordinatorSpec(kappa=1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    ens = build_ensemble(spec, grid, 5000, seed=21)
    m, n = ens.n_paths, ens.n_steps
    f = ForcingSet.constant(m, n, b0=1.0, g0=0.5, phi0=0.25)
    theta, _ = solve_linear(f, 0.0, ens)
    t = grid.times()
    x_o, y_o = linear_forced_oracle(t, x0=0.0, b0=1.0, g0=0.5, phi0=0.25)
    scale = max(np.max(np.abs(x_o)), np.max(np.abs(y_o)))
    assert np.max(np.abs(theta.x.mean(axis=0) - x_o)) / scale <= 0.02
    assert np.max(np.abs(theta.y.mean(axis=0) - y_o)) / scale <= 0.02


def test_apriori_check_zero_data(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    theta, _ = solve_linear(ForcingSet.zeros(m, n), 0.0, jump_ensemble)
    report = apriori_ratio(theta, ForcingSet.zeros(m, n), 0.0)
    assert report.degenerate
    assert report.ratio == 0.0
    assert report.lhs == 0.0


def test_apriori_check_scale_invariant(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0, h0=0.3, phi0=0.5)
    t1, _ = solve_linear(f, 1.0, jump_ensemble)
    t2, _ = solve_linear(f.scaled(2.0), 2.0, jump_ensemble)
    r1 = apriori_ratio(t1, f, 1.0)
    r2 = apriori_ratio(t2, f.scaled(2.0), 2.0)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-6)
    assert r2.lhs == pytest.approx(4.0 * r1.lhs, rel=1e-6)


def test_forcing_validation(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    bad = ForcingSet.zeros(m, n + 1)
    with pytest.raises(ValueError):
        solve_linear(bad, 0.0, jump_ensemble)
    f = ForcingSet.zeros(m, n)
    f.b0[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_linear(f, 0.0, jump_ensemble)


def test_degree_zero_basis_runs(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    f = ForcingSet.constant(m, n, b0=1.0)
    theta, _ = solve_linear(f, 0.0, jump_ensemble, BasisSpec(degree=0, ridge=0.0))
    assert np.all(np.isfinite(theta.x))
