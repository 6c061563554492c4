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
from subfbsde import regression
from oracles import linear_forced_oracle, renewal_ybar, running_path_G, whole_array_solve_linear

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
    # the 512-row blocks of the first sweep, the last one open-ended; no
    # other call.  Two threads may take the blocks, so in either order.
    ens = three_block_plan.ensemble
    f = ForcingSet.constant(ens.n_paths, ens.n_steps, b0=1.0, sigma0=0.5)
    calls = []

    def forcings(rows):
        calls.append((rows.start, rows.stop))
        return f.rows(rows)

    theta = solve_linear(forcings, 0.5, three_block_plan)
    assert sorted(calls) == [(0, 512), (512, 1024), (1024, None)]
    ref = solve_linear(f.rows, 0.5, three_block_plan)
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(theta, name), getattr(ref, name))


def test_apriori_matches_whole_array_energies(monkeypatch, three_block_plan):
    # the block pass, with the helper thread on, against plain numpy on the
    # whole arrays; the forcings vary with t and the state (X, R)
    monkeypatch.setattr(regression, "_helper_pays", lambda n_steps: True)
    ens = three_block_plan.ensemble
    m, n, dt = ens.n_paths, ens.n_steps, ens.grid.dt
    t = ens.grid.times()[None, :]
    f = ForcingSet.constant(m, n, b0=0.4, sigma0=0.2)
    f.b0 += np.cos(ens.X)
    f.g0 += 0.3 * t - ens.R
    f.delta0 += 0.5 * np.sin(3.0 * t) * ens.X
    f.h0 += ens.R**2
    f.sigma0 += 0.1 * ens.X
    f.phi0 = np.sin(ens.X[:, -1]) + 0.25
    x0 = 0.7
    theta = solve_linear(f.rows, x0, three_block_plan)
    report = apriori_ratio(theta, f.rows, x0)

    b0, g0, delta0, h0, sigma0 = (getattr(f, k)[:, :n] for k in FORCINGS[:5])
    dL = ens.dL
    z_energy = np.sum(theta.z[:, :n] ** 2 * dL, axis=1)
    lhs = np.mean(np.max(theta.x**2 + theta.y**2, axis=1) + z_energy)
    dt_energy = dt * np.sum(b0**2 + g0**2, axis=1)
    dL_energy = np.sum((delta0**2 + h0**2 + sigma0**2) * dL, axis=1)
    rhs = x0**2 + np.mean(f.phi0**2 + dt_energy + dL_energy)
    assert not report.degenerate
    assert report.lhs == pytest.approx(lhs, rel=1e-12)
    assert report.rhs == pytest.approx(rhs, rel=1e-12)
    assert report.ratio == pytest.approx(lhs / rhs, rel=1e-12)


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


# the renewal oracle's scenario: kappa 1, Exp(mean 1) jumps at rate 1, g0 = 1
RENEWAL_SPEC = SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=1.0)
RENEWAL_TIMES = (0.5, 0.75)


@pytest.fixture(scope="module")
def renewal_ensemble():
    return build_ensemble(RENEWAL_SPEC, TimeGrid(a=0.0, T=1.0, n_steps=20), 2000, seed=1, x0=0.0)


def _running_path_means(ensemble, values):
    """Mean of values[:, k] over the paths whose clock runs at t_k (R_k = 0),
    at each time of RENEWAL_TIMES, with the oracle's value there."""
    t = ensemble.grid.times()
    ks = [int(np.argmin(np.abs(t - s))) for s in RENEWAL_TIMES]
    means = [float(np.mean(values[ensemble.R[:, k] == 0.0, k])) for k in ks]
    return np.array(means), renewal_ybar(t[ks], rate=1.0, mean=1.0)


def _frozen_paths(ensemble, values):
    """At each time t_k of RENEWAL_TIMES, values[:, k] on the paths whose
    clock is frozen there (R_k > 0), the oracle G(t_k, R_k) and R_k."""
    t = ensemble.grid.times()
    for s in RENEWAL_TIMES:
        k = int(np.argmin(np.abs(t - s)))
        frozen = ensemble.R[:, k] > 0.0
        r = ensemble.R[frozen, k]
        yield values[frozen, k], renewal_ybar(t[k], rate=1.0, mean=1.0, r=r), r


def _future_part(ensemble):
    """The future part (xi - I_k) / w_k that ROADMAP item 1 regresses, built
    from the clock alone: w = exp(-(t + L)), I the trapezoid of w dt."""
    w = np.exp(-(ensemble.grid.times()[None, :] + ensemble.L))
    I = np.zeros_like(w)
    I[:, 1:] = np.cumsum(0.5 * (w[:, :-1] + w[:, 1:]) * ensemble.grid.dt, axis=1)
    return (I[:, -1:] - I) / w


@pytest.fixture(scope="module")
def renewal_ybar_estimate(renewal_ensemble):
    """`solve_linear`'s y - x on the renewal scenario."""
    ens = renewal_ensemble
    f = ForcingSet.constant(ens.n_paths, ens.n_steps, g0=1.0)
    theta = solve_linear(f.rows, 0.0, RegressionPlan(ens, BasisSpec()))
    return theta.y - theta.x


def test_per_slice_target_matches_renewal_oracle(renewal_ensemble):
    means, exact = _running_path_means(renewal_ensemble, _future_part(renewal_ensemble))
    assert np.max(np.abs(means - exact)) <= 0.005


def test_per_slice_target_matches_frozen_path_oracle(renewal_ensemble):
    # per R-quartile of the frozen paths, so a bias that depends on R shows
    for target, exact, r in _frozen_paths(renewal_ensemble, _future_part(renewal_ensemble)):
        bins = np.digitize(r, np.quantile(r, [0.25, 0.5, 0.75]))
        for b in range(4):
            assert abs(np.mean(target[bins == b]) - np.mean(exact[bins == b])) <= 0.005


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the solver regresses the whole terminal aggregate, not "
    "the future part, and is biased under a jump clock",
)
def test_solve_linear_matches_renewal_oracle(renewal_ensemble, renewal_ybar_estimate):
    means, exact = _running_path_means(renewal_ensemble, renewal_ybar_estimate)
    assert np.max(np.abs(means - exact)) <= 0.005


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: on frozen paths only the future-part target together "
    "with the bounded overshoot feature rho gets the RMS error under 0.02",
)
def test_solve_linear_matches_frozen_path_oracle(renewal_ensemble, renewal_ybar_estimate):
    for estimate, exact, _ in _frozen_paths(renewal_ensemble, renewal_ybar_estimate):
        assert np.sqrt(np.mean((estimate - exact) ** 2)) <= 0.02


# the z oracle's scenario: the renewal clock, phi0 = X_T, every other forcing
# 0, x0 = 1 (a large mean of xi, as in jump_solve), at (n_paths, n_steps, seed)
Z_ORACLE_CASES = ((2000, 20, 1), (10_000, 100, 7))


@pytest.fixture(scope="module")
def z_oracle_rms():
    """RMS over slices 1..n-1 of twice the mean stored z on running paths
    minus the oracle G(t_k, 0), per case of Z_ORACLE_CASES.  Measured:
    0.104 and 0.105; the control variate of ROADMAP item 12 read 0.045 and
    0.032 in a probe."""
    rms = []
    for m, n, seed in Z_ORACLE_CASES:
        ens = build_ensemble(RENEWAL_SPEC, TimeGrid(a=0.0, T=1.0, n_steps=n), m, seed=seed, x0=1.0)
        f = ForcingSet.constant(m, n)
        f.phi0 = ens.X[:, -1].copy()
        z = solve_linear(f.rows, 1.0, RegressionPlan(ens, BasisSpec())).z
        running = ens.R == 0.0
        mean_z = np.array([np.mean(z[running[:, k], k]) for k in range(1, n)])
        rms.append(float(np.sqrt(np.mean((2.0 * mean_z - running_path_G(ens)) ** 2))))
    return rms


def test_z_matches_running_path_oracle_loosely(z_oracle_rms):
    # a guard on today's ratio estimator, whose noise grows as dt shrinks
    assert max(z_oracle_rms) <= 0.2, z_oracle_rms


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: the numerator xi dB_k of the ratio estimator is noisy "
    "(RMS 0.104-0.120); its control variate xi - E[xi | F_k] cuts it to 0.032-0.045",
)
def test_z_matches_running_path_oracle(z_oracle_rms):
    assert max(z_oracle_rms) <= 0.06, z_oracle_rms
