from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subfbsde import (
    ForcingSet,
    SolutionTriple,
    apriori_ratio,
    build_ensemble,
    contraction_fit,
    get_bundle,
    m_norm,
    picard_forcings,
    solve_fbsde,
)


def _triple(ensemble, x=0.0, y=0.0, z=0.0):
    t = SolutionTriple.zeros(ensemble)
    t.x += x
    t.y += y
    t.z += z
    return t


def test_m_norm_zero(jump_ensemble):
    assert m_norm(SolutionTriple.zeros(jump_ensemble)).value == 0.0


def test_m_norm_deterministic_example(drift_ensemble):
    # x = 1 on [0,1], y = z = 0, x(0) = 1: norm^2 = 1 + 1
    val = m_norm(_triple(drift_ensemble, x=1.0))
    assert val.value == pytest.approx(np.sqrt(2.0), rel=1e-12)
    parts = val.parts
    assert parts["x0"] == pytest.approx(1.0)
    assert parts["dt"] == pytest.approx(1.0)
    assert parts["dL"] == 0.0
    assert val.value**2 == pytest.approx(parts["x0"] + parts["dt"] + parts["dL"])


def test_m_norm_homogeneous(jump_ensemble):
    rng = np.random.default_rng(1)
    t = SolutionTriple.zeros(jump_ensemble)
    t.x += rng.standard_normal(t.x.shape)
    t.y += rng.standard_normal(t.y.shape)
    t.z += rng.standard_normal(t.z.shape)
    scaled = SolutionTriple(-2.5 * t.x, -2.5 * t.y, -2.5 * t.z, t.dt, t.dL)
    assert m_norm(scaled).value == pytest.approx(2.5 * m_norm(t).value, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_m_norm_triangle_inequality(jump_ensemble, seed):
    rng = np.random.default_rng(seed)
    a = SolutionTriple.zeros(jump_ensemble)
    b = SolutionTriple.zeros(jump_ensemble)
    for t in (a, b):
        t.x += rng.standard_normal(t.x.shape)
        t.y += rng.standard_normal(t.y.shape)
        t.z += rng.standard_normal(t.z.shape)
    s = SolutionTriple(a.x + b.x, a.y + b.y, a.z + b.z, a.dt, a.dL)
    assert m_norm(s).value <= m_norm(a).value + m_norm(b).value + 1e-12


def test_dL_part_bounded_by_dt_part(jump_ensemble):
    # Sum z^2 dL <= (1/kappa) Sum z^2 dt pathwise, from the clock bound
    rng = np.random.default_rng(2)
    t = SolutionTriple.zeros(jump_ensemble)
    t.z += rng.standard_normal(t.z.shape)
    n = jump_ensemble.n_steps
    lhs = np.sum(t.z[:, :n] ** 2 * t.dL, axis=1)
    rhs = np.sum(t.z[:, :n] ** 2 * t.dt, axis=1) / jump_ensemble.kappa
    assert np.all(lhs <= rhs + 1e-12)


def test_contraction_fit_examples():
    assert contraction_fit([1.0, 0.25, 0.0625]) == pytest.approx(0.25)
    assert contraction_fit([1.0, 0.5, 0.25, 0.125]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        contraction_fit([1.0, 0.5])
    with pytest.raises(ValueError):
        contraction_fit([1.0, 0.0, 0.1])


def test_contraction_fit_drops_first_ratio():
    # first ratio is wild, tail is clean 1/3
    assert contraction_fit([100.0, 0.9, 0.3, 0.1]) == pytest.approx(1.0 / 3.0)


def _zero_point_data(bundle, ensemble):
    """The bundle's coefficients at the zero solution as a row-block
    function, as the solver builds them."""
    base = ForcingSet.zeros(ensemble.n_paths, ensemble.n_steps)
    return picard_forcings(bundle, SolutionTriple.zeros(ensemble), 1.0, base.rows, ensemble)


def test_apriori_degenerate_zero_data(jump_ensemble):
    data = _zero_point_data(get_bundle("canonical_monotone"), jump_ensemble)
    report = apriori_ratio(SolutionTriple.zeros(jump_ensemble), data, 0.0)
    assert report.degenerate
    assert report.ratio == 0.0


def test_apriori_finite_with_bootstrap(jump_ensemble):
    bundle = get_bundle("canonical_monotone", c=0.5)
    theta, diag = solve_fbsde(bundle, 1.0, jump_ensemble)
    report = apriori_ratio(theta, _zero_point_data(bundle, jump_ensemble), 1.0)
    assert report == diag.apriori
    assert not report.degenerate
    assert report.ratio > 0.0 and np.isfinite(report.ratio)
    assert report.se >= 0.0
    doc = asdict(report)
    assert set(doc) == {"lhs", "rhs", "ratio", "se", "degenerate"}


def test_apriori_zero_point_data_by_row_blocks(jump_spec, grid):
    # data at the zero solution that vary with t and the state (X, R), on
    # 1100 paths, three row blocks; the offsets leave the coupling unchanged
    bundle = get_bundle("canonical_monotone", c=0.5)
    bundle.b = lambda t, st, x, y: -0.5 * y + np.cos(st.x)
    bundle.g = lambda t, st, x, y: 0.5 * x + st.r
    bundle.delta = lambda t, st, x, y, z: -0.5 * y + 0.3 * t
    bundle.h = lambda t, st, x, y, z: 0.5 * x - 0.2 * st.x
    bundle.sigma = lambda t, st, x, y, z: -0.5 * z + 0.1
    bundle.phi = lambda st, x: x + 0.4 * np.sin(st.x)
    ens = build_ensemble(jump_spec, grid, n_paths=1100, seed=5, x0=0.0)
    theta, diag = solve_fbsde(bundle, 1.0, ens)
    report = apriori_ratio(theta, _zero_point_data(bundle, ens), 1.0)
    assert report == diag.apriori
    assert report.rhs > 1.5  # the data carry energy beyond x0**2 = 1


def test_apriori_scale_stability(drift_ensemble):
    bundle = get_bundle("canonical_monotone")
    ratios = []
    for x0 in (1.0, 2.0, 4.0):
        theta, _ = solve_fbsde(bundle, x0, drift_ensemble)
        data = _zero_point_data(bundle, drift_ensemble)
        ratios.append(apriori_ratio(theta, data, x0).ratio)
    assert max(ratios) / min(ratios) <= 1.25
