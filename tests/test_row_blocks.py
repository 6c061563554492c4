"""The row-blocked linear solve, Picard forcings and M-norm against their
whole-array formulas, at ensemble sizes below one row block and at a ragged
odd size whose cross-fit halves differ."""

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    CoefficientBundle,
    ForcingSet,
    MarkovState,
    RegressionPlan,
    SolutionTriple,
    build_ensemble,
    get_bundle,
    m_norm,
    picard_forcings,
    solve_linear,
)
from oracles import whole_array_solve_linear

SIZES = [400, 1537]  # below one block of 512 rows; three blocks and a 1-row tail


@pytest.fixture(scope="module", params=["drift", "jump"])
def ensembles(request, drift_spec, jump_spec, grid):
    spec = drift_spec if request.param == "drift" else jump_spec
    return {m: build_ensemble(spec, grid, n_paths=m, seed=23, x0=0.5) for m in SIZES}


def path_dependent_forcings(ens):
    m, n = ens.n_paths, ens.n_steps
    rng = np.random.default_rng(4)
    f = ForcingSet.constant(m, n, b0=0.3, g0=-0.2)
    f.h0 += np.sin(ens.X) + 0.3 * ens.R
    f.delta0 += np.cos(ens.X)
    f.sigma0 += 0.5 + 0.1 * rng.standard_normal((m, n + 1))
    f.phi0 = ens.X[:, -1] ** 2 + 0.1 * rng.standard_normal(m)
    return f


def random_triple(ens, seed):
    rng = np.random.default_rng(seed)
    shape = ens.X.shape
    return SolutionTriple(
        x=rng.standard_normal(shape),
        y=rng.standard_normal(shape),
        z=rng.standard_normal(shape),
        dt=ens.grid.dt,
        dL=ens.dL,
    )


def rel_err(value, ref):
    return np.max(np.abs(value - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("m", SIZES)
def test_blocked_solve_matches_whole_array_reference(ensembles, m):
    ens = ensembles[m]
    plan = RegressionPlan(ens, BasisSpec())
    f = path_dependent_forcings(ens)
    theta = solve_linear(f, 0.7, plan)
    x, y, z, _, _ = whole_array_solve_linear(f, 0.7, plan)
    assert np.max(np.abs(z)) > 0.0
    for value, ref in ((theta.x, x), (theta.y, y), (theta.z, z)):
        assert rel_err(value, ref) <= 1e-12


def _whole_array_picard_forcings(bundle, theta, eta, base, ens):
    """The Picard forcings with every coefficient evaluated on the whole grid."""
    t = ens.grid.times()
    st = MarkovState(x=ens.X, r=ens.R)
    x, y, z = theta.x, theta.y, theta.z
    bb = lambda v: np.broadcast_to(v, x.shape)
    return {
        "b0": base.b0 + eta * (y + bb(bundle.b(t, st, x, y))),
        "delta0": base.delta0 + eta * (y + bb(bundle.delta(t, st, x, y, z))),
        "sigma0": base.sigma0 + eta * (z + bb(bundle.sigma(t, st, x, y, z))),
        "h0": base.h0 + eta * (-x + bb(bundle.h(t, st, x, y, z))),
        "g0": base.g0 + eta * (-x + bb(bundle.g(t, st, x, y))),
    }


def _state_and_scalar_bundle():
    # reads the Markov state and the time; sigma is a broadcast scalar
    return CoefficientBundle(
        b=lambda t, st, x, y: -y + 0.1 * np.sin(st.x) * t,
        g=lambda t, st, x, y: x + 0.2 * st.r,
        delta=lambda t, st, x, y, z: -0.5 * y,
        sigma=lambda t, st, x, y, z: 0.25,
        h=lambda t, st, x, y, z: np.tanh(x) - 0.1 * t,
        phi=lambda st, x: x,
    )


@pytest.mark.parametrize(
    "bundle",
    [
        get_bundle("canonical_monotone", c=0.5),
        get_bundle("riccati_test"),
        _state_and_scalar_bundle(),
    ],
    ids=["canonical", "riccati", "state_and_scalar"],
)
@pytest.mark.parametrize("m", SIZES)
def test_picard_forcings_bit_identical_to_whole_array(ensembles, m, bundle):
    ens = ensembles[m]
    theta = random_triple(ens, seed=m)
    base = path_dependent_forcings(ens)
    out = picard_forcings(bundle, theta, 0.7, base, ens)
    ref = _whole_array_picard_forcings(bundle, theta, 0.7, base, ens)
    for name, arr in ref.items():
        assert np.array_equal(getattr(out, name), arr), name


@pytest.mark.parametrize("m", SIZES)
def test_m_norm_matches_explicit_formula(ensembles, m):
    ens = ensembles[m]
    a, b = random_triple(ens, seed=3), random_triple(ens, seed=4)
    n = ens.n_steps
    for value, (x, y, z) in (
        (m_norm(a), (a.x, a.y, a.z)),
        (m_norm(a, b), (a.x - b.x, a.y - b.y, a.z - b.z)),
    ):
        x0_part = np.mean(x[:, 0] ** 2)
        dt_part = np.mean(np.sum(x[:, :n] ** 2 + y[:, :n] ** 2, axis=1)) * a.dt
        dL_part = np.mean(np.sum(z[:, :n] ** 2 * a.dL, axis=1))
        for got, want in (
            (value.x0_part, x0_part),
            (value.dt_part, dt_part),
            (value.dL_part, dL_part),
            (value.value, np.sqrt(x0_part + dt_part + dL_part)),
        ):
            assert got == pytest.approx(want, rel=1e-13)
    assert m_norm(a, a).value == 0.0


def test_non_finite_solution_raises(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    # finite forcings whose weighted Ito integral overflows
    f = ForcingSet.constant(m, n, sigma0=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            solve_linear(f, 0.0, jump_plan)
