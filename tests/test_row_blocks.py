"""The row-blocked linear solve, Picard forcings and M-norm against their
whole-array formulas, at ensemble sizes below one row block and at a ragged
odd size whose cross-fit halves differ."""

from dataclasses import fields

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    CoefficientBundle,
    ForcingSet,
    MarkovState,
    RegressionPlan,
    SolutionTriple,
    TimeGrid,
    build_ensemble,
    get_bundle,
    m_norm,
    picard_forcings,
    solve_linear,
)
from subfbsde.regression import _row_slices
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
    theta = solve_linear(f.rows, 0.7, plan)
    x, y, z, _, _ = whole_array_solve_linear(f, 0.7, plan)
    assert np.max(np.abs(z)) > 0.0
    for value, ref in ((theta.x, x), (theta.y, y), (theta.z, z)):
        assert rel_err(value, ref) <= 1e-12


def stacked(forcings, m):
    """The row-block forcing function evaluated on the row blocks of a solve
    of m paths, stacked into one whole-array ForcingSet."""
    blocks = [forcings(rows) for rows in _row_slices(0, m)]
    names = [f.name for f in fields(ForcingSet)]
    return ForcingSet(*(np.concatenate([getattr(b, name) for b in blocks]) for name in names))


def _whole_array_picard_forcings(bundle, theta, eta, base, ens):
    """The Picard forcings with every coefficient evaluated on the whole grid."""
    t = ens.grid.times()
    st = MarkovState(x=ens.X, r=ens.R)
    x, y, z = theta.x, theta.y, theta.z
    st_T, x_T = MarkovState(x=ens.X[:, -1], r=ens.R[:, -1]), x[:, -1]
    bb = lambda v: np.broadcast_to(v, x.shape)
    return {
        "phi0": base.phi0 + eta * (np.broadcast_to(bundle.phi(st_T, x_T), x_T.shape) - x_T),
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
    out = stacked(picard_forcings(bundle, theta, 0.7, base.rows, ens), m)
    ref = _whole_array_picard_forcings(bundle, theta, 0.7, base, ens)
    for name, arr in ref.items():
        assert np.array_equal(getattr(out, name), arr), name


@pytest.mark.parametrize("eta", [0.5, 1.0 / 3.0], ids=["half", "third"])
@pytest.mark.parametrize("base_kind", ["picard", "rows"])
def test_nested_picard_forcings_add_the_base_bit_for_bit(ensembles, base_kind, eta):
    # an inner ladder level's forcings on ragged row blocks are eta * (v +
    # coefficient) + base, whether the base is the level above's block
    # function or views of the caller's forcings, which stay unchanged
    ens = ensembles[SIZES[-1]]
    m = ens.n_paths
    bundle = get_bundle("canonical_monotone", c=0.5)
    top = path_dependent_forcings(ens)
    kept = {f.name: getattr(top, f.name).copy() for f in fields(ForcingSet)}
    if base_kind == "picard":
        base_rows = picard_forcings(bundle, random_triple(ens, seed=8), 0.5, top.rows, ens)
    else:
        base_rows = top.rows
    theta = random_triple(ens, seed=9)
    nested = picard_forcings(bundle, theta, eta, base_rows, ens)
    ragged = [slice(0, 1), slice(1, 300), slice(300, 811), slice(811, m)]
    names = [f.name for f in fields(ForcingSet)]
    out = [nested(rows) for rows in ragged]
    base = ForcingSet(
        *(np.concatenate([getattr(base_rows(rows), name) for rows in ragged]) for name in names)
    )
    ref = _whole_array_picard_forcings(bundle, theta, eta, base, ens)
    for name in names:
        assert np.array_equal(np.concatenate([getattr(b, name) for b in out]), ref[name]), name
        assert np.array_equal(getattr(top, name), kept[name]), name


@pytest.mark.parametrize("eta", [1.0, 0.7])
def test_picard_forcings_none_base_is_zero_base(ensembles, eta):
    ens = ensembles[SIZES[-1]]
    theta = random_triple(ens, seed=5)
    bundle = _state_and_scalar_bundle()
    zeros = ForcingSet.zeros(ens.n_paths, ens.n_steps)
    out = stacked(picard_forcings(bundle, theta, eta, None, ens), ens.n_paths)
    ref = stacked(picard_forcings(bundle, theta, eta, zeros.rows, ens), ens.n_paths)
    for name in ("b0", "g0", "delta0", "h0", "sigma0", "phi0"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name


def assert_m_norm_matches_explicit_formula(ens):
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
            (value.parts["x0"], x0_part),
            (value.parts["dt"], dt_part),
            (value.parts["dL"], dL_part),
            (value.value, np.sqrt(x0_part + dt_part + dL_part)),
        ):
            assert got == pytest.approx(want, rel=1e-13)
    assert m_norm(a, a).value == 0.0


@pytest.mark.parametrize("m", SIZES)
def test_m_norm_matches_explicit_formula(ensembles, m):
    assert_m_norm_matches_explicit_formula(ensembles[m])


def test_m_norm_matches_explicit_formula_on_full_and_partial_blocks(jump_spec):
    # 1300 paths: two full 512-row blocks of the reused buffer and a partial one
    ens = build_ensemble(jump_spec, TimeGrid(a=0.0, T=1.0, n_steps=10), n_paths=1300, seed=5)
    assert_m_norm_matches_explicit_formula(ens)


def test_non_finite_solution_raises(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    # finite forcings whose weighted Ito integral overflows
    f = ForcingSet.constant(m, n, sigma0=1e308)
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve_linear(f.rows, 0.0, jump_plan)
