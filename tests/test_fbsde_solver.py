import dataclasses

import numpy as np
import pytest

import subfbsde.fbsde_solver as fbsde_solver
from subfbsde import (
    ContinuationConfig,
    DivergedError,
    ForcingSet,
    MarkovState,
    SolutionTriple,
    SubordinatorSpec,
    TimeGrid,
    build_ensemble,
    get_bundle,
    m_norm,
    picard_forcings,
    solve_fbsde,
    solve_linear,
)
from conftest import zero_triple
from oracles import (
    canonical_coupled_oracle,
    canonical_pathwise_oracle,
    continuation_transform,
    eta0,
    riccati_coupled_oracle,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(eta=0.0)
    with pytest.raises(ValueError):
        ContinuationConfig(eta=1.5)
    with pytest.raises(ValueError):
        ContinuationConfig(picard_tol=0.0)
    with pytest.raises(ValueError, match="max_picard"):
        ContinuationConfig(max_picard=0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"eta": 0.25}, "eta"),
        ({"eta": 1e-3}, "eta"),
        ({"eta": float("nan")}, "eta"),
        ({"picard_tol": float("inf")}, "picard_tol"),
    ],
)
def test_config_owns_its_ranges(kwargs, field):
    # the error names the field first, which is how the CLI names the key
    with pytest.raises(ValueError, match=f"^{field} "):
        ContinuationConfig(**kwargs)


def test_config_has_one_continuation_knob():
    assert [f.name for f in dataclasses.fields(ContinuationConfig)] == [
        "eta", "picard_tol", "max_picard"
    ]
    # the shallowest step of the deepest ladder that runs
    assert ContinuationConfig(eta=1 / fbsde_solver.MAX_LADDER_DEPTH).eta == 1 / 3
    for key in ("C1", "nested_max_depth"):
        with pytest.raises(TypeError, match=key):
            ContinuationConfig(**{key: 1})


def test_picard_forcings_eta_zero_is_identity(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    base = ForcingSet.constant(m, n, b0=0.4, phi0=0.2)
    theta = zero_triple(jump_ensemble)
    theta.x += 1.0
    theta.y -= 0.5
    bundle = get_bundle("canonical_monotone")
    out = picard_forcings(bundle, theta, 0.0, base.rows, jump_ensemble)(slice(None))
    for name in ("b0", "g0", "delta0", "h0", "sigma0", "phi0"):
        assert np.array_equal(getattr(out, name), getattr(base, name))


def test_picard_forcings_zero_seed_canonical_vanishes(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    base = ForcingSet.zeros(m, n)
    theta = zero_triple(jump_ensemble)
    bundle = get_bundle("canonical_monotone")
    out = picard_forcings(bundle, theta, 1.0, base.rows, jump_ensemble)(slice(None))
    for name in ("b0", "g0", "delta0", "h0", "sigma0", "phi0"):
        assert np.all(getattr(out, name) == 0.0)


def test_picard_forcings_linear_in_iterate(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    base = ForcingSet.zeros(m, n)
    bundle = get_bundle("canonical_monotone", c=0.5)
    theta = zero_triple(jump_ensemble)
    rng = np.random.default_rng(8)
    theta.x += rng.standard_normal((m, n + 1))
    theta.y += rng.standard_normal((m, n + 1))
    theta.z += rng.standard_normal((m, n + 1))
    f1 = picard_forcings(bundle, theta, 0.7, base.rows, jump_ensemble)(slice(None))
    doubled = SolutionTriple(2.0 * theta.x, 2.0 * theta.y, 2.0 * theta.z, theta.dt, theta.dL)
    f2 = picard_forcings(bundle, doubled, 0.7, base.rows, jump_ensemble)(slice(None))
    for name in ("b0", "g0", "delta0", "h0", "sigma0", "phi0"):
        assert np.allclose(getattr(f2, name), 2.0 * getattr(f1, name), atol=1e-12)


@pytest.mark.parametrize("eta", [1.0, 0.5], ids=["flatten", "nested"])
def test_picard_forcings_runs_once_per_picard_iterate(drift_ensemble, monkeypatch, eta):
    # the benchmark's fbsde_solver.picard_iterates counts these calls
    calls = []

    def counted(*args):
        calls.append(args)
        return picard_forcings(*args)

    monkeypatch.setattr(fbsde_solver, "picard_forcings", counted)
    bundle = get_bundle("canonical_monotone", c=0.5)
    _, diag = solve_fbsde(bundle, 1.0, drift_ensemble, ContinuationConfig(eta=eta))
    solves, top_iterates = diag.total_linear_solves, len(diag.levels[-1].residuals)
    if eta == 1.0:
        assert len(calls) == solves == top_iterates
    else:
        assert solves > top_iterates
        assert len(calls) == top_iterates + solves


@pytest.mark.parametrize("eta", [1.0, 0.5], ids=["flatten", "nested"])
def test_zero_seeded_loops_start_from_a_read_only_zero(drift_ensemble, monkeypatch, eta):
    # the first loop of every ladder level has no warm start: its first
    # iterate gets the solve's one read-only zero triple, not zero grids
    seeds = []

    def recorded(bundle, theta_prev, step, base, ensemble):
        seeds.append((base is None, theta_prev))  # the top level has no base
        return picard_forcings(bundle, theta_prev, step, base, ensemble)

    monkeypatch.setattr(fbsde_solver, "picard_forcings", recorded)
    bundle = get_bundle("canonical_monotone", c=0.5)
    solve_fbsde(bundle, 1.0, drift_ensemble, ContinuationConfig(eta=eta))
    first = {}
    for i, (level, _) in enumerate(seeds):
        first.setdefault(level, i)
    assert len(first) == round(1.0 / eta)
    for i, (level, theta) in enumerate(seeds):
        arrays = (theta.x, theta.y, theta.z)
        if i == first[level]:
            assert not any(a.flags.writeable for a in arrays), f"call {i}"
            assert all(a.shape == drift_ensemble.X.shape and not a.any() for a in arrays)
        else:
            assert all(a.flags.writeable for a in arrays), f"call {i}"


def test_linear_bundle_matches_linear_solver(jump_ensemble, jump_plan):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    theta, diag = solve_fbsde(get_bundle("canonical_monotone"), 1.0, jump_ensemble)
    direct = solve_linear(ForcingSet.zeros(m, n).rows, 1.0, jump_plan)
    assert m_norm(theta, direct).value <= 1e-10
    assert diag.total_linear_solves == 2  # fixed point reached immediately
    assert diag.levels[0].converged


def test_canonical_drift_only_matches_shooting_oracle(drift_ensemble):
    theta, diag = solve_fbsde(get_bundle("canonical_monotone"), 1.0, drift_ensemble)
    t = drift_ensemble.grid.times()
    x_o, y_o = canonical_coupled_oracle(t, x0=1.0, c=1.0)
    oracle = SolutionTriple(
        x=np.broadcast_to(x_o, theta.x.shape).copy(),
        y=np.broadcast_to(y_o, theta.y.shape).copy(),
        z=np.zeros_like(theta.z),
        dt=theta.dt,
        dL=theta.dL,
    )
    rel = m_norm(theta, oracle).value / m_norm(oracle).value
    assert rel <= 0.02
    assert not diag.diverged
    assert diag.apriori is not None and np.isfinite(diag.apriori.ratio)


@pytest.mark.parametrize(
    "name, params, oracle, tol",
    [
        # relative M-norm errors measured on this ensemble: 6.3e-5 (6 Picard
        # iterates), 4.9e-5 (9), 2.4e-4 (19, the residuals peaking at 3.6
        # times the first) and 7.9e-3 (6, mostly the 50-step quadrature)
        ("canonical_monotone", {"c": 0.5}, canonical_coupled_oracle, 2e-4),
        ("canonical_monotone", {"c": 2.0}, canonical_coupled_oracle, 1.5e-4),
        ("canonical_monotone", {"c": 4.0}, canonical_coupled_oracle, 7.5e-4),
        ("riccati_test", {}, riccati_coupled_oracle, 2.5e-2),
    ],
    ids=["canonical_c0.5", "canonical_c2", "canonical_c4", "riccati"],
)
def test_coupled_drift_only_matches_shooting_oracle(drift_ensemble, name, params, oracle, tol):
    # c != 1: the coupled system is not the linear base system, so Picard
    # has to iterate before it meets the oracle
    theta, diag = solve_fbsde(get_bundle(name, **params), 1.0, drift_ensemble)
    level = diag.levels[-1]
    assert level.converged and len(level.residuals) > 2
    t = drift_ensemble.grid.times()
    x_o, y_o = oracle(t, x0=1.0, **params)
    oracle_triple = SolutionTriple(
        x=np.broadcast_to(x_o, theta.x.shape).copy(),
        y=np.broadcast_to(y_o, theta.y.shape).copy(),
        z=np.zeros_like(theta.z),
        dt=theta.dt,
        dL=theta.dL,
    )
    rel = m_norm(theta, oracle_triple).value / m_norm(oracle_triple).value
    assert rel <= tol


def test_hp2_bundle_solves_via_mirror(drift_ensemble):
    dec, _ = solve_fbsde(get_bundle("canonical_monotone"), 1.0, drift_ensemble)
    inc, _ = solve_fbsde(get_bundle("canonical_flipped_hp2"), 1.0, drift_ensemble)
    assert np.allclose(inc.x, dec.x, atol=1e-10)
    assert np.allclose(inc.y, -dec.y, atol=1e-10)
    assert np.allclose(inc.z, -dec.z, atol=1e-10)


def test_terminal_condition_holds(jump_ensemble):
    bundle = get_bundle("riccati_test", eps=0.05)
    config = ContinuationConfig(picard_tol=1e-5, max_picard=60)
    theta, diag = solve_fbsde(bundle, 1.0, jump_ensemble, config)
    n = jump_ensemble.n_steps
    st = MarkovState(x=jump_ensemble.X[:, n], r=jump_ensemble.R[:, n])
    gap = np.max(np.abs(theta.y[:, n] - bundle.phi(st, theta.x[:, n])))
    # terminal map is enforced through the Picard forcings, so the residual
    # gap is of the order of the stopping threshold
    assert gap <= 10.0 * config.picard_tol * max(diag.m_norm.value, 1e-12)


def test_divergence_raises_with_diagnostics(jump_ensemble):
    # riccati_test at c = 8 grows past 1e6 times its first residual at iterate 13
    with pytest.raises(DivergedError) as err:
        solve_fbsde(get_bundle("riccati_test", c=8.0), 1.0, jump_ensemble)
    diag = err.value.diagnostics
    assert diag.diverged and len(diag.levels) == 1
    last = diag.levels[-1]
    assert last.alpha == 1.0 and last.eta == 1.0 and not last.converged
    assert len(last.residuals) >= 2
    assert str(err.value) == (
        f"Picard iteration diverged at alpha=1, eta=1; residuals={last.residuals}"
    )


def test_transient_growth_is_not_divergence(jump_ensemble):
    # canonical_monotone at c = 4: the residuals grow to 2.7 times the first,
    # then contract; 18 iterates, relative M-norm error 3.2e-4
    bundle = get_bundle("canonical_monotone", c=4.0)
    theta, diag = solve_fbsde(bundle, 1.0, jump_ensemble)
    level = diag.levels[-1]
    assert level.converged and max(level.residuals) > 2.0 * level.residuals[0]
    x, y, z = canonical_pathwise_oracle(jump_ensemble.grid.times(), jump_ensemble.L, x0=1.0, c=4.0)
    oracle = SolutionTriple(x, y, z, theta.dt, theta.dL)
    assert m_norm(theta, oracle).value / m_norm(oracle).value <= 1e-3


def test_strongly_coupled_riccati_diverges():
    # riccati_test at c = 4 really diverges under flatten: its residual
    # passes 1e6 times the first at iterate 33 (seeds 1 and 2)
    spec = SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=1.0)
    ens = build_ensemble(spec, TimeGrid(a=0.0, T=1.0, n_steps=50), n_paths=2000, seed=1, x0=1.0)
    config = ContinuationConfig(max_picard=60)
    with pytest.raises(DivergedError) as err:
        solve_fbsde(get_bundle("riccati_test", c=4.0), 1.0, ens, config)
    diag = err.value.diagnostics
    assert diag.diverged
    last = diag.levels[-1]
    assert last.alpha == 1.0 and last.eta == 1.0 and not last.converged
    tail = last.residuals[-4:]
    assert len(tail) == 4 and all(b > a for a, b in zip(tail, tail[1:])), last.residuals
    assert last.residuals[-1] > 2.0 * last.residuals[0]


def test_uniqueness_across_picard_seeds(drift_ensemble, jump_ensemble):
    bundle = get_bundle("canonical_monotone", c=0.5)
    config = ContinuationConfig(picard_tol=1e-5, max_picard=40)
    for ens in (drift_ensemble, jump_ensemble):
        t_zero, d_zero = solve_fbsde(bundle, 1.0, ens, config)
        seed = zero_triple(ens)
        seed.y += 0.5
        seed.x -= 0.25
        t_pert, _ = solve_fbsde(bundle, 1.0, ens, config, theta0=seed)
        threshold = config.picard_tol * max(d_zero.m_norm.value, 1e-12)
        assert m_norm(t_zero, t_pert).value <= 2.0 * threshold


def test_nested_agrees_with_flatten(jump_ensemble):
    bundle = get_bundle("canonical_monotone", c=0.5)
    nested_cfg = ContinuationConfig(eta=0.5, picard_tol=1e-5)
    flat_cfg = ContinuationConfig(picard_tol=1e-7)
    t_nested, d_nested = solve_fbsde(bundle, 1.0, jump_ensemble, nested_cfg)
    t_flat, _ = solve_fbsde(bundle, 1.0, jump_ensemble, flat_cfg)
    rel = m_norm(t_nested, t_flat).value / m_norm(t_flat).value
    assert rel <= 1e-3
    assert d_nested.total_linear_solves > 2


def test_nested_depth_bound_enforced():
    # the paper's provable step needs far more levels than the depth cap, so
    # the config refuses it before any solve
    step = eta0(1.0, 1.0, 1.0, 1.0, 16.0)
    assert step == pytest.approx(1 / 65)
    with pytest.raises(ValueError, match="^eta .* needs 65 ladder levels, more than 3"):
        ContinuationConfig(eta=step)


def test_inner_level_out_of_iterates_is_counted():
    # the top level converges in 5 iterates; each of them runs one inner
    # loop, and the first of those runs out of iterates.  Every loop leaves a
    # record as it stops, so the top loop's is last.
    spec = SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=1.0)
    ens = build_ensemble(spec, TimeGrid(a=0.0, T=1.0, n_steps=20), n_paths=200, seed=1, x0=1.0)
    config = ContinuationConfig(eta=0.5, max_picard=5)
    _, diag = solve_fbsde(get_bundle("canonical_monotone", c=2.0), 1.0, ens, config)
    records = [(level.alpha, len(level.residuals), level.converged) for level in diag.levels]
    assert records == [
        (0.5, 5, False), (0.5, 5, True), (0.5, 4, True), (0.5, 3, True), (0.5, 2, True),
        (1.0, 5, True),
    ]
    assert all(level.eta == 0.5 for level in diag.levels)
    # every linear solve is one iterate of a lowest-level loop
    inner = [len(level.residuals) for level in diag.levels if level.alpha == 0.5]
    assert sum(inner) == diag.total_linear_solves == 19
    doc = dataclasses.asdict(diag)
    assert [level["converged"] for level in doc["levels"]] == [False] + [True] * 5
    # with a larger budget every loop converges
    _, diag = solve_fbsde(get_bundle("canonical_monotone", c=2.0), 1.0, ens, ContinuationConfig(eta=0.5))
    assert len(diag.levels) == 6 and all(level.converged for level in diag.levels)


def test_small_step_contracts_fast(jump_ensemble):
    bundle = get_bundle("canonical_monotone", c=0.5)
    step = eta0(1.0, 0.5, 1.0, 1.0, 1.0)
    target = continuation_transform(bundle, step)
    config = ContinuationConfig(picard_tol=1e-12, max_picard=10)
    theta, diag = solve_fbsde(target, 1.0, jump_ensemble, config)
    level = diag.levels[0]
    assert level.contraction_ratio is not None and level.contraction_ratio <= 0.5


def test_diagnostics_serialization(drift_ensemble):
    _, diag = solve_fbsde(get_bundle("canonical_monotone", c=0.5), 1.0, drift_ensemble)
    doc = dataclasses.asdict(diag)
    assert isinstance(doc["levels"], list) and doc["levels"]
    assert doc["apriori"] is not None
    assert doc["total_linear_solves"] == diag.total_linear_solves


def test_user_seed_reaches_top_ladder_level(jump_ensemble):
    bundle = get_bundle("canonical_monotone", c=0.5)
    config = ContinuationConfig(eta=0.5, picard_tol=1e-5)
    theta, diag = solve_fbsde(bundle, 1.0, jump_ensemble, config)
    _, seeded = solve_fbsde(bundle, 1.0, jump_ensemble, config, theta0=theta)
    assert seeded.levels[-1].alpha == 1.0 and seeded.levels[-1].eta == 0.5
    # a seed at the converged solution leaves only the top level's own
    # Picard tolerance to remove
    first, first_seeded = diag.levels[-1].residuals[0], seeded.levels[-1].residuals[0]
    assert first_seeded <= 1e-2 * first


def test_user_seed_mirrored_for_increasing_orientation(drift_ensemble):
    seed = zero_triple(drift_ensemble)
    seed.x += 0.3
    seed.y += 0.5
    seed.z -= 0.2
    mirror = SolutionTriple(seed.x, -seed.y, -seed.z, seed.dt, seed.dL)
    # three iterates stop short of convergence, so the result depends on the seed
    config = ContinuationConfig(max_picard=3)
    dec_bundle = get_bundle("canonical_monotone", c=0.5)
    inc_bundle = get_bundle("canonical_flipped_hp2", c=0.5)
    dec, d_dec = solve_fbsde(dec_bundle, 1.0, drift_ensemble, config, theta0=mirror)
    inc, d_inc = solve_fbsde(inc_bundle, 1.0, drift_ensemble, config, theta0=seed)
    assert np.allclose(d_inc.levels[-1].residuals, d_dec.levels[-1].residuals, rtol=0.0, atol=1e-10)
    assert np.allclose(inc.x, dec.x, atol=1e-10)
    assert np.allclose(inc.y, -dec.y, atol=1e-10)
    assert np.allclose(inc.z, -dec.z, atol=1e-10)


PARETO_SPEC = SubordinatorSpec(kappa=1.0, jump_kind="pareto", rate=2.0, jump_param=(0.3, 1.5))
# shape 0.2: on 100 paths at seed 1, R reaches 3.5e9 and its degree-2
# monomials 1e19
HEAVY_PARETO_SPEC = SubordinatorSpec(
    kappa=1.0, jump_kind="pareto", rate=5.0, jump_param=(0.01, 0.2)
)


@pytest.mark.parametrize("eta", [1.0, 0.5], ids=["flatten", "eta0.5"])
@pytest.mark.parametrize("clock", ["exponential", "pareto", "heavy_pareto"])
@pytest.mark.parametrize("c", [0.5, 2.0])
def test_canonical_matches_pathwise_oracle_under_jumps(jump_ensemble, grid, clock, c, eta):
    # the Picard forcings vanish at the fixed point, so this checks the Picard
    # and forward plumbing on a jump clock, not the regressions; relative
    # M-norm errors measured on these ensembles: 1.8e-5 to 1.7e-4
    ens = jump_ensemble
    if clock == "pareto":
        ens = build_ensemble(PARETO_SPEC, grid, n_paths=400, seed=12)
    elif clock == "heavy_pareto":
        grid20 = TimeGrid(a=0.0, T=1.0, n_steps=20)
        ens = build_ensemble(HEAVY_PARETO_SPEC, grid20, n_paths=100, seed=1)
    config = ContinuationConfig(eta=eta)
    theta, diag = solve_fbsde(get_bundle("canonical_monotone", c=c), 1.0, ens, config)
    assert diag.levels[-1].converged
    x, y, z = canonical_pathwise_oracle(ens.grid.times(), ens.L, x0=1.0, c=c)
    oracle = SolutionTriple(x, y, z, theta.dt, theta.dL)
    rel = m_norm(theta, oracle).value / m_norm(oracle).value
    assert rel <= 1e-3
