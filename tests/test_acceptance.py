"""Acceptance suite: one test per shipping criterion, each printing a single
pass/fail line with the measured value against its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline."""

import dataclasses
import json
import time

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ContinuationConfig,
    ForcingSet,
    MarkovState,
    RegressionPlan,
    SolutionTriple,
    SubordinatorSpec,
    TimeGrid,
    build_ensemble,
    check_hypothesis,
    contraction_fit,
    get_bundle,
    m_norm,
    mirror_bundle,
    solve_fbsde,
    solve_linear,
)
from subfbsde.cli import EXIT_OK, run
from conftest import zero_triple
from oracles import canonical_coupled_oracle, continuation_transform, eta0, linear_forced_oracle

JUMP_SPEC = SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=1.0)
DRIFT_SPEC = SubordinatorSpec(kappa=1.0)


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] acceptance {criterion}: {detail}")
    assert passed, f"acceptance {criterion}: {detail}"


def test_criterion_01_clock_lipschitz_invariant():
    start = time.time()
    grid = TimeGrid(a=0.0, T=1.0, n_steps=100)
    specs = [
        JUMP_SPEC,
        SubordinatorSpec(kappa=0.5, jump_kind="truncated_stable", jump_param=0.5, cutoff=0.1),
        SubordinatorSpec(kappa=2.0, jump_kind="pareto", rate=2.0, jump_param=(0.3, 1.5)),
    ]
    n_paths = 10_000
    per_spec = n_paths // len(specs) + 1
    worst = -np.inf
    total = 0
    for i, spec in enumerate(specs):
        ens = build_ensemble(spec, grid, per_spec, seed=100 + i)
        bound = grid.dt / spec.kappa
        assert np.all(ens.dL >= 0.0)
        assert np.all(ens.dL <= bound)
        worst = max(worst, float(np.max(ens.dL) - bound))
        total += per_spec
    elapsed = time.time() - start
    ok = total >= 10_000 and elapsed < 10.0
    report(
        "1 clock Lipschitz invariant",
        ok,
        f"{total} paths, 0 <= dL <= dt/kappa exact (worst slack {worst:.1e}), {elapsed:.1f}s < 10s",
    )


def test_criterion_02_flatness_and_quadratic_variation():
    grid = TimeGrid(a=0.0, T=1.0, n_steps=20)
    ens = build_ensemble(JUMP_SPEC, grid, 100_000, seed=200)
    frozen = ens.dL == 0.0
    flat_exact = bool(np.all(ens.dB[frozen] == 0.0)) and bool(frozen.any())
    d = np.sum(ens.dB**2, axis=1) - ens.L[:, -1]
    se = d.std(ddof=1) / np.sqrt(ens.n_paths)
    gap = abs(d.mean())
    ok = flat_exact and gap <= 3.0 * se
    report(
        "2 flatness and quadratic variation",
        ok,
        f"dB==0 on frozen steps exact; |mean QV - mean L_T| = {gap:.2e} <= 3se = {3*se:.2e}",
    )


def test_criterion_03_brownian_limit():
    kappa, T = 2.0, 1.0
    grid = TimeGrid(a=0.0, T=T, n_steps=20)
    ens = build_ensemble(SubordinatorSpec(kappa=kappa), grid, 100_000, seed=300)
    xT = ens.X[:, -1]
    var = xT.var(ddof=1)
    # variance-of-variance for a Gaussian sample
    se = (T / kappa) * np.sqrt(2.0 / (ens.n_paths - 1))
    gap = abs(var - T / kappa)
    ok = gap <= 3.0 * se
    report(
        "3 Brownian limit",
        ok,
        f"var X_T = {var:.5f} vs T/kappa = {T/kappa}, gap {gap:.2e} <= 3se = {3*se:.2e}",
    )


def test_criterion_04_linear_solver_closed_form():
    start = time.time()
    # stochastic clock, zero forcings: pathwise exponential decay, no regression
    grid = TimeGrid(a=0.0, T=1.0, n_steps=50)
    ens = build_ensemble(JUMP_SPEC, grid, 2000, seed=400)
    plan = RegressionPlan(ens, BasisSpec())
    theta = solve_linear(ForcingSet.constant(ens.n_paths, ens.n_steps).rows, 1.0, plan)
    exact = np.exp(-(grid.times()[None, :] + ens.L))
    err_exact = float(np.max(np.abs(theta.x - exact) / exact))
    # drift-only forced case vs the deterministic ODE oracle
    grid2 = TimeGrid(a=0.0, T=1.0, n_steps=100)
    ens2 = build_ensemble(DRIFT_SPEC, grid2, 10_000, seed=401)
    f = ForcingSet.constant(ens2.n_paths, ens2.n_steps, b0=1.0)
    theta2 = solve_linear(f.rows, 0.0, RegressionPlan(ens2, BasisSpec()))
    x_o, y_o = linear_forced_oracle(grid2.times(), x0=0.0, b0=1.0)
    scale = max(np.max(np.abs(x_o)), np.max(np.abs(y_o)))
    mean_err = max(
        float(np.max(np.abs(theta2.x.mean(axis=0) - x_o))),
        float(np.max(np.abs(theta2.y.mean(axis=0) - y_o))),
    )
    se_y0 = theta2.y[:, 0].std(ddof=1) / np.sqrt(ens2.n_paths)
    tol = max(0.02 * scale, 3.0 * se_y0)
    elapsed = time.time() - start
    ok = err_exact <= 1e-12 and mean_err <= tol and elapsed < 60.0
    report(
        "4 linear solver closed form",
        ok,
        f"pathwise rel err {err_exact:.1e} <= 1e-12; ODE-oracle err {mean_err:.4f} <= {tol:.4f}; {elapsed:.1f}s < 60s",
    )


def test_criterion_05_linearity_superposition():
    grid = TimeGrid(a=0.0, T=1.0, n_steps=50)
    ens = build_ensemble(JUMP_SPEC, grid, 10_000, seed=500)
    m, n = ens.n_paths, ens.n_steps
    rng = np.random.default_rng(501)
    v1 = dict(b0=rng.standard_normal(), g0=rng.standard_normal(),
              sigma0=rng.standard_normal(), phi0=rng.standard_normal())
    v2 = dict(delta0=rng.standard_normal(), h0=rng.standard_normal(),
              b0=rng.standard_normal(), phi0=rng.standard_normal())
    v12 = {k: v1.get(k, 0.0) + v2.get(k, 0.0) for k in {**v1, **v2}}
    plan = RegressionPlan(ens, BasisSpec(degree=2))
    t1 = solve_linear(ForcingSet.constant(m, n, **v1).rows, 1.0, plan)
    t2 = solve_linear(ForcingSet.constant(m, n, **v2).rows, 0.5, plan)
    t12 = solve_linear(ForcingSet.constant(m, n, **v12).rows, 1.5, plan)
    diff = SolutionTriple(
        t1.x + t2.x - t12.x, t1.y + t2.y - t12.y, t1.z + t2.z - t12.z, t1.dt, t1.dL
    )
    rel = m_norm(diff).value / m_norm(t12).value
    ok = rel <= 1e-2
    report("5 linearity of the base solver", ok, f"relative M-norm defect {rel:.2e} <= 1e-2")


def test_criterion_06_contraction():
    start = time.time()
    c = 0.5
    bundle = get_bundle("canonical_monotone", c=c)
    step = eta0(bundle.lipschitz, c, 1.0, 1.0, 1.0)  # C1 = 1
    target = continuation_transform(bundle, step)
    config = ContinuationConfig(picard_tol=1e-13, max_picard=8)

    # Monte Carlo configuration: jump clock with slice regressions
    grid = TimeGrid(a=0.0, T=1.0, n_steps=50)
    ens = build_ensemble(JUMP_SPEC, grid, 2000, seed=600)
    _, diag = solve_fbsde(target, 1.0, ens, config)
    res_mc = diag.levels[0].residuals[:7]
    fit_mc = contraction_fit(res_mc)

    # deterministic configuration: drift-only, no Brownian noise, plain means
    ens_det = build_ensemble(DRIFT_SPEC, grid, 64, seed=601)
    ens_det = dataclasses.replace(
        ens_det, dB=np.zeros_like(ens_det.dB), X=np.full_like(ens_det.X, 1.0)
    )
    basis0 = BasisSpec(degree=0, ridge=0.0)
    _, diag_det = solve_fbsde(target, 1.0, ens_det, config, basis0)
    res_det = diag_det.levels[0].residuals[:7]
    fit_det = contraction_fit(res_det)

    elapsed = time.time() - start
    ok = fit_mc <= 0.5 and fit_det <= 0.30 and elapsed < 300.0
    report(
        "6 Picard contraction",
        ok,
        f"MC fitted ratio {fit_mc:.3f} <= 0.5; deterministic ratio {fit_det:.3f} <= 0.30; {elapsed:.0f}s < 300s",
    )


def test_criterion_07_uniqueness_probe():
    bundle = get_bundle("canonical_monotone", c=0.5)
    config = ContinuationConfig(picard_tol=1e-5, max_picard=40)
    grid = TimeGrid(a=0.0, T=1.0, n_steps=50)
    worst = []
    for spec, seed in ((DRIFT_SPEC, 700), (JUMP_SPEC, 701)):
        ens = build_ensemble(spec, grid, 1000, seed=seed)
        t0, d0 = solve_fbsde(bundle, 1.0, ens, config)
        pert = zero_triple(ens)
        pert.y += 0.5
        pert.x -= 0.25
        t1, _ = solve_fbsde(bundle, 1.0, ens, config, theta0=pert)
        gap = m_norm(t0, t1).value
        worst.append((gap, 2.0 * config.picard_tol * max(d0.m_norm.value, 1e-12)))
    ok = all(g <= b for g, b in worst)
    detail = "; ".join(f"gap {g:.2e} <= 2tol {b:.2e}" for g, b in worst)
    report("7 uniqueness probe", ok, detail)


def test_criterion_08_coupled_solve_vs_oracle():
    grid = TimeGrid(a=0.0, T=1.0, n_steps=100)
    ens = build_ensemble(DRIFT_SPEC, grid, 10_000, seed=800)
    theta, _ = solve_fbsde(get_bundle("canonical_monotone"), 1.0, ens)
    x_o, y_o = canonical_coupled_oracle(grid.times(), x0=1.0, c=1.0)
    oracle = SolutionTriple(
        x=np.broadcast_to(x_o, theta.x.shape).copy(),
        y=np.broadcast_to(y_o, theta.y.shape).copy(),
        z=np.zeros_like(theta.z),
        dt=theta.dt,
        dL=theta.dL,
    )
    rel = m_norm(theta, oracle).value / m_norm(oracle).value
    ok = rel <= 0.02
    report("8 coupled solve vs shooting oracle", ok, f"relative M-norm error {rel:.4f} <= 0.02")


@pytest.mark.parametrize("eta", [1 / 2, 1 / 3], ids=["eta1/2", "eta1/3"])
@pytest.mark.parametrize("c", [0.5, 2.0])
def test_criterion_08_nested_ladder_vs_oracle(c, eta):
    # the inner loops stop at a tenth of their parent's last residual, so
    # only the top loop's picard_tol bounds the error; measured 3.2e-5 to
    # 2.1e-4 on this ensemble
    grid = TimeGrid(a=0.0, T=1.0, n_steps=50)
    ens = build_ensemble(DRIFT_SPEC, grid, 2000, seed=1)
    config = ContinuationConfig(eta=eta)
    theta, diag = solve_fbsde(get_bundle("canonical_monotone", c=c), 1.0, ens, config)
    assert all(level.converged for level in diag.levels)
    x_o, y_o = canonical_coupled_oracle(grid.times(), x0=1.0, c=c)
    oracle = SolutionTriple(
        x=np.broadcast_to(x_o, theta.x.shape).copy(),
        y=np.broadcast_to(y_o, theta.y.shape).copy(),
        z=np.zeros_like(theta.z),
        dt=theta.dt,
        dL=theta.dL,
    )
    rel = m_norm(theta, oracle).value / m_norm(oracle).value
    ok = rel <= config.picard_tol
    detail = f"c={c:g} eta={eta:.3g}: relative M-norm error {rel:.2e} <= {config.picard_tol:g}"
    report("8 nested ladder vs shooting oracle", ok, detail)


def test_criterion_09_apriori_scale_stability():
    bundle = get_bundle("canonical_monotone")
    grid = TimeGrid(a=0.0, T=1.0, n_steps=50)
    ens = build_ensemble(JUMP_SPEC, grid, 2000, seed=900)
    ratios = []
    for x0 in (1.0, 2.0, 4.0):
        _, diag = solve_fbsde(bundle, x0, ens)
        ratios.append(diag.apriori.ratio)
    spread = max(ratios) / min(ratios)
    ok = spread <= 1.25
    report(
        "9 a priori estimate scale stability",
        ok,
        f"ratios {['%.4f' % r for r in ratios]} spread x{spread:.3f} <= x1.25",
    )


def test_criterion_10_hypothesis_checker():
    rng = lambda: np.random.default_rng(1000)
    r_canon = check_hypothesis(get_bundle("canonical_monotone"), rng())
    r_hp2 = check_hypothesis(get_bundle("canonical_flipped_hp2"), rng())
    r_mirror = check_hypothesis(mirror_bundle(get_bundle("canonical_flipped_hp2")), rng())
    zero_margin = max(
        r_canon.m1_margin, r_canon.m2_margin, r_hp2.m1_margin, r_hp2.m2_margin
    ) <= 1e-12
    bundle = get_bundle("flipped_b_demo")
    r_flip = check_hypothesis(bundle, rng())
    witness_ok = False
    if r_flip.violation is not None:
        v = r_flip.violation
        st = MarkovState(x=np.array([v["state_x"]]), r=np.array([v["state_r"]]))
        t = np.array([v["t"]])
        db = bundle.b(t, st, v["x1"], v["y1"]) - bundle.b(t, st, v["x2"], v["y2"])
        dg = bundle.g(t, st, v["x1"], v["y1"]) - bundle.g(t, st, v["x2"], v["y2"])
        dx, dy = v["x1"] - v["x2"], v["y1"] - v["y2"]
        witness_ok = float(db * dy - dg * dx) > -bundle.monotonicity * (dx**2 + dy**2)
    cross = get_bundle("cross_lipschitz", c=1.0, cross=0.4)
    r_cross = check_hypothesis(cross, rng())
    ok = (
        r_canon.passed
        and r_hp2.passed
        and r_mirror.passed
        and zero_margin
        and (not r_flip.passed)
        and witness_ok
        and r_cross.passed
        and cross.monotonicity == 0.5
    )
    report(
        "10 hypothesis checker",
        ok,
        "canonical + mirror pass at zero margin; flipped bundle yields a genuine "
        f"violating tuple; cross-coupled bundle passes with c/2 = {cross.monotonicity}",
    )


def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "scenario": "accept",
        "seed": 1100,
        "kappa": 1.0,
        "jumps": {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0},
        "T": 1.0,
        "n_steps": 20,
        "n_paths": 200,
        "x0": 1.0,
        "bundle": "canonical_monotone",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    pairs = []
    for sub in ("sample-subdiffusion", "solve"):
        blobs = []
        for d in ("r1", "r2"):
            out = tmp_path / d / sub
            assert run(sub, cfg_path, output_dir=out) == EXIT_OK
            blobs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        pairs.append(blobs[0] == blobs[1] and len(blobs[0]) > 0)
    ok = all(pairs)
    report(
        "11 reproducibility",
        ok,
        "identical config + seed reproduce byte-identical CSV/JSON artifacts",
    )
