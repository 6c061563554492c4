"""Memory budget of a regression plan, its linear solves, a Picard solve,
a `solve-linear` run and its moments table, traced with tracemalloc."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ContinuationConfig,
    ForcingSet,
    RegressionPlan,
    SolutionTriple,
    TimeGrid,
    build_ensemble,
    get_bundle,
    picard_forcings,
    solve_fbsde,
    solve_linear,
)
from subfbsde import cli, fbsde_solver, regression

M, N = 3000, 50
GRID_BYTES = M * (N + 1) * 8  # one (n_paths, n_steps + 1) float64 grid

# peak of one solve in grids: the solution's three grids and the row-block
# temporaries of two blocks in flight; the regressions are predicted one row
# block at a time, so no (n_paths, n_steps - 1) regression output exists
# (5.11 measured while each prediction also holds its block's contiguous
# copies of the X and R columns; 4.50-4.61 with column views, two 512-row
# blocks in flight, each sweep dropping its temporaries and each prediction
# its monomials once spent; 4.50-4.89
# while a prediction held its spent monomial, 4.08-4.27 with two 256-row
# blocks that kept them, 4.79 with one 512-row block and the plan's weight
# grid, 6.22 with the two whole-ensemble outputs)
MAX_PEAK_GRIDS = 5.2
# held by the plan in grids: the (n_paths, n_steps - 1) denominator, infinite
# where z is zero (1.00 measured; the weights are computed per row block); a
# solve leaves nothing behind but its result
MAX_RETAINED_GRIDS = 2.5
# peak of a Picard solve above what was live before it, in grids: the plan,
# the previous and the new iterate and the row-block temporaries; nested
# adds the seed of the inner level; its ladder writes over the iterates of
# the flat loop it took over from, so the fallback peaks where the ladder
# alone does (11.415 against 11.412 grids on the case below).  No forcing
# grid, no zero seed grid (the zero seed is a read-only broadcast), no
# regression output grid and no weight grid: 9.18 (flatten) and 12.57
# (nested: the ladder alone on canonical_monotone(0.5)) measured with recycled
# iterates, 9.41-9.42 and 12.56-12.57 with a new triple per solve and
# 512-row sweep blocks, the same with zero seed grids, which are dropped
# before the peak (9.0-9.1 and 12.1 with 256-row blocks), where the plan's
# weight grid read 10.64 and 14.41 and the two regression outputs 12.08 and
# 15.09
MAX_PICARD_PEAK_GRIDS = {1.0: 11.2, 0.5: 19.0}
# live after solve_fbsde returns and its results are dropped, with the
# garbage collector off: nothing of the solve may stay behind
MAX_LEFT_AFTER_SOLVE_GRIDS = 0.5
# one nested Picard forcing block above what was live before it, in forcing
# sets of the block (five node arrays and phi0): the base set, evaluated
# first, plus each field built as its base field is dropped and the bundle's
# temporaries (1.40 measured, where the inner set and the base set alive
# together read 2.20)
MAX_NESTED_FORCING_PEAK_SETS = 1.5
# one plan prediction on a 512-row block above what was live before it, in
# (rows, n_steps - 1) block arrays: the two outputs, one product buffer and
# one monomial, each spent monomial dropped before the stream builds the next
# (4.34 measured on contiguous feature columns, copied before the trace
# starts; 4.66 on column views; 5.66 while the loop's enumerate tuple held
# the spent one)
MAX_PREDICT_PEAK_BLOCKS = 5.2
# a `solve-linear` run, from the scenario to its written artifacts, in grids:
# the ensemble, the plan, the solution and the CSV's node-major copies.  The
# scenario's constant forcings are built per row block (11.20 measured, 12.01
# before the first sweep wrote its increments into the solution's rows;
# 17.03 with the five forcing grids built up front)
MAX_SOLVE_LINEAR_RUN_PEAK_GRIDS = 14.0
# the CSV's moments table above what was live before it, in grids: one
# node-major copy of x, y or z at a time and the temporary of its std (2.04
# measured; 4.04 with the three copies alive at once)
MAX_MOMENTS_TABLE_PEAK_GRIDS = 3.0
# building a jump-free ensemble: the clock is one row shared by every path,
# so only X and dB are grids (2.97 peak and 1.99 retained measured, where
# per-path clock grids read 8.30 and 4.96)
MAX_JUMP_FREE_BUILD_PEAK_GRIDS = 4.0
MAX_JUMP_FREE_RETAINED_GRIDS = 3.0


@pytest.fixture(autouse=True)
def two_blocks_in_flight(monkeypatch):
    # the helper thread runs whatever the grid and the host, so the bounds
    # hold with a second row block's temporaries alive
    monkeypatch.setattr(regression, "_helper_pays", lambda n_steps: True)


def _problem(jump_spec):
    ens = build_ensemble(jump_spec, TimeGrid(a=0.0, T=1.0, n_steps=N), n_paths=M, seed=5)
    f = ForcingSet.constant(M, N, b0=0.3, g0=-0.2, sigma0=0.5)
    f.h0 += np.sin(ens.X)
    f.phi0 = ens.X[:, -1] ** 2
    return ens, f


def test_linear_solve_peak_memory(jump_spec):
    ens, f = _problem(jump_spec)
    plan = RegressionPlan(ens, BasisSpec())
    tracemalloc.start()
    try:
        solve_linear(f.rows, 1.0, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = peak / GRID_BYTES
    assert grids <= MAX_PEAK_GRIDS, f"peak {grids:.2f} grids"


def test_plan_and_first_solve_retained_memory(jump_spec):
    ens, f = _problem(jump_spec)
    tracemalloc.start()
    try:
        plan = RegressionPlan(ens, BasisSpec())
        solve_linear(f.rows, 1.0, plan)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = retained / GRID_BYTES
    assert grids <= MAX_RETAINED_GRIDS, f"retained {grids:.2f} grids"


def test_plan_predict_peak_memory(jump_spec):
    ens, _ = _problem(jump_spec)
    plan = RegressionPlan(ens, BasisSpec())
    xi = np.sin(ens.X[:, -1]) + ens.R[:, -1]
    # any numerator with one column per slice 1 <= k < n_steps
    fits = plan.fit(lambda rows: xi[rows], lambda rows: ens.X[rows, 2:])
    rows, block = next(plan.row_blocks())
    assert rows == slice(0, 512)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        plan.predict(fits, rows, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = (peak - before) / (512 * (N - 1) * 8)
    assert blocks <= MAX_PREDICT_PEAK_BLOCKS, f"peak {blocks:.2f} block arrays"


def test_solve_linear_run_peak_memory(tmp_path):
    raw = {
        "scenario": "memory", "seed": 5, "n_paths": M, "n_steps": N, "kappa": 1.0, "T": 1.0,
        "jumps": {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0},
        "forcings": {"b0": 0.3, "g0": -0.2, "sigma0": 0.5},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert cli.run("solve-linear", path, output_dir=tmp_path / "out") == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = (peak - before) / GRID_BYTES
    assert grids <= MAX_SOLVE_LINEAR_RUN_PEAK_GRIDS, f"peak {grids:.2f} grids"


def test_moments_table_peak_memory(drift_spec):
    ens = build_ensemble(drift_spec, TimeGrid(a=0.0, T=1.0, n_steps=N), n_paths=M, seed=5)
    rng = np.random.default_rng(3)
    theta = SolutionTriple(*rng.standard_normal((3, M, N + 1)), ens.grid.dt, ens.dL)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cli._solution_csv(ens, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = (peak - before) / GRID_BYTES
    assert grids <= MAX_MOMENTS_TABLE_PEAK_GRIDS, f"peak {grids:.2f} grids"


def _coupled_problem(jump_spec):
    ens = build_ensemble(jump_spec, TimeGrid(a=0.0, T=1.0, n_steps=N), n_paths=M, seed=5)
    return get_bundle("canonical_monotone", c=0.5), ens


@pytest.mark.parametrize("eta", [1.0, 0.5], ids=["flatten", "nested"])
def test_picard_solve_peak_memory(jump_spec, eta):
    bundle, ens = _coupled_problem(jump_spec)
    config = ContinuationConfig(eta=eta)
    if eta < 1.0:
        # flat Picard needs 8 iterates here: with 4 the ladder takes over
        bundle = get_bundle("canonical_monotone", c=2.0)
        config = ContinuationConfig(eta=eta, max_picard=4)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _, diag = solve_fbsde(bundle, 1.0, ens, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (diag.levels[0].eta, len(diag.levels) > 1) == (1.0, eta < 1.0)
    grids = (peak - before) / GRID_BYTES
    assert grids <= MAX_PICARD_PEAK_GRIDS[eta], f"peak {grids:.2f} grids"


def test_flat_picard_loop_recycles_its_iterates(drift_spec, monkeypatch):
    # from its third linear solve on, a flat loop writes each iterate over
    # the one it dropped: a solve then allocates only row-block temporaries,
    # far below one grid on this tall ensemble, where the first two solves
    # each allocate their three grids
    m, n = 20_000, 10
    ens = build_ensemble(drift_spec, TimeGrid(a=0.0, T=1.0, n_steps=n), n_paths=m, seed=5)
    rises = []

    def traced(*args, **kwargs):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        theta = solve_linear(*args, **kwargs)
        rises.append((tracemalloc.get_traced_memory()[1] - before) / (m * (n + 1) * 8))
        return theta

    monkeypatch.setattr(fbsde_solver, "solve_linear", traced)
    tracemalloc.start()
    try:
        solve_fbsde(get_bundle("canonical_monotone", c=0.5), 1.0, ens)
    finally:
        tracemalloc.stop()
    assert len(rises) >= 4, rises
    assert min(rises[:2]) >= 3.0, rises
    assert max(rises[2:]) < 1.0, rises


def test_nested_forcing_block_peak_memory(jump_spec):
    bundle, ens = _coupled_problem(jump_spec)
    rng = np.random.default_rng(2)
    top, theta = (
        SolutionTriple(*rng.standard_normal((3, M, N + 1)), ens.grid.dt, ens.dL) for _ in range(2)
    )
    nested = picard_forcings(bundle, theta, 0.5, picard_forcings(bundle, top, 0.5, None, ens), ens)
    rows = slice(512, 1024)
    set_bytes = (5 * (N + 1) + 1) * 512 * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        nested(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sets = (peak - before) / set_bytes
    assert sets <= MAX_NESTED_FORCING_PEAK_SETS, f"peak {sets:.2f} forcing sets"


def test_solve_leaves_nothing_alive(jump_spec):
    # without the collector, a reference cycle would keep the plan, the
    # diagnostics and every level's Picard seed alive after the call
    bundle, ens = _coupled_problem(jump_spec)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        theta, diag = solve_fbsde(bundle, 1.0, ens, ContinuationConfig(eta=0.5))
        del theta, diag
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    grids = left / GRID_BYTES
    assert grids <= MAX_LEFT_AFTER_SOLVE_GRIDS, f"{grids:.2f} grids left"


def test_jump_free_ensemble_memory(drift_spec):
    gc.collect()
    tracemalloc.start()
    try:
        ens = build_ensemble(drift_spec, TimeGrid(a=0.0, T=1.0, n_steps=N), n_paths=M, seed=5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.L.shape == (M, N + 1)
    assert peak / GRID_BYTES <= MAX_JUMP_FREE_BUILD_PEAK_GRIDS, f"peak {peak / GRID_BYTES:.2f}"
    assert retained / GRID_BYTES <= MAX_JUMP_FREE_RETAINED_GRIDS, f"{retained / GRID_BYTES:.2f}"
