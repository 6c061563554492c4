"""Memory budget of a regression plan, its linear solves and a Picard
solve, traced with tracemalloc."""

import gc
import tracemalloc

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ContinuationConfig,
    ForcingSet,
    RegressionPlan,
    TimeGrid,
    build_ensemble,
    get_bundle,
    solve_fbsde,
    solve_linear,
)

M, N = 3000, 50
GRID_BYTES = M * (N + 1) * 8  # one (n_paths, n_steps + 1) float64 grid

# peak of one solve in grids: the solution's three grids and the row-block
# temporaries; the regressions are predicted one row block at a time, so no
# (n_paths, n_steps - 1) regression output exists (4.79 measured, where the
# two whole-ensemble outputs read 6.22)
MAX_PEAK_GRIDS = 5.2
# held by the plan in grids: the weights, the (n_paths, n_steps - 1)
# denominator and its zero mask; a solve leaves nothing behind but its result
MAX_RETAINED_GRIDS = 2.5
# peak of a Picard solve above what was live before it, in grids: the plan,
# the previous and the new iterate, the row-block temporaries and the a
# priori bootstrap; nested adds the seed of the inner level.  No forcing grid
# and no regression output grid: 10.64 (flatten) and 14.41 (nested)
# measured, where the two regression outputs read 12.08 and 15.09
MAX_PICARD_PEAK_GRIDS = {1.0: 11.2, 0.5: 19.0}
# live after solve_fbsde returns and its results are dropped, with the
# garbage collector off: nothing of the solve may stay behind
MAX_LEFT_AFTER_SOLVE_GRIDS = 0.5
# building a jump-free ensemble: the clock is one row shared by every path,
# so only X and dB are grids (2.97 peak and 1.99 retained measured, where
# per-path clock grids read 8.30 and 4.96)
MAX_JUMP_FREE_BUILD_PEAK_GRIDS = 4.0
MAX_JUMP_FREE_RETAINED_GRIDS = 3.0


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


def _coupled_problem(jump_spec):
    ens = build_ensemble(jump_spec, TimeGrid(a=0.0, T=1.0, n_steps=N), n_paths=M, seed=5)
    return get_bundle("canonical_monotone", c=0.5), ens


@pytest.mark.parametrize("eta", [1.0, 0.5], ids=["flatten", "nested"])
def test_picard_solve_peak_memory(jump_spec, eta):
    bundle, ens = _coupled_problem(jump_spec)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        solve_fbsde(bundle, 1.0, ens, ContinuationConfig(eta=eta))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = (peak - before) / GRID_BYTES
    assert grids <= MAX_PICARD_PEAK_GRIDS[eta], f"peak {grids:.2f} grids"


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
