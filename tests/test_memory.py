"""Memory budget of a regression plan and its linear solves, traced with
tracemalloc."""

import tracemalloc

import numpy as np

from subfbsde import BasisSpec, ForcingSet, RegressionPlan, TimeGrid, build_ensemble, solve_linear

M, N = 3000, 50
GRID_BYTES = M * (N + 1) * 8  # one (n_paths, n_steps + 1) float64 grid

# peak of one solve in grids: the solution's three grids, the two
# (n_paths, n_steps - 1) regression outputs and the row-block temporaries
MAX_PEAK_GRIDS = 6.5
# held by the plan in grids: the weights, the (n_paths, n_steps - 1)
# denominator and its zero mask; a solve leaves nothing behind but its result
MAX_RETAINED_GRIDS = 2.5


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
        solve_linear(f, 1.0, plan)
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
        solve_linear(f, 1.0, plan)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = retained / GRID_BYTES
    assert grids <= MAX_RETAINED_GRIDS, f"retained {grids:.2f} grids"
