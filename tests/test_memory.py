"""Memory budget of one linear solve, traced with tracemalloc."""

import tracemalloc

import numpy as np

from subfbsde import BasisSpec, ForcingSet, RegressionPlan, TimeGrid, build_ensemble, solve_linear

# peak of one solve in (n_paths, n_steps + 1) float64 grids: the solution's
# three grids, the two (n_paths, n_steps - 1) regression outputs and the
# row-block temporaries
MAX_PEAK_GRIDS = 6.5


def test_linear_solve_peak_memory(jump_spec):
    m, n = 3000, 50
    ens = build_ensemble(jump_spec, TimeGrid(a=0.0, T=1.0, n_steps=n), n_paths=m, seed=5)
    plan = RegressionPlan(ens, BasisSpec())
    f = ForcingSet.constant(m, n, b0=0.3, g0=-0.2, sigma0=0.5)
    f.h0 += np.sin(ens.X)
    f.phi0 = ens.X[:, -1] ** 2
    solve_linear(f, 1.0, plan)  # the ensemble's weights are computed on first use
    tracemalloc.start()
    try:
        solve_linear(f, 1.0, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grids = peak / (m * (n + 1) * 8)
    assert grids <= MAX_PEAK_GRIDS, f"peak {grids:.2f} grids"
