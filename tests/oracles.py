"""Independent oracles.

* Deterministic oracles for the drift-only (kappa=1, a=0) configurations,
  where dL = dt and the whole system collapses to a two-point boundary value
  ODE.  Solved by shooting: scipy integration plus a scalar root find on the
  initial backward value.
* A per-path reference inversion of one subordinator skeleton, written with
  a sorted searchsorted over the jump levels instead of the ensemble
  inversion's per-node jump counts."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def _shoot(rhs, x0, terminal_defect, t_eval, bracket=(-50.0, 50.0)):
    def endpoint(y0):
        sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), [x0, y0], rtol=1e-10, atol=1e-12)
        return terminal_defect(sol.y[0, -1], sol.y[1, -1])

    y0 = brentq(endpoint, *bracket, xtol=1e-12)
    sol = solve_ivp(
        rhs, (t_eval[0], t_eval[-1]), [x0, y0], t_eval=t_eval, rtol=1e-10, atol=1e-12
    )
    return sol.y[0], sol.y[1]


def linear_forced_oracle(t_eval, x0=0.0, b0=0.0, g0=0.0, delta0=0.0, h0=0.0, phi0=0.0):
    """Drift-only linear base system with constant forcings:
    x' = -2y + b0 + delta0,  -y' = 2x + g0 + h0,  y(T) = x(T) + phi0."""

    def rhs(t, v):
        x, y = v
        return [-2.0 * y + b0 + delta0, -(2.0 * x + g0 + h0)]

    return _shoot(rhs, x0, lambda xT, yT: yT - xT - phi0, t_eval)


def canonical_coupled_oracle(t_eval, x0=1.0, c=1.0):
    """Drift-only fully coupled canonical system:
    x' = -2c*y,  -y' = 2c*x,  y(T) = x(T)."""

    def rhs(t, v):
        x, y = v
        return [-2.0 * c * y, -2.0 * c * x]

    return _shoot(rhs, x0, lambda xT, yT: yT - xT, t_eval)


def _invert_at(skeleton, u):
    """Exact inverse: returns (L_u, S_{L_u}) for nonnegative real times u."""
    kappa = skeleton.spec.kappa
    jt, js = skeleton.jump_times, skeleton.jump_sizes
    csum = np.concatenate(([0.0], np.cumsum(js)))
    s_minus = kappa * jt + csum[:-1]  # S just before each jump
    s_plus = s_minus + js  # S just after each jump
    idx = np.searchsorted(s_plus, u, side="right")  # jumps fully below u
    L = (u - csum[idx]) / kappa
    s_at = u.astype(float).copy()
    if jt.size:
        j = np.minimum(idx, jt.size - 1)
        flat = (idx < jt.size) & (u >= s_minus[j])
        L[flat] = jt[j[flat]]
        s_at[flat] = s_plus[j[flat]]
    return L, s_at


def invert_clock_reference(skeleton, grid):
    """(L, R, dL) of one skeleton on the grid: the delayed clock
    L_{(t-a)^+}, the overshoot R_t = a + S_{L_{(t-a)^+}} - t and the clipped
    clock increments, with L rebuilt as their cumulative sum."""
    t = grid.times()
    u = np.maximum(t - grid.a, 0.0)
    L_exact, s_at = _invert_at(skeleton, u)
    assert L_exact[-1] <= skeleton.horizon, "skeleton too short for the grid"
    dL = np.clip(np.diff(L_exact), 0.0, grid.dt / skeleton.spec.kappa)
    L = np.concatenate(([0.0], np.cumsum(dL)))
    R = np.maximum(grid.a + s_at - t, 0.0)
    return L, R, dL
