"""Independent oracles.

* Deterministic oracles for the drift-only (kappa=1, a=0) configurations,
  where dL = dt and the whole system collapses to a two-point boundary value
  ODE.  Solved by shooting: scipy integration plus a scalar root find on the
  initial backward value.
* A per-path reference inversion of one subordinator skeleton, written with
  a sorted searchsorted over the jump levels instead of the ensemble
  inversion's per-node jump counts.
* The linear base solve written on whole arrays, one full-array pass per
  term: the reference for the row-blocked solver.
* The pathwise solution of `canonical_monotone(c)` on any clock.
* The renewal solution of the linear base system with `g0 = 1` under an
  exponential-jump clock, on clock-running and on frozen paths.
* The integrand of the linear base system with `phi0 = X_T` on
  clock-running paths, a plain Monte Carlo mean over the ensemble's clock.
* The continuation family between the linear base system and a bundle, and
  the paper's provable continuation step `eta0`.

`perfbench/workloads.py` imports `canonical_coupled_oracle` from here, so
this module stays importable on its own."""

from dataclasses import replace

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


def riccati_coupled_oracle(t_eval, x0=1.0, c=1.0, eps=0.2):
    """Drift-only fully coupled riccati_test system:
    x' = -2c*y - eps*tanh(y),  -y' = 2c*x + eps*tanh(x),
    y(T) = x(T) + tanh(x(T)) / 2."""

    def rhs(t, v):
        x, y = v
        return [-2.0 * c * y - eps * np.tanh(y), -(2.0 * c * x + eps * np.tanh(x))]

    return _shoot(rhs, x0, lambda xT, yT: yT - xT - 0.5 * np.tanh(xT), t_eval)


def canonical_pathwise_oracle(t, L, x0=1.0, c=1.0):
    """Exact solution of `canonical_monotone(c)` on every path of any clock:
    x = y = x0 exp(-c (t + L_t)) solves dx = -c x (dt + dL), -dy = c x (dt +
    dL) with y(T) = x(T), and z = 0.  t is the grid, L the (n_paths, n_steps+1)
    clock; returns (x, y, z)."""
    x = x0 * np.exp(-c * (t[None, :] + L))
    return x, x.copy(), np.zeros_like(x)


def _invert_at(kappa, jt, js, u):
    """Exact inverse of S_r = kappa r + sum of the sizes js of the jumps at
    intrinsic times jt <= r: returns (L_u, S_{L_u}) for nonnegative real
    times u."""
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


def invert_clock_reference(kappa, jump_times, jump_sizes, grid):
    """(L, R, dL) of one jump skeleton on the grid: the delayed clock
    L_{(t-a)^+}, the overshoot R_t = a + S_{L_{(t-a)^+}} - t and the clipped
    clock increments, with L rebuilt as their cumulative sum."""
    t = grid.times()
    u = np.maximum(t - grid.a, 0.0)
    L_exact, s_at = _invert_at(kappa, jump_times, jump_sizes, u)
    dL = np.clip(np.diff(L_exact), 0.0, grid.dt / kappa)
    L = np.concatenate(([0.0], np.cumsum(dL)))
    R = np.maximum(grid.a + s_at - t, 0.0)
    return L, R, dL


def _whole_array_trapezoid(node_values, dt_weights):
    inc = 0.5 * (node_values[:, :-1] + node_values[:, 1:]) * dt_weights
    out = np.zeros_like(node_values)
    out[:, 1:] = np.cumsum(inc, axis=1)
    return out


def whole_array_solve_linear(forcings, x0, plan):
    """The linear base solve with every step on whole (n_paths, n_steps+1)
    arrays: the formulas of the row-blocked `solve_linear`, one full-array
    pass per term and one cumsum per integral; the plan's regressions are
    fitted on targets written here on whole arrays, and predicted into whole
    arrays.  Returns (x, y, z, xi, ztilde): the solution, the terminal
    aggregate xi and the integrand ztilde of its conditional-expectation
    martingale."""
    f, ensemble = forcings, plan.ensemble
    m, n = ensemble.n_paths, ensemble.n_steps
    dt, dL, dB = ensemble.grid.dt, ensemble.dL, ensemble.dB
    w = np.exp(-(ensemble.grid.times()[None, :] + ensemble.L))
    I = _whole_array_trapezoid(w * (f.g0 + f.b0), dt) + _whole_array_trapezoid(
        w * (f.h0 + f.delta0), dL
    )
    xi = w[:, -1] * f.phi0 + I[:, -1]
    M = np.empty((m, n + 1))
    M[:, 0] = np.mean(xi)
    M[:, n] = xi
    ztilde = np.zeros((m, n + 1))
    numerator = xi[:, None] * dB  # of the ratio estimator, at every slice
    fits = plan.fit(lambda rows: xi[rows], lambda rows: numerator[rows, 1:])
    for rows, block in plan.row_blocks():
        M[rows, 1:n], ztilde[rows, 1:n] = plan.predict(fits, rows, block)
    mean_dL = float(np.mean(dL[:, 0]))
    if mean_dL >= plan.floor:
        ztilde[:, 0] = np.mean(numerator[:, 0]) / mean_dL
    ybar = (M - I) / w
    zbar = ztilde / w
    z = 0.5 * (zbar + f.sigma0)
    z[:, n] = 0.0
    inv_w = 1.0 / w
    acc = _whole_array_trapezoid(inv_w * (f.b0 - ybar), dt) + _whole_array_trapezoid(
        inv_w * (f.delta0 - ybar), dL
    )
    ito = 0.5 * inv_w[:, :n] * (f.sigma0[:, :n] - zbar[:, :n]) * dB
    acc[:, 1:] += np.cumsum(ito, axis=1)
    x = w * (x0 + acc)
    return x, x + ybar, z, xi, ztilde


def continuation_transform(bundle, alpha):
    """The alpha-interpolated bundle between the explicitly solvable base
    system (alpha = 0) and the target system (alpha = 1):

        b^a = a*b - (1-a)*y     delta^a = a*delta - (1-a)*y
        sigma^a = a*sigma - (1-a)*z
        g^a = a*g + (1-a)*x     h^a = a*h + (1-a)*x
        phi^a = a*phi + (1-a)*x

    The x-direction terms in g, h, phi carry a plus sign: that is what makes
    the alpha = 0 system coincide with the solvable linear base case and what
    preserves both monotonicity conditions with constant
    c_alpha = a*c + (1-a).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    a = alpha
    b, g, d, s, h, p = bundle.b, bundle.g, bundle.delta, bundle.sigma, bundle.h, bundle.phi
    return replace(
        bundle,
        b=lambda t, st, x, y: a * b(t, st, x, y) - (1.0 - a) * y,
        g=lambda t, st, x, y: a * g(t, st, x, y) + (1.0 - a) * x,
        delta=lambda t, st, x, y, z: a * d(t, st, x, y, z) - (1.0 - a) * y,
        sigma=lambda t, st, x, y, z: a * s(t, st, x, y, z) - (1.0 - a) * z,
        h=lambda t, st, x, y, z: a * h(t, st, x, y, z) + (1.0 - a) * x,
        phi=lambda st, x: a * p(st, x) + (1.0 - a) * x,
        monotonicity=alpha * bundle.monotonicity + (1.0 - alpha),
        lipschitz=max(1.0, a * bundle.lipschitz + (1.0 - a)),
        name=f"{bundle.name}@alpha={alpha:g}" if bundle.name else f"alpha={alpha:g}",
    )


def eta0(L, c, kappa, T, C1):
    """The paper's continuation step bound delta0: min of a horizon term and a
    contraction term, with C1 the cross-term constant."""
    if min(L, c, kappa, T, C1) <= 0.0:
        raise ValueError("all step-bound inputs must be positive")
    time_term = 1.0 / (3.0 * (1.0 + L) * ((1.0 + 1.0 / kappa) * T + 1.0))
    contraction_term = min(c, 1.0) / (1.0 + 4.0 * C1)
    return min(time_term, contraction_term)


def renewal_ybar(t, rate, mean, r=0.0, T=1.0, nodes=500):
    """`ybar = y - x` of the linear base system with g0 = 1, every other
    forcing 0 and kappa = 1, at time t on paths with overshoot R_t = r, under
    jumps at rate `rate` with Exp(mean `mean`) sizes.  On a running clock
    (r = 0) it is G(t, 0) = V(T - t).  A frozen clock resumes at t + r,
    and the weights decay at rate 1 until then:
        G(t, r) = 1 - e^{-r} + e^{-r} G(t + r, 0)   if t + r < T,
        G(t, r) = 1 - e^{-(T - t)}                  otherwise,
    which is the first line with r capped at T - t, since V(0) = 0.

    With h the time left, V is the value on a running clock and W the value
    at the start of a frozen period; weights decay at rate 2 while the clock
    runs and at rate 1 while it is frozen:
        V(h) = e^{-rate h} (1 - e^{-2h}) / 2
               + int_0^h rate e^{-rate u} [(1 - e^{-2u}) / 2 + e^{-2u} W(h - u)] du
        W(h) = e^{-h/mean} (1 - e^{-h})
               + int_0^h e^{-j/mean} / mean [1 - e^{-j} + e^{-j} V(h - j)] dj
    Both Volterra equations are solved together by the trapezoid rule on
    `nodes` steps of h; the u = 0 and j = 0 ends couple V(h) and W(h) in a
    2 x 2 solve per node."""
    h = np.linspace(0.0, T, nodes + 1)
    dh = h[1]
    e1, e2 = np.exp(-h), np.exp(-2.0 * h)
    run = rate * np.exp(-rate * h)  # density of the time to the next jump
    freeze = np.exp(-h / mean) / mean  # density of the frozen period
    V, W = np.zeros(nodes + 1), np.zeros(nodes + 1)
    for i in range(1, nodes + 1):
        q = np.full(i + 1, dh)
        q[0] = q[-1] = 0.5 * dh
        # V[i] and W[i] are still 0 in the sums: their u = 0 and j = 0 terms
        # are the a * W(h) and b * V(h) of the 2 x 2 solve
        k = slice(0, i + 1)
        v = np.exp(-rate * h[i]) * (1.0 - e2[i]) / 2.0 + q @ (
            run[k] * ((1.0 - e2[k]) / 2.0 + e2[k] * W[i::-1])
        )
        w = np.exp(-h[i] / mean) * (1.0 - e1[i]) + q @ (
            freeze[k] * (1.0 - e1[k] + e1[k] * V[i::-1])
        )
        a, b = q[0] * run[0], q[0] * freeze[0]
        V[i] = (v + a * w) / (1.0 - a * b)
        W[i] = w + b * V[i]
    t = np.asarray(t, dtype=float)
    frozen = np.minimum(r, T - t)
    return 1.0 - np.exp(-frozen) + np.exp(-frozen) * np.interp(T - t - frozen, h, V)


def running_path_G(ensemble):
    """G(t_k, 0) at every slice 1 <= k < n_steps: the plain mean, over the
    paths whose clock runs at t_k (R_k = 0), of exp(-(T - t_k) - (L_T - L_k)),
    with no regression.

    G(t, r) = E[exp(-(T - t) - (L_T - L_t)) | R_t = r] is the integrand of
    the linear base system with phi0 = X_T and every other forcing 0: there
        ybar_t = E[exp(-(T - t) - (L_T - L_t)) X_T | F_t] = X_t G(t, R_t),
    because X_T - X_t has conditional mean 0 given the clock, so zbar =
    G(t, R_t) and the stored z = (zbar + sigma0) / 2 is G(t, R_t) / 2."""
    t = ensemble.grid.times()
    decay = np.exp(-(t[-1] - t) - (ensemble.L[:, -1:] - ensemble.L))
    running = ensemble.R == 0.0
    return np.array([decay[running[:, k], k].mean() for k in range(1, ensemble.n_steps)])
