"""Explicit solver for the linear base FBSDE.

The linear system
    dx = (-y + b0) dt + (-y + delta0) dL + (-z + sigma0) dB_L
   -dy = ( x + g0) dt + ( x + h0    ) dL -  z dB_L,
    x(0) = x0,  y(T) = x(T) + phi0
decouples through ybar = y - x.  The pair (ybar, zbar) solves a BSDE whose
exponentially weighted version reduces to the martingale of the terminal
aggregate xi; the forward component then has a closed weighted-integral
form.  Deterministic-clock integrals (dt and dL) use the trapezoid rule,
whose partial sums only touch already-revealed nodes and therefore stay
adapted; the dB integral is left-point (Ito).  The conditional expectations
of the backward pass are the slice regressions of a `RegressionPlan`, which
depends only on the ensemble and the basis and is shared by every solve on
that ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regression import BasisSpec, RegressionPlan

# unused here: kept because the benchmark tracer (perfbench/spans.py) wraps these names
from .regression import extract_z, fit_condexp  # noqa: F401
from .subdiffusion import PathEnsemble

__all__ = [
    "ForcingSet",
    "SolutionTriple",
    "LinearWorkspace",
    "LinearAprioriReport",
    "build_xi",
    "solve_linear",
    "apriori_linear_check",
]


@dataclass
class ForcingSet:
    """Exogenous forcings on the grid: b0, g0 integrate against dt;
    delta0, h0, sigma0 against dL; phi0 shifts the terminal condition.

    Node arrays are (n_paths, n_steps+1); phi0 is (n_paths,).
    """

    b0: np.ndarray
    g0: np.ndarray
    delta0: np.ndarray
    h0: np.ndarray
    sigma0: np.ndarray
    phi0: np.ndarray

    @classmethod
    def zeros(cls, n_paths: int, n_steps: int) -> "ForcingSet":
        node = lambda: np.zeros((n_paths, n_steps + 1))
        return cls(node(), node(), node(), node(), node(), np.zeros(n_paths))

    @classmethod
    def constant(cls, n_paths: int, n_steps: int, **values) -> "ForcingSet":
        f = cls.zeros(n_paths, n_steps)
        for key, val in values.items():
            arr = getattr(f, key)
            arr += val
        return f

    def scaled(self, factor: float) -> "ForcingSet":
        return ForcingSet(
            factor * self.b0,
            factor * self.g0,
            factor * self.delta0,
            factor * self.h0,
            factor * self.sigma0,
            factor * self.phi0,
        )

    def added(self, other: "ForcingSet") -> "ForcingSet":
        return ForcingSet(
            self.b0 + other.b0,
            self.g0 + other.g0,
            self.delta0 + other.delta0,
            self.h0 + other.h0,
            self.sigma0 + other.sigma0,
            self.phi0 + other.phi0,
        )

    def validate(self, ensemble: PathEnsemble) -> None:
        shape = ensemble.X.shape
        for name in ("b0", "g0", "delta0", "h0", "sigma0"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"forcing {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"forcing {name} contains non-finite values")
        if self.phi0.shape != (shape[0],):
            raise ValueError("phi0 must be one value per path")
        if not np.all(np.isfinite(self.phi0)):
            raise ValueError("phi0 contains non-finite values")


@dataclass
class SolutionTriple:
    """Grid-valued ensemble solution candidate (x, y, z).

    x, y live on nodes; z is the left-point integrand against dB_L and is
    meaningful only dL-almost everywhere (its terminal column is zero).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    dt: float
    dL: np.ndarray

    @classmethod
    def zeros(cls, ensemble: PathEnsemble) -> "SolutionTriple":
        shape = ensemble.X.shape
        return cls(
            x=np.zeros(shape),
            y=np.zeros(shape),
            z=np.zeros(shape),
            dt=ensemble.grid.dt,
            dL=ensemble.dL,
        )

    def sub(self, other: "SolutionTriple") -> "SolutionTriple":
        return SolutionTriple(
            self.x - other.x, self.y - other.y, self.z - other.z, self.dt, self.dL
        )

    def scaled(self, factor: float) -> "SolutionTriple":
        return SolutionTriple(
            factor * self.x, factor * self.y, factor * self.z, self.dt, self.dL
        )


@dataclass
class LinearWorkspace:
    """Intermediates of the reduction: terminal aggregate, the shifted
    backward pair, and its exponentially weighted version."""

    xi: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray
    ytilde: np.ndarray
    ztilde: np.ndarray
    weights: np.ndarray  # exp(-(t + L)) per node


@dataclass
class LinearAprioriReport:
    lhs: float
    rhs: float
    ratio: float
    violation: bool


def _weights(ensemble: PathEnsemble) -> np.ndarray:
    t = ensemble.grid.times()
    return np.exp(-(t[None, :] + ensemble.L))


def _trapezoid_cumsum(node_values: np.ndarray, dt_weights) -> np.ndarray:
    """Cumulative trapezoid integral over the grid; the k-th partial sum only
    touches nodes <= k, so adaptedness of the running integral is kept."""
    inc = 0.5 * (node_values[:, :-1] + node_values[:, 1:]) * dt_weights
    out = np.zeros_like(node_values)
    out[:, 1:] = np.cumsum(inc, axis=1)
    return out


def _running_integral(forcings: ForcingSet, ensemble: PathEnsemble, w: np.ndarray):
    """Cumulative weighted forcing integral I_k.

    Trapezoid on both clocks: the integrands are node values known at their
    own time stamps, so the rule stays adapted while cutting the first-order
    quadrature bias of the left-point rule.
    """
    dt = ensemble.grid.dt
    return _trapezoid_cumsum(
        w * (forcings.g0 + forcings.b0), dt
    ) + _trapezoid_cumsum(w * (forcings.h0 + forcings.delta0), ensemble.dL)


def build_xi(forcings: ForcingSet, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path terminal aggregate: weighted terminal shift plus the full
    weighted forcing integrals."""
    forcings.validate(ensemble)
    w = _weights(ensemble)
    I = _running_integral(forcings, ensemble, w)
    return w[:, -1] * forcings.phi0 + I[:, -1]


def solve_linear(
    forcings: ForcingSet,
    x0: float,
    ensemble: PathEnsemble,
    basis: BasisSpec | None = None,
    plan: RegressionPlan | None = None,
):
    """Solve the linear base FBSDE on the ensemble.

    Backward pass: the weighted backward value is the conditional expectation
    of xi minus the running integral, estimated per slice by least squares on
    the Markov features; the integrand comes from the ratio estimator.
    Forward pass: closed-form weighted integrals.  plan: the ensemble's
    regression plan for basis, built here when not given; callers that solve
    repeatedly on one ensemble pass it to set the regressions up once.
    """
    forcings.validate(ensemble)
    if plan is None:
        plan = RegressionPlan(ensemble, basis or BasisSpec())
    elif plan.ensemble is not ensemble or basis not in (None, plan.basis):
        raise ValueError("regression plan was built for another ensemble or basis")
    m, n = ensemble.n_paths, ensemble.n_steps
    dt = ensemble.grid.dt
    w = _weights(ensemble)
    I = _running_integral(forcings, ensemble, w)
    xi = w[:, -1] * forcings.phi0 + I[:, -1]

    # conditional-expectation martingale of xi along the grid
    M = np.empty((m, n + 1))
    M[:, 0] = np.mean(xi)  # the filtration is trivial at time 0
    M[:, n] = xi
    ztilde = np.zeros((m, n + 1))
    M[:, 1:n], ztilde[:, 1:n] = plan.regress(xi)
    ytilde = M - I
    # trivial sigma-field at k = 0: plain means instead of a regression
    mean_dL = float(np.mean(ensemble.dL[:, 0]))
    if mean_dL >= plan.floor:
        ztilde[:, 0] = np.mean(xi * ensemble.dB[:, 0]) / mean_dL

    ybar = ytilde / w
    zbar = ztilde / w
    z = 0.5 * (zbar + forcings.sigma0)
    z[:, n] = 0.0

    # forward pass, closed form; trapezoid on the dt/dL integrals, left-point
    # (Ito) on the dB integral
    inv_w = 1.0 / w
    acc = _trapezoid_cumsum(inv_w * (forcings.b0 - ybar), dt) + _trapezoid_cumsum(
        inv_w * (forcings.delta0 - ybar), ensemble.dL
    )
    ito = 0.5 * inv_w[:, :n] * (forcings.sigma0[:, :n] - zbar[:, :n]) * ensemble.dB
    acc[:, 1:] += np.cumsum(ito, axis=1)
    x = w * (x0 + acc)
    y = x + ybar

    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
        raise FloatingPointError("linear solve produced non-finite values")

    solution = SolutionTriple(x=x, y=y, z=z, dt=dt, dL=ensemble.dL)
    workspace = LinearWorkspace(
        xi=xi, ybar=ybar, zbar=zbar, ytilde=ytilde, ztilde=ztilde, weights=w
    )
    return solution, workspace


def apriori_linear_check(
    solution: SolutionTriple, forcings: ForcingSet, x0: float
) -> LinearAprioriReport:
    """Ratio of the solution energy to the data energy; the linear a priori
    estimate bounds it by a constant depending only on the horizon."""
    n = solution.dL.shape[1]
    lhs = float(
        np.mean(
            np.max(solution.x**2 + solution.y**2, axis=1)
            + np.sum(solution.z[:, :n] ** 2 * solution.dL, axis=1)
        )
    )
    rhs = float(
        x0**2
        + np.mean(forcings.phi0**2)
        + np.mean(np.sum((forcings.b0[:, :n] ** 2 + forcings.g0[:, :n] ** 2), axis=1))
        * solution.dt
        + np.mean(
            np.sum(
                (
                    forcings.delta0[:, :n] ** 2
                    + forcings.h0[:, :n] ** 2
                    + forcings.sigma0[:, :n] ** 2
                )
                * solution.dL,
                axis=1,
            )
        )
    )
    tol = 1e-12
    if rhs <= tol:
        return LinearAprioriReport(lhs=lhs, rhs=rhs, ratio=0.0, violation=lhs > tol)
    return LinearAprioriReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, violation=False)
