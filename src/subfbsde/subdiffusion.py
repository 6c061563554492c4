"""Sub-diffusion path ensembles X_t = x0 + B_{L_{(t-a)^+}}.

Brownian increments are generated conditionally on the clock: given dL[k],
dB[k] ~ N(0, dL[k]), independent across steps and paths.  This matches the
law of the time-changed Brownian motion at the grid nodes without simulating
the inner Brownian path.  The pair (X_t, R_t) is jointly Markov; R is the
feature that restores Markovianity for the regression stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock import SubordinatorSpec, TimeGrid, sample_clock_ensemble

__all__ = [
    "MarkovState",
    "PathEnsemble",
    "build_ensemble",
]


@dataclass
class MarkovState:
    """Augmented Markov state (X_t, R_t) at which a bundle's coefficients are
    evaluated."""

    x: object  # scalar or per-path array
    r: object


@dataclass(frozen=True)
class PathEnsemble:
    """Stacked path ensemble used by the solver modules.  Its fields cannot
    be reassigned; `dataclasses.replace` builds a new ensemble.

    Arrays are (n_paths, n_steps+1) for node values and (n_paths, n_steps)
    for increments; a jump-free clock's L, R and dL are read-only shared rows.
    """

    grid: TimeGrid
    L: np.ndarray
    R: np.ndarray
    dL: np.ndarray
    X: np.ndarray
    dB: np.ndarray
    kappa: float = 1.0

    def __post_init__(self):
        m, n = self.X.shape[0], self.grid.n_steps
        for name, cols in (("L", n + 1), ("R", n + 1), ("X", n + 1), ("dL", n), ("dB", n)):
            if getattr(self, name).shape != (m, cols):
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, want {(m, cols)}")

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps


def build_ensemble(
    spec: SubordinatorSpec, grid: TimeGrid, n_paths: int, seed: int, x0: float = 0.0
) -> PathEnsemble:
    """Clock block plus conditional Brownian increments, fully seeded.

    The clock draws from the block stream keyed by (seed, n_paths, 0) (see
    `sample_jumps`); the Gaussian block from a separate stream keyed by
    (seed, n_paths, 1).
    """
    L, R, dL = sample_clock_ensemble(spec, grid, n_paths, seed)
    Z = np.random.default_rng([seed, n_paths, 1]).standard_normal((n_paths, grid.n_steps))
    dB = np.sqrt(dL) * Z  # exactly zero on frozen steps
    X = np.zeros((n_paths, grid.n_steps + 1))
    np.cumsum(dB, axis=1, out=X[:, 1:])
    X += x0
    return PathEnsemble(grid=grid, L=L, R=R, dL=dL, X=X, dB=dB, kappa=spec.kappa)
