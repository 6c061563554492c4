"""Subordinator path sampling and exact inversion into the delayed clock.

The driving noise of every solver in this package is a Brownian motion run on
the inverse of a drift-positive subordinator.  This module samples the
subordinator skeletons (drift kappa plus finitely many jumps on a finite
intrinsic horizon) of a whole ensemble at once and inverts them *exactly* at
the grid nodes, producing the delayed clock L_{(t-a)^+} together with the
overshoot process R_t as (n_paths, n_steps+1) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SubordinatorSpec",
    "SubordinatorSkeleton",
    "TimeGrid",
    "ClockEnsemble",
    "InsufficientHorizonError",
    "MAX_EXPECTED_JUMPS",
    "sample_jumps",
    "invert_clock",
    "sample_clock_ensemble",
]

_JUMP_KINDS = ("none", "exponential", "pareto", "fixed", "truncated_stable")

# Expected jumps per ensemble above which sampling is refused before any draw.
# Sampling plus inversion peak at ~90 (few long paths) to ~170 (many short
# paths) bytes per jump, so this caps them at ~1-2 GB.
MAX_EXPECTED_JUMPS = 10_000_000


class InsufficientHorizonError(RuntimeError):
    """The sampled skeleton does not cover the intrinsic times the grid needs."""


@dataclass(frozen=True)
class SubordinatorSpec:
    """Drift-positive subordinator: S_r = kappa*r + compound-Poisson jumps.

    jump_kind selects the jump activity:
      * "none"              -- pure drift, S_r = kappa*r.
      * "exponential"       -- compound Poisson, exponential sizes, jump_param = mean.
      * "pareto"            -- compound Poisson, Pareto sizes, jump_param = (scale, shape).
      * "fixed"             -- compound Poisson, constant sizes, jump_param = size.
      * "truncated_stable"  -- stable index beta = jump_param, jumps below `cutoff`
                               dropped; mapped to the equivalent compound-Poisson
                               process with rate cutoff^(-beta)/Gamma(1-beta) and
                               Pareto(cutoff, beta) sizes.
    """

    kappa: float
    jump_kind: str = "none"
    rate: float = 0.0
    jump_param: float | tuple[float, float] | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if not (self.kappa > 0.0):
            raise ValueError(f"kappa (the subordinator drift) must be > 0, got {self.kappa}")
        if self.jump_kind not in _JUMP_KINDS:
            raise ValueError(f"jump_kind must be one of {_JUMP_KINDS}, got {self.jump_kind!r}")
        if self.jump_kind == "none":
            return
        if self.jump_kind == "truncated_stable":
            if not (isinstance(self.jump_param, (int, float)) and 0.0 < self.jump_param < 1.0):
                raise ValueError("jump_param of truncated_stable jumps must be an index in (0, 1)")
            if self.cutoff is None or not (self.cutoff > 0.0):
                raise ValueError("cutoff of truncated_stable jumps must be > 0")
            return
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.jump_kind in ("exponential", "fixed"):
            if not (isinstance(self.jump_param, (int, float)) and self.jump_param > 0):
                raise ValueError(f"jump_param of {self.jump_kind} jumps must be a positive number")
        elif self.jump_kind == "pareto":
            try:
                scale, shape = self.jump_param
            except (TypeError, ValueError):
                raise ValueError("jump_param of pareto jumps must be (scale, shape)") from None
            if not (scale > 0 and shape > 0):
                raise ValueError("jump_param of pareto jumps must have a positive scale and shape")

    def effective_rate(self) -> float:
        """Poisson intensity of the (possibly truncated) jump stream."""
        if self.jump_kind == "none":
            return 0.0
        if self.jump_kind == "truncated_stable":
            beta = float(self.jump_param)
            return self.cutoff ** (-beta) / math.gamma(1.0 - beta)
        return float(self.rate)

    def sample_jump_sizes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.jump_kind == "exponential":
            return rng.exponential(float(self.jump_param), size=n)
        if self.jump_kind == "fixed":
            return np.full(n, float(self.jump_param))
        if self.jump_kind == "pareto":
            scale, shape = self.jump_param
            u = 1.0 - rng.random(n)  # in (0, 1]
            return scale * u ** (-1.0 / shape)
        if self.jump_kind == "truncated_stable":
            beta = float(self.jump_param)
            u = 1.0 - rng.random(n)
            return self.cutoff * u ** (-1.0 / beta)
        return np.zeros(n)

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "jump_kind": self.jump_kind,
            "rate": self.rate,
            "jump_param": list(self.jump_param)
            if isinstance(self.jump_param, (tuple, list))
            else self.jump_param,
            "cutoff": self.cutoff,
        }


@dataclass(frozen=True)
class SubordinatorSkeleton:
    """Finite jump skeleton of S on an intrinsic-time horizon.

    S_r = kappa*r + sum of jump_sizes at intrinsic jump_times <= r.
    """

    spec: SubordinatorSpec
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    horizon: float

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        js = np.asarray(self.jump_sizes, dtype=float)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_sizes", js)
        _check_jumps(np.zeros(jt.size, dtype=int), jt, js)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform real-time grid on [0, T] with activation delay a."""

    a: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        if not (0.0 <= self.a < self.T):
            raise ValueError(f"a must satisfy 0 <= a < T, got a={self.a}, T={self.T}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass
class ClockEnsemble:
    """Delayed inverse subordinator on a grid, one row per path.

    L[i, k] = L_{(t_k - a)^+}, R[i, k] = overshoot at t_k (R[:, 0] = a),
    dL[i, k] = L[i, k+1] - L[i, k] with 0 <= dL <= dt/kappa everywhere.
    """

    grid: TimeGrid
    L: np.ndarray
    R: np.ndarray
    dL: np.ndarray


def _check_jumps(path_id: np.ndarray, times: np.ndarray, sizes: np.ndarray) -> None:
    """Flat skeletons: positive times, strictly increasing within each path,
    and positive sizes."""
    if times.shape != sizes.shape:
        raise ValueError("jump_times and jump_sizes must have equal length")
    if np.any(np.diff(times)[np.diff(path_id) == 0] <= 0.0):
        raise ValueError("jump_times must be strictly increasing")
    if np.any(times <= 0.0):
        raise ValueError("jump_times must be positive")
    if np.any(sizes <= 0.0):
        raise ValueError("jump sizes must be strictly positive")


def sample_jumps(spec: SubordinatorSpec, horizon: float, n_paths: int, seed: int):
    """Jump skeletons of n_paths independent copies of S on [0, horizon].

    One block stream keyed by (seed, n_paths, 0) draws all Poisson counts,
    then all jump times, then all jump sizes.  Returns flat arrays
    (counts, times, sizes): path i owns the next counts[i] entries of times
    and sizes, its times strictly increasing.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    mean = spec.effective_rate() * horizon
    if mean * n_paths > MAX_EXPECTED_JUMPS:
        raise ValueError(
            f"{spec.jump_kind} jumps at rate {spec.effective_rate():.4g} over intrinsic "
            f"horizon {horizon:.4g} expect {mean * n_paths:.4g} jumps on {n_paths} paths, "
            f"more than the {MAX_EXPECTED_JUMPS:.0e} this sampler holds"
        )
    if mean == 0.0:
        return np.zeros(n_paths, dtype=np.int64), np.empty(0), np.empty(0)
    rng = np.random.default_rng([seed, n_paths, 0])
    path_id = np.repeat(np.arange(n_paths), rng.poisson(mean, size=n_paths))
    times = rng.random(path_id.size) * horizon
    times = times[np.lexsort((times, path_id))]  # path_id is sorted already
    # coincident uniform draws are a probability-zero event but would violate
    # the strict-monotonicity invariant; drop duplicates defensively
    keep = (np.diff(times, prepend=0.0) > 0.0) | (np.diff(path_id, prepend=-1) != 0)
    path_id, times = path_id[keep], times[keep]
    sizes = spec.sample_jump_sizes(times.size, rng)
    _check_jumps(path_id, times, sizes)
    return np.bincount(path_id, minlength=n_paths), times, sizes


def _invert(kappa, grid, horizon, counts, times, sizes) -> ClockEnsemble:
    """Exact inversion of valid flat skeletons (see `sample_jumps`) at the
    grid nodes.

    Between jumps L grows linearly with slope 1/kappa; across a jump of S at
    intrinsic time r the clock is frozen at r for the whole jump interval.
    The overshoot is R_t = a + S_{L_{(t-a)^+}} - t.
    """
    m, n = counts.size, grid.n_steps
    path_id = np.repeat(np.arange(m), counts)
    t = grid.times()
    u = np.maximum(t - grid.a, 0.0)
    # row i holds path i's jumps by rank; the spare column past a path's last
    # jump has time +inf, so S never reaches it
    rank = np.arange(times.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max(initial=0)) + 1
    jt = np.full((m, width), np.inf)
    js = np.zeros((m, width))
    jt[path_id, rank] = times
    js[path_id, rank] = sizes
    # csum[i, r] = sizes of path i's first r jumps, summed left to right as
    # np.cumsum of one path does
    csum = np.zeros((m, width))
    np.cumsum(js[:, :-1], axis=1, out=csum[:, 1:])
    s_minus = kappa * jt + csum  # S just before each jump
    s_plus = s_minus + js  # S just after each jump
    # idx[i, k] = #{j : s_plus_ij <= u_k}, the jumps fully below u_k: put each
    # jump on the first node at or past it, count per node, accumulate
    first = np.searchsorted(u, s_plus[path_id, rank], side="left")
    hits = np.bincount(path_id * (n + 2) + first, minlength=m * (n + 2)).reshape(m, n + 2)
    idx = np.cumsum(hits[:, : n + 1], axis=1)
    flat_idx = idx + (np.arange(m) * width)[:, None]

    def at(a):
        return np.take(a, flat_idx)  # a[i, idx[i, k]]

    flat = u >= at(s_minus)
    L_exact = np.where(flat, at(jt), (u - at(csum)) / kappa)
    if np.any(L_exact[:, -1] > horizon):
        raise InsufficientHorizonError(
            f"skeleton horizon {horizon} < required intrinsic time {L_exact[:, -1].max()}"
        )
    # float guard: the exact increments satisfy 0 <= dL <= dt/kappa; clip the
    # sub-ulp rounding noise so the bound holds as stored
    dL = np.clip(np.diff(L_exact, axis=1), 0.0, grid.dt / kappa)
    L = np.zeros((m, n + 1))
    np.cumsum(dL, axis=1, out=L[:, 1:])
    R = np.maximum(grid.a + np.where(flat, at(s_plus), u) - t, 0.0)
    return ClockEnsemble(grid=grid, L=L, R=R, dL=dL)


def invert_clock(skeleton: SubordinatorSkeleton, grid: TimeGrid) -> ClockEnsemble:
    """One-path entry into the ensemble inversion, for hand-built skeletons."""
    jt = skeleton.jump_times
    counts = np.array([jt.size])
    return _invert(skeleton.spec.kappa, grid, skeleton.horizon, counts, jt, skeleton.jump_sizes)


def sample_clock_ensemble(
    spec: SubordinatorSpec, grid: TimeGrid, n_paths: int, seed: int
) -> ClockEnsemble:
    """n_paths independent clock paths, inverted as one block."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    horizon = grid.T / spec.kappa  # drift alone reaches T
    counts, times, sizes = sample_jumps(spec, horizon, n_paths, seed)
    return _invert(spec.kappa, grid, horizon, counts, times, sizes)
