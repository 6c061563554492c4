"""Subordinator path sampling and exact inversion into the delayed clock.

The driving noise of every solver in this package is a Brownian motion run on
the inverse of a drift-positive subordinator.  This module samples the
subordinator skeletons (drift kappa plus finitely many jumps on a finite
intrinsic horizon) of a whole ensemble at once and inverts them *exactly* at
the grid nodes, producing the delayed clock L_{(t-a)^+} together with the
overshoot process R_t as (n_paths, n_steps+1) arrays, which
`subdiffusion.PathEnsemble`, the one ensemble record, holds.  The benchmark's
tracer (perfbench/spans.py) patches `sample_clock_ensemble` by that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "SubordinatorSpec",
    "TimeGrid",
    "MAX_EXPECTED_JUMPS",
    "sample_jumps",
    "sample_clock_ensemble",
]

_JUMP_KINDS = ("none", "exponential", "pareto", "fixed", "truncated_stable")

# settings a jump law does not read, refused unless left at their defaults;
# every other law ignores the cutoff
_IGNORED = {"none": ("rate", "jump_param", "cutoff"), "truncated_stable": ("rate",)}

# Expected jumps per ensemble above which sampling is refused before any draw.
# Sampling plus inversion peak at ~90 (few long paths) to ~170 (many short
# paths) bytes per jump, so this caps them at ~1-2 GB.
MAX_EXPECTED_JUMPS = 10_000_000

_OVERFLOW = "jump sizes overflow float64: the subordinator is infinite"


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
        if not (0.0 < self.kappa < math.inf):
            raise ValueError(
                f"kappa (the subordinator drift) must be finite and > 0, got {self.kappa}"
            )
        if self.jump_kind not in _JUMP_KINDS:
            raise ValueError(f"jump_kind must be one of {_JUMP_KINDS}, got {self.jump_kind!r}")
        ignored = _IGNORED.get(self.jump_kind, ("cutoff",))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ignored and value != f.default:
                raise ValueError(
                    f"{f.name} is not read by {self.jump_kind} jumps; leave it out, got {value!r}"
                )
        if self.jump_kind == "none":
            return
        if self.jump_kind == "truncated_stable":
            if not (isinstance(self.jump_param, (int, float)) and 0.0 < self.jump_param < 1.0):
                raise ValueError("jump_param of truncated_stable jumps must be an index in (0, 1)")
            if self.cutoff is None or not (0.0 < self.cutoff < math.inf):
                raise ValueError("cutoff of truncated_stable jumps must be finite and > 0")
            return
        if not (0.0 <= self.rate < math.inf):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if self.jump_kind in ("exponential", "fixed"):
            if not (isinstance(self.jump_param, (int, float)) and 0 < self.jump_param < math.inf):
                raise ValueError(f"jump_param of {self.jump_kind} jumps must be finite and > 0")
        elif self.jump_kind == "pareto":
            try:
                scale, shape = self.jump_param
            except (TypeError, ValueError):
                raise ValueError("jump_param of pareto jumps must be (scale, shape)") from None
            if not (0 < scale < math.inf and 0 < shape < math.inf):
                raise ValueError("jump_param of pareto jumps needs a finite scale and shape > 0")

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
        if self.jump_kind in ("pareto", "truncated_stable"):
            pareto = self.jump_kind == "pareto"
            scale, shape = self.jump_param if pareto else (self.cutoff, self.jump_param)
            u = 1.0 - rng.random(n)  # in (0, 1]
            return scale * u ** (-1.0 / shape)
        return np.zeros(n)


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
        """The nodes linspace(0, T, n_steps + 1), one read-only array per grid:
        every row block of every solve reads them."""
        return self._times

    @cached_property
    def _times(self) -> np.ndarray:
        t = np.linspace(0.0, self.T, self.n_steps + 1)
        t.flags.writeable = False
        return t


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
    then all jump times, then all jump sizes, refused (FloatingPointError)
    past float64.  Returns flat arrays (counts, times, sizes): path i owns
    the next counts[i] entries of times and sizes, its times strictly increasing.
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
    with np.errstate(over="ignore"):  # heavy-tailed sizes past float64 are refused next
        sizes = spec.sample_jump_sizes(times.size, rng)
    if not np.isfinite(sizes).all():
        raise FloatingPointError(_OVERFLOW)
    _check_jumps(path_id, times, sizes)
    return np.bincount(path_id, minlength=n_paths), times, sizes


def _invert(kappa, grid, counts, times, sizes):
    """Exact inversion of valid flat skeletons (see `sample_jumps`) at the
    grid nodes: the arrays (L, R, dL) of `sample_clock_ensemble`.

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
    s_jump = s_plus[path_id, rank]
    if not np.isfinite(s_jump).all():
        raise FloatingPointError(_OVERFLOW)
    # idx[i, k] = #{j : s_plus_ij <= u_k}, the jumps fully below u_k: put each
    # jump on the first node at or past it, count per node, accumulate
    first = np.searchsorted(u, s_jump, side="left")
    hits = np.bincount(path_id * (n + 2) + first, minlength=m * (n + 2)).reshape(m, n + 2)
    idx = np.cumsum(hits[:, : n + 1], axis=1)
    flat_idx = idx + (np.arange(m) * width)[:, None]

    def at(a):
        return np.take(a, flat_idx)  # a[i, idx[i, k]]

    flat = u >= at(s_minus)
    L_exact = np.where(flat, at(jt), (u - at(csum)) / kappa)
    # float guard: the exact increments satisfy 0 <= dL <= dt/kappa; clip the
    # sub-ulp rounding noise so the bound holds as stored
    dL = np.clip(np.diff(L_exact, axis=1), 0.0, grid.dt / kappa)
    L = np.zeros((m, n + 1))
    np.cumsum(dL, axis=1, out=L[:, 1:])
    R = np.maximum(grid.a + np.where(flat, at(s_plus), u) - t, 0.0)
    return L, R, dL


@np.errstate(over="ignore", invalid="ignore")  # finite sizes whose sums overflow: see `_invert`
def sample_clock_ensemble(spec: SubordinatorSpec, grid: TimeGrid, n_paths: int, seed: int):
    """n_paths independent clock paths, inverted as one block: the delayed
    inverse subordinator as arrays (L, R, dL), one row per path, with
    L[i, k] = L_{(t_k - a)^+} and R[i, k] the overshoot at t_k (R[:, 0] = a)
    of shape (n_paths, n_steps+1), and dL[i, k] = L[i, k+1] - L[i, k] of
    shape (n_paths, n_steps), 0 <= dL <= dt/kappa everywhere.  Without any
    jump all paths are one row, inverted once and broadcast read-only."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    # S_r >= kappa r, so L_T <= T / kappa: this horizon covers every grid node
    counts, times, sizes = sample_jumps(spec, grid.T / spec.kappa, n_paths, seed)
    shared = times.size == 0
    arrays = _invert(spec.kappa, grid, counts[:1] if shared else counts, times, sizes)
    return tuple(np.broadcast_to(a, (n_paths, a.shape[1])) for a in arrays) if shared else arrays
