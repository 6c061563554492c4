"""Coefficient bundles, monotonicity checking and the built-in catalog.

A bundle carries vectorized evaluators
    b(t, state, x, y), g(t, state, x, y),
    delta(t, state, x, y, z), sigma(t, state, x, y, z), h(t, state, x, y, z),
    phi(state, x)
where `state` is the MarkovState (X_t, R_t) realizing the omega-dependence,
plus a declared Lipschitz constant L >= 1 and monotonicity constant c > 0.

orientation="decreasing" is the standard monotone regime (terminal map
non-decreasing); orientation="increasing" is the sign-flipped mirror regime
(terminal map non-increasing), solved by the same machinery through the
(y, z) -> (-y, -z) change of variables that `mirror_bundle` applies in
either direction.  The catalog is `canonical_monotone`, its mirror
(`canonical_flipped_hp2`), and copies of it that override only the maps
and constants that differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .regression import _NonFiniteError
from .subdiffusion import MarkovState

__all__ = [
    "CoefficientBundle",
    "HypothesisReport",
    "check_hypothesis",
    "mirror_bundle",
    "get_bundle",
]

# relative slack on each sampled monotonicity term (see check_hypothesis), so
# that rounding in a bundle with large coefficients is not read as a violation
MARGIN_SLACK = 1e-12

# the hypothesis checker's sampling box: t uniform in [0, CLOUD_T_MAX), the
# state (X, R) in [-CLOUD_STATE_X_BOX, CLOUD_STATE_X_BOX] x [0, CLOUD_R_MAX),
# and x, y, z in [-CLOUD_BOX, CLOUD_BOX]
CLOUD_SAMPLES = 2000
CLOUD_T_MAX = 1.0
CLOUD_BOX = 2.0
CLOUD_R_MAX = 1.0
CLOUD_STATE_X_BOX = 2.0


@dataclass
class CoefficientBundle:
    """The coefficient maps of a coupled system; a solve may call them from two
    threads at once, so they must keep no state."""

    b: Callable
    g: Callable
    delta: Callable
    sigma: Callable
    h: Callable
    phi: Callable
    lipschitz: float = 1.0
    monotonicity: float = 1.0
    orientation: str = "decreasing"
    name: str = ""

    def __post_init__(self):
        if self.lipschitz < 1.0:
            raise ValueError("declared Lipschitz constant must be >= 1")
        if not (self.monotonicity > 0.0):
            raise ValueError("declared monotonicity constant must be > 0")
        if self.orientation not in ("decreasing", "increasing"):
            raise ValueError(f"unknown orientation {self.orientation!r}")


@dataclass
class HypothesisReport:
    lipschitz_estimate: float
    m1_margin: float
    m2_margin: float
    phi_monotone: bool
    samples_used: int
    verdict: dict
    passed: bool  # every verdict holds
    violation: dict | None = None


def _sample_cloud(rng: np.random.Generator):
    m = CLOUD_SAMPLES
    t = rng.random(m) * CLOUD_T_MAX
    state = MarkovState(
        x=(rng.random(m) * 2.0 - 1.0) * CLOUD_STATE_X_BOX,
        r=rng.random(m) * CLOUD_R_MAX,
    )
    pts = (rng.random((6, m)) * 2.0 - 1.0) * CLOUD_BOX
    return t, state, pts


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are refused instead
def check_hypothesis(bundle: CoefficientBundle, rng: np.random.Generator) -> HypothesisReport:
    """Sampling falsifier for the monotonicity hypothesis.

    A pass is necessary evidence only; a fail returns a concrete violating
    tuple.  Margins are the worst observed values of
        LHS + c*(|dx|^2 + |dy|^2 [+ |dz|^2])      (decreasing orientation)
        c*(...) - LHS                              (increasing orientation)
    and each sampled term passes up to MARGIN_SLACK * (1 + |LHS| + c*(...)),
    phi's term sgn*(-dphi*dx) up to MARGIN_SLACK * (1 + |dphi*dx|).  Non-finite
    margins or Lipschitz estimate are a numerical failure (FloatingPointError).
    """
    t, state, (x1, x2, y1, y2, z1, z2) = _sample_cloud(rng)
    c = bundle.monotonicity
    sgn = 1.0 if bundle.orientation == "decreasing" else -1.0

    db = bundle.b(t, state, x1, y1) - bundle.b(t, state, x2, y2)
    dg = bundle.g(t, state, x1, y1) - bundle.g(t, state, x2, y2)
    dd = bundle.delta(t, state, x1, y1, z1) - bundle.delta(t, state, x2, y2, z2)
    ds = bundle.sigma(t, state, x1, y1, z1) - bundle.sigma(t, state, x2, y2, z2)
    dh = bundle.h(t, state, x1, y1, z1) - bundle.h(t, state, x2, y2, z2)
    dphi = bundle.phi(state, x1) - bundle.phi(state, x2)
    diffs = (("b", db), ("g", dg), ("delta", dd), ("sigma", ds), ("h", dh), ("phi", dphi))
    for name, arr in diffs:
        if not np.all(np.isfinite(arr)):
            raise _NonFiniteError(f"coefficient {name} produced non-finite values")

    dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
    sq2, sq3 = dx**2 + dy**2, dx**2 + dy**2 + dz**2
    m1_lhs = db * dy - dg * dx
    m2_lhs = ds * dz + dd * dy - dh * dx
    m1_vals = sgn * m1_lhs + c * sq2
    m2_vals = sgn * m2_lhs + c * sq3
    m1_margin = float(np.max(m1_vals))
    m2_margin = float(np.max(m2_vals))

    phi_vals = sgn * (-dphi * dx)  # <= slack means monotone in the right direction
    phi_ok = bool(np.all(phi_vals <= MARGIN_SLACK * (1.0 + np.abs(dphi * dx))))

    # crude Lipschitz estimate from the sampled difference quotients
    est = 0.0
    n2 = np.sqrt(dx**2 + dy**2)
    n3 = np.sqrt(dx**2 + dy**2 + dz**2)
    for diff, denom in ((db, n2), (dg, n2), (dd, n3), (ds, n3), (dh, n3)):
        mask = denom > 0
        if np.any(mask):
            est = max(est, float(np.max(np.abs(diff[mask]) / denom[mask])))
    mask = np.abs(dx) > 0
    if np.any(mask):
        est = max(est, float(np.max(np.abs(dphi[mask]) / np.abs(dx[mask]))))
    for name, value in (("m1_margin", m1_margin), ("m2_margin", m2_margin),
                        ("lipschitz_estimate", est)):
        if not np.isfinite(value):
            raise _NonFiniteError(f"hypothesis check {name} is {value}: the sampled terms overflow")

    verdict = {
        "m1": bool(np.all(m1_vals <= MARGIN_SLACK * (1.0 + np.abs(m1_lhs) + c * sq2))),
        "m2": bool(np.all(m2_vals <= MARGIN_SLACK * (1.0 + np.abs(m2_lhs) + c * sq3))),
        "phi_monotone": phi_ok,
    }
    violation = None
    if not all(verdict.values()):
        if not verdict["m1"]:
            i, which = int(np.argmax(m1_vals)), "m1"
        elif not verdict["m2"]:
            i, which = int(np.argmax(m2_vals)), "m2"
        else:
            i, which = int(np.argmax(phi_vals)), "phi"
        violation = {
            "condition": which,
            "t": float(t[i]),
            "state_x": float(state.x[i]),
            "state_r": float(state.r[i]),
            "x1": float(x1[i]),
            "x2": float(x2[i]),
            "y1": float(y1[i]),
            "y2": float(y2[i]),
            "z1": float(z1[i]),
            "z2": float(z2[i]),
        }
    return HypothesisReport(
        lipschitz_estimate=est,
        m1_margin=m1_margin,
        m2_margin=m2_margin,
        phi_monotone=phi_ok,
        samples_used=CLOUD_SAMPLES,
        verdict=verdict,
        passed=all(verdict.values()),
        violation=violation,
    )


def mirror_bundle(bundle: CoefficientBundle) -> CoefficientBundle:
    """The image of a bundle under (y, z) -> (-y, -z), in the other
    orientation; solutions map back by negating y and z.  An involution: the
    mirror of the mirror evaluates bit for bit as the bundle does."""
    b, g, d, s, h, p = bundle.b, bundle.g, bundle.delta, bundle.sigma, bundle.h, bundle.phi
    stem = bundle.name.removesuffix("#mirrored")
    return replace(
        bundle,
        b=lambda t, st, x, y: b(t, st, x, -y),
        g=lambda t, st, x, y: -g(t, st, x, -y),
        delta=lambda t, st, x, y, z: d(t, st, x, -y, -z),
        sigma=lambda t, st, x, y, z: s(t, st, x, -y, -z),
        h=lambda t, st, x, y, z: -h(t, st, x, -y, -z),
        phi=lambda st, x: -p(st, x),
        orientation="increasing" if bundle.orientation == "decreasing" else "decreasing",
        name=stem if stem != bundle.name else f"{stem}#mirrored",
    )


# ---------------------------------------------------------------------------
# built-in bundle catalog: canonical_monotone and what differs from it


def _canonical_monotone(c: float = 1.0) -> CoefficientBundle:
    return CoefficientBundle(
        b=lambda t, st, x, y: -c * y,
        g=lambda t, st, x, y: c * x,
        delta=lambda t, st, x, y, z: -c * y,
        sigma=lambda t, st, x, y, z: -c * z,
        h=lambda t, st, x, y, z: c * x,
        phi=lambda st, x: x,
        lipschitz=max(1.0, c),
        monotonicity=c,
        orientation="decreasing",
        name=f"canonical_monotone(c={c:g})",
    )


def _canonical_flipped_hp2(c: float = 1.0) -> CoefficientBundle:
    # the sign-flipped (increasing) regime H_p2
    return replace(mirror_bundle(_canonical_monotone(c)), name=f"canonical_flipped_hp2(c={c:g})")


def _riccati_test(c: float = 1.0, eps: float = 0.2) -> CoefficientBundle:
    # mildly nonlinear monotone bundle; tanh keeps everything Lipschitz
    return replace(
        _canonical_monotone(c),
        b=lambda t, st, x, y: -c * y - eps * np.tanh(y),
        g=lambda t, st, x, y: c * x + eps * np.tanh(x),
        phi=lambda st, x: x + 0.5 * np.tanh(x),
        lipschitz=max(1.5, c + eps),
        name=f"riccati_test(c={c:g},eps={eps:g})",
    )


def _cross_lipschitz(c: float = 1.0, cross: float = 0.4) -> CoefficientBundle:
    # b monotone in y, g monotone in x, cross-coupling with constant < c/2:
    # the pair still satisfies the first monotonicity condition with c/2
    if not (0.0 <= cross < c / 2.0):
        raise ValueError("cross-coupling constant must be < c/2")
    return replace(
        _canonical_monotone(c),
        b=lambda t, st, x, y: -c * y + cross * x,
        g=lambda t, st, x, y: c * x - cross * y,
        lipschitz=max(1.0, c + cross),
        monotonicity=c / 2.0,
        name=f"cross_lipschitz(c={c:g},cross={cross:g})",
    )


def _flipped_b_demo(c: float = 1.0) -> CoefficientBundle:
    # wrong-sign b: violates the first monotonicity condition by construction
    return replace(_canonical_monotone(c), b=lambda t, st, x, y: y, name=f"flipped_b_demo(c={c:g})")


_REGISTRY: dict[str, Callable[..., CoefficientBundle]] = {
    "canonical_monotone": _canonical_monotone,
    "canonical_flipped_hp2": _canonical_flipped_hp2,
    "riccati_test": _riccati_test,
    "cross_lipschitz": _cross_lipschitz,
    "flipped_b_demo": _flipped_b_demo,
}


def get_bundle(name: str, **params) -> CoefficientBundle:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown bundle {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(**params)
