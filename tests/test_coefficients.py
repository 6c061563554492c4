from dataclasses import replace

import numpy as np
import pytest

from subfbsde import (
    CoefficientBundle,
    MarkovState,
    check_hypothesis,
    get_bundle,
    mirror_bundle,
)
from subfbsde.coefficients import _REGISTRY, _sample_cloud
from oracles import continuation_transform, eta0


def _rng():
    return np.random.default_rng(0)


def test_catalog_and_lookup():
    for name in ("canonical_monotone", "canonical_flipped_hp2", "riccati_test",
                 "cross_lipschitz", "flipped_b_demo"):
        assert isinstance(get_bundle(name), CoefficientBundle)
    with pytest.raises(KeyError, match="canonical_monotone"):  # the message lists the catalog
        get_bundle("no_such_bundle")


def test_bundle_validation():
    b = get_bundle("canonical_monotone")
    with pytest.raises(ValueError):
        CoefficientBundle(b.b, b.g, b.delta, b.sigma, b.h, b.phi, lipschitz=0.5)
    with pytest.raises(ValueError):
        CoefficientBundle(b.b, b.g, b.delta, b.sigma, b.h, b.phi, monotonicity=0.0)
    with pytest.raises(ValueError):
        CoefficientBundle(b.b, b.g, b.delta, b.sigma, b.h, b.phi, orientation="sideways")


def test_canonical_passes():
    report = check_hypothesis(get_bundle("canonical_monotone"), _rng())
    assert report.passed
    assert report.violation is None
    assert report.m1_margin <= 1e-12
    assert report.m2_margin <= 1e-12


def test_flipped_hp2_passes_under_increasing_orientation():
    report = check_hypothesis(get_bundle("canonical_flipped_hp2"), _rng())
    assert report.passed


def test_flipped_b_fails_with_concrete_witness():
    bundle = get_bundle("flipped_b_demo")
    report = check_hypothesis(bundle, _rng())
    assert not report.passed
    v = report.violation
    assert v is not None and v["condition"] == "m1"
    # re-evaluate the witness: it must genuinely violate the inequality
    st = MarkovState(x=np.array([v["state_x"]]), r=np.array([v["state_r"]]))
    t = np.array([v["t"]])
    db = bundle.b(t, st, v["x1"], v["y1"]) - bundle.b(t, st, v["x2"], v["y2"])
    dg = bundle.g(t, st, v["x1"], v["y1"]) - bundle.g(t, st, v["x2"], v["y2"])
    dx, dy = v["x1"] - v["x2"], v["y1"] - v["y2"]
    lhs = float(db * dy - dg * dx)
    assert lhs > -bundle.monotonicity * (dx**2 + dy**2)


@pytest.mark.parametrize(
    "change, condition, verdict",
    [
        ({"sigma": lambda t, st, x, y, z: 3.0 * z}, "m2", "m2"),
        ({"phi": lambda st, x: -x}, "phi", "phi_monotone"),
    ],
    ids=["m2", "phi"],
)
def test_a_single_failed_condition_is_the_one_reported(change, condition, verdict):
    # canonical_monotone(1) with one coefficient changed fails that condition alone
    bundle = replace(get_bundle("canonical_monotone"), **change)
    report = check_hypothesis(bundle, _rng())
    assert report.verdict == {key: key != verdict for key in ("m1", "m2", "phi_monotone")}
    assert not report.passed
    v = report.violation
    assert v is not None and v["condition"] == condition
    # re-evaluate the witness: it must genuinely violate the condition
    st = MarkovState(x=np.array([v["state_x"]]), r=np.array([v["state_r"]]))
    t = np.array([v["t"]])
    dx, dy, dz = v["x1"] - v["x2"], v["y1"] - v["y2"], v["z1"] - v["z2"]
    if condition == "m2":
        def diff(f):
            return f(t, st, v["x1"], v["y1"], v["z1"]) - f(t, st, v["x2"], v["y2"], v["z2"])

        lhs = float(diff(bundle.sigma) * dz + diff(bundle.delta) * dy - diff(bundle.h) * dx)
        assert lhs > -bundle.monotonicity * (dx**2 + dy**2 + dz**2)
    else:
        dphi = float(bundle.phi(st, v["x1"]) - bundle.phi(st, v["x2"]))
        assert dphi * dx < 0.0


def test_cross_lipschitz_passes_with_halved_constant():
    report = check_hypothesis(get_bundle("cross_lipschitz"), _rng())
    assert report.passed
    assert get_bundle("cross_lipschitz").monotonicity == 0.5


def test_mirror_equates_flipped_and_canonical():
    mirrored = mirror_bundle(get_bundle("canonical_flipped_hp2"))
    base = get_bundle("canonical_monotone")
    st = MarkovState(x=np.array([0.3]), r=np.array([0.1]))
    t = np.array([0.5])
    for x, y, z in [(1.0, -0.7, 0.2), (-2.0, 0.4, -1.1)]:
        assert mirrored.b(t, st, x, y) == pytest.approx(base.b(t, st, x, y))
        assert mirrored.g(t, st, x, y) == pytest.approx(base.g(t, st, x, y))
        assert mirrored.delta(t, st, x, y, z) == pytest.approx(base.delta(t, st, x, y, z))
        assert mirrored.sigma(t, st, x, y, z) == pytest.approx(base.sigma(t, st, x, y, z))
        assert mirrored.h(t, st, x, y, z) == pytest.approx(base.h(t, st, x, y, z))
        assert mirrored.phi(st, x) == pytest.approx(base.phi(st, x))
    assert mirrored.orientation == "decreasing"


def test_mirrored_bundle_passes_decreasing_check():
    mirrored = mirror_bundle(get_bundle("canonical_flipped_hp2"))
    assert check_hypothesis(mirrored, _rng()).passed


def _evaluations(bundle, t, state, x, y, z):
    return [
        bundle.b(t, state, x, y),
        bundle.g(t, state, x, y),
        bundle.delta(t, state, x, y, z),
        bundle.sigma(t, state, x, y, z),
        bundle.h(t, state, x, y, z),
        bundle.phi(state, x),
    ]


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 1e6])
def test_flipped_hp2_is_the_literal_sign_flipped_bundle(c):
    # the derived bundle against the formulas written out, bit for bit
    t, state, (x, _, y, _, z, _) = _sample_cloud(_rng())
    bundle = get_bundle("canonical_flipped_hp2", c=c)
    literal = [c * y, -c * x, c * y, c * z, -c * x, -x]
    for got, want in zip(_evaluations(bundle, t, state, x, y, z), literal):
        assert got.tobytes() == want.tobytes()
    assert bundle.orientation == "increasing"
    assert (bundle.lipschitz, bundle.monotonicity) == (max(1.0, c), c)
    assert bundle.name == f"canonical_flipped_hp2(c={c:g})"


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_mirror_is_an_involution(name):
    bundle = get_bundle(name)
    once = mirror_bundle(bundle)
    twice = mirror_bundle(once)
    assert once.orientation != bundle.orientation
    assert (twice.orientation, twice.name) == (bundle.orientation, bundle.name)
    t, state, (x, _, y, _, z, _) = _sample_cloud(_rng())
    for got, want in zip(_evaluations(twice, t, state, x, y, z), _evaluations(bundle, t, state, x, y, z)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c, seed", [(256.0, 5), (1e3, 9), (1e12, 0), (1e12, 3)])
def test_monotone_bundle_passes_at_large_c(c, seed):
    # equality cases round to a few ulps of c * squares: a relative slack,
    # not an absolute one, tells them from a violation
    for name in ("canonical_monotone", "canonical_flipped_hp2"):
        report = check_hypothesis(get_bundle(name, c=c), np.random.default_rng(seed))
        assert report.passed and report.violation is None
    assert not check_hypothesis(get_bundle("flipped_b_demo", c=c), np.random.default_rng(seed)).passed


def test_continuation_endpoints():
    bundle = get_bundle("riccati_test")
    st = MarkovState(x=np.array([0.2]), r=np.array([0.0]))
    t = np.array([0.3])
    at0 = continuation_transform(bundle, 0.0)
    at1 = continuation_transform(bundle, 1.0)
    x, y, z = 1.3, -0.4, 0.9
    # alpha=0 is the solvable linear base system
    assert at0.b(t, st, x, y) == pytest.approx(-y)
    assert at0.g(t, st, x, y) == pytest.approx(x)
    assert at0.delta(t, st, x, y, z) == pytest.approx(-y)
    assert at0.sigma(t, st, x, y, z) == pytest.approx(-z)
    assert at0.h(t, st, x, y, z) == pytest.approx(x)
    assert at0.phi(st, x) == pytest.approx(x)
    # alpha=1 is the original bundle
    assert at1.b(t, st, x, y) == pytest.approx(float(bundle.b(t, st, x, y)))
    assert at1.phi(st, x) == pytest.approx(float(bundle.phi(st, x)))
    assert at0.monotonicity == pytest.approx(1.0)
    assert at1.monotonicity == pytest.approx(bundle.monotonicity)


def test_continuation_preserves_monotonicity():
    bundle = get_bundle("canonical_monotone", c=0.5)
    for alpha in (0.25, 0.6, 0.9):
        mid = continuation_transform(bundle, alpha)
        report = check_hypothesis(mid, _rng())
        assert report.passed, f"alpha={alpha}: {report.verdict}"
        assert mid.monotonicity == pytest.approx(alpha * 0.5 + (1 - alpha))


def test_continuation_rejects_bad_alpha():
    with pytest.raises(ValueError):
        continuation_transform(get_bundle("canonical_monotone"), 1.5)


def test_eta0_reference_value_and_monotonicity():
    assert eta0(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 18.0)
    assert eta0(1.0, 1.0, 1.0, 2.0, 1.0) < eta0(1.0, 1.0, 1.0, 1.0, 1.0)
    assert eta0(2.0, 1.0, 1.0, 1.0, 1.0) < eta0(1.0, 1.0, 1.0, 1.0, 1.0)
    assert eta0(1.0, 0.25, 1.0, 1.0, 1.0) <= eta0(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eta0(1.0, 0.0, 1.0, 1.0, 1.0)
