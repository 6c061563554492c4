import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subfbsde import BasisSpec, SingularSliceError
from subfbsde.regression import extract_z, fit_condexp, polynomial_features


def test_polynomial_feature_layout():
    F = np.array([[2.0, 3.0]])
    A = polynomial_features(F, 2)
    # 1, x, r, x^2, x r, r^2
    assert A.shape == (1, 6)
    assert np.allclose(A[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    assert polynomial_features(F, 0).shape == (1, 1)
    assert polynomial_features(np.ones((5, 3)), 2).shape == (5, 10)


def test_one_dimensional_features_are_one_column():
    x = np.linspace(-1.0, 1.0, 50)
    basis = BasisSpec(include_r=False, ridge=0.0)
    assert np.array_equal(polynomial_features(x, 2), polynomial_features(x[:, None], 2))
    est = fit_condexp(x, x**2, basis)
    ref = fit_condexp(x[:, None], x**2, basis)
    assert np.array_equal(est, ref)
    assert np.allclose(ref, [0.0, 0.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(4)
    dL = rng.random(50)
    dB = np.sqrt(dL) * rng.standard_normal(50)
    y_next = x + dB
    assert np.array_equal(
        extract_z(y_next * dB, dL, x, basis, floor=1e-14),
        extract_z(y_next * dB, dL, x[:, None], basis, floor=1e-14),
    )


def test_basis_validation():
    with pytest.raises(ValueError):
        BasisSpec(degree=-1)
    with pytest.raises(ValueError):
        BasisSpec(ridge=-1.0)
    for ridge in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^ridge must be finite"):
            BasisSpec(ridge=ridge)
    assert BasisSpec().effective_ridge(1000) == pytest.approx(1e-7)
    assert BasisSpec(ridge=0.5).effective_ridge(1000) == 0.5


def test_fit_recovers_polynomial_exactly():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((500, 2))
    y = 2.0 + 3.0 * F[:, 0] - F[:, 1] + 0.5 * F[:, 0] * F[:, 1]
    coef = fit_condexp(F, y, BasisSpec(degree=2, ridge=0.0))
    assert np.allclose(polynomial_features(F, 2) @ coef, y, atol=1e-9)


def test_fit_is_conditional_mean_of_noisy_target():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((20000, 1))
    y = F[:, 0] ** 2 + rng.standard_normal(20000)
    coef = fit_condexp(F, y, BasisSpec(degree=2, ridge=0.0))
    probe = np.array([[0.0], [1.0], [-1.5]])
    assert np.allclose(polynomial_features(probe, 2) @ coef, [0.0, 1.0, 2.25], atol=0.05)


def test_singular_design_raises_without_ridge():
    F = np.ones((50, 2))  # intercept collides with both columns
    with pytest.raises(SingularSliceError) as err:
        fit_condexp(F, np.ones(50), BasisSpec(degree=1, ridge=0.0), slice_index=7)
    assert err.value.slice_index == 7


def test_ridge_rescues_singular_design():
    F = np.ones((50, 2))
    coef = fit_condexp(F, np.full(50, 3.0), BasisSpec(degree=1))
    assert np.allclose(polynomial_features(F, 1) @ coef, 3.0, atol=1e-6)


def test_too_few_paths():
    with pytest.raises(ValueError):
        fit_condexp(np.ones((3, 2)), np.ones(3), BasisSpec(degree=2))


def test_extract_z_recovers_integrand():
    rng = np.random.default_rng(3)
    m = 40000
    x = rng.standard_normal(m)
    dL = np.full(m, 0.01)
    dB = np.sqrt(dL) * rng.standard_normal(m)
    z_true = 1.0 + 0.5 * x
    y_next = z_true * dB + 0.05 * rng.standard_normal(m)
    z = extract_z(y_next * dB, dL, x[:, None], BasisSpec(degree=2), floor=1e-14)
    err = np.abs(z - z_true)
    assert np.sqrt(np.mean(err**2)) <= 0.1
    bulk = np.abs(x) <= 2.0  # fit degrades only in the extrapolation tails
    assert np.max(err[bulk]) <= 0.25


def test_extract_z_frozen_slice_and_floor():
    m = 100
    zeros = np.zeros(m)
    z = extract_z(np.ones(m) * zeros, zeros, np.ones((m, 1)), BasisSpec(), floor=1e-14)
    assert np.array_equal(z, zeros)
    # predicted clock activity below the floor must zero z, not blow it up
    tiny = np.full(m, 1e-20)
    rng = np.random.default_rng(4)
    z2 = extract_z(
        rng.standard_normal(m) * (rng.standard_normal(m) * 1e-10), tiny,
        rng.standard_normal((m, 1)), BasisSpec(degree=1), floor=1e-12,
    )
    assert np.array_equal(z2, zeros)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), const=st.floats(-5.0, 5.0))
def test_constant_targets_predicted_exactly(seed, const):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((100, 2))
    coef = fit_condexp(F, np.full(100, const), BasisSpec(degree=2, ridge=0.0))
    assert np.allclose(polynomial_features(F, 2) @ coef, const, atol=1e-8)
