"""The row-block executor: a solve's results are the same bits whether or not
the helper thread runs, the first failure in block order is the one raised,
the helper runs under the caller's numpy error state, and no thread outlives
a call."""

import sys
import threading

import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    ContinuationConfig,
    ForcingSet,
    RegressionPlan,
    SolutionTriple,
    TimeGrid,
    apriori_ratio,
    build_ensemble,
    get_bundle,
    m_norm,
    solve_fbsde,
    solve_linear,
)
from subfbsde import regression
from subfbsde.regression import _map_blocks

M = 1537  # 512-row blocks with a ragged tail, and plan blocks ragged at the cross-fit split


@pytest.fixture(scope="module", params=["drift", "jump"])
def ensemble(request, drift_spec, jump_spec):
    spec = drift_spec if request.param == "drift" else jump_spec
    return build_ensemble(spec, TimeGrid(a=0.0, T=1.0, n_steps=12), n_paths=M, seed=31, x0=0.5)


def _helper(monkeypatch, on: bool) -> None:
    """Run the helper thread whatever the grid and the CPU count (on), or never."""
    monkeypatch.setattr(regression, "_helper_pays", lambda n_steps: on)


def _forcings(ens):
    m, n = ens.n_paths, ens.n_steps
    rng = np.random.default_rng(8)
    f = ForcingSet.constant(m, n, b0=0.3, g0=-0.2)
    f.h0 += np.sin(ens.X) + 0.3 * ens.R
    f.sigma0 += 0.5 + 0.1 * rng.standard_normal((m, n + 1))
    f.phi0 = ens.X[:, -1] ** 2
    return f


def _both(monkeypatch, compute):
    out = []
    for on in (False, True):
        _helper(monkeypatch, on)
        out.append(compute())
    return out


def _assert_same_triples(a, b):
    for name in ("x", "y", "z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_solve_linear_is_bit_identical_with_the_helper(monkeypatch, ensemble):
    plan = RegressionPlan(ensemble, BasisSpec())
    f = _forcings(ensemble)
    serial, threaded = _both(monkeypatch, lambda: solve_linear(f.rows, 0.7, plan))
    _assert_same_triples(serial, threaded)


def test_plan_build_and_fit_are_bit_identical_with_the_helper(monkeypatch, ensemble):
    rng = np.random.default_rng(3)
    xi, numerator = rng.standard_normal(M), rng.standard_normal((M, ensemble.n_steps - 1))

    def build_and_fit():
        plan = RegressionPlan(ensemble, BasisSpec())
        return plan, plan.fit(lambda rows: xi[rows], lambda rows: numerator[rows])

    (p0, fits0), (p1, fits1) = _both(monkeypatch, build_and_fit)
    assert np.array_equal(p0._grams, p1._grams)
    assert np.array_equal(p0._den, p1._den)
    assert np.array_equal(fits0, fits1)


def test_nested_solve_is_bit_identical_with_the_helper(monkeypatch, ensemble):
    # flat Picard stalls on riccati_test(3) at its fifth or sixth residual
    # on these ensembles, so the ladder runs too
    bundle = get_bundle("riccati_test", c=3.0)
    config = ContinuationConfig(eta=0.5)
    (t0, d0), (t1, d1) = _both(monkeypatch, lambda: solve_fbsde(bundle, 1.0, ensemble, config))
    assert d0.levels[0].eta == 1.0 and not d0.levels[0].converged and len(d0.levels) > 1
    _assert_same_triples(t0, t1)
    assert d0 == d1


def test_m_norm_and_apriori_are_bit_identical_with_the_helper(monkeypatch, ensemble):
    rng = np.random.default_rng(5)
    shape = ensemble.X.shape
    a, b = (SolutionTriple(*rng.standard_normal((3, *shape)), ensemble.grid.dt, ensemble.dL)
            for _ in range(2))
    f = _forcings(ensemble)
    serial, threaded = _both(
        monkeypatch, lambda: (m_norm(a), m_norm(a, b), apriori_ratio(a, f.rows, 0.7))
    )
    assert serial == threaded


def test_first_failure_in_block_order_is_raised(monkeypatch, ensemble):
    # block 2 fails first in time: block 0 waits for it, then fails too.
    # The serial loop would have raised block 0's error, so that one is
    # raised, and no block starts after the failures.
    _helper(monkeypatch, True)
    plan = RegressionPlan(ensemble, BasisSpec())
    f = _forcings(ensemble)
    block_2_failed = threading.Event()
    calls = []

    def forcings(rows):
        calls.append(rows.start)
        if rows.start == 0:
            assert block_2_failed.wait(timeout=30)
            raise ValueError("block 0")
        if rows.start == 1024:
            block_2_failed.set()
            raise ValueError("block 2")
        return f.rows(rows)

    with pytest.raises(ValueError, match="^block 0$"):
        solve_linear(forcings, 0.7, plan)
    assert sorted(calls) == [0, 512, 1024]


def test_helper_runs_under_the_callers_error_state(monkeypatch):
    # the helper overflows while the caller holds the other item: under
    # over="raise" that is a FloatingPointError, as it would be serially
    _helper(monkeypatch, True)
    helper_ran = threading.Event()

    def fn(i):
        if threading.current_thread() is threading.main_thread():
            assert helper_ran.wait(timeout=30)
            return i
        helper_ran.set()
        return np.float64(1e308) * 10.0

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            _map_blocks(fn, range(2), regression._HELPER_MIN_STEPS)


def test_overflow_in_a_solve_raises_under_the_callers_error_state(monkeypatch, ensemble):
    # the solve runs under its own error state, on both threads, whatever the
    # caller's: an overflow is its named failure, not numpy's
    _helper(monkeypatch, True)
    plan = RegressionPlan(ensemble, BasisSpec())
    f = ForcingSet.constant(ensemble.n_paths, ensemble.n_steps, sigma0=1e308)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="^linear solve produced non-finite values$"):
            solve_linear(f.rows, 0.0, plan)


def test_no_thread_outlives_a_solve(monkeypatch, ensemble):
    _helper(monkeypatch, True)
    before = threading.active_count()
    solve_fbsde(get_bundle("canonical_monotone", c=0.5), 1.0, ensemble)
    assert threading.active_count() == before
    bad = ForcingSet.constant(ensemble.n_paths, ensemble.n_steps, b0=np.nan)
    with pytest.raises(ValueError):
        solve_linear(bad.rows, 0.0, RegressionPlan(ensemble, BasisSpec()))
    assert threading.active_count() == before


def test_interrupt_in_the_caller_propagates_after_the_helper_is_joined(monkeypatch):
    _helper(monkeypatch, True)
    before = threading.active_count()
    interrupted = threading.Event()

    def fn(i):
        if threading.current_thread() is threading.main_thread():
            interrupted.set()
            raise KeyboardInterrupt
        assert interrupted.wait(timeout=30)  # the helper is still busy meanwhile
        return i

    with pytest.raises(KeyboardInterrupt):
        _map_blocks(fn, range(4), regression._HELPER_MIN_STEPS)
    assert threading.active_count() == before


def test_results_come_back_in_item_order(monkeypatch):
    _helper(monkeypatch, True)
    items = list(range(23))
    assert _map_blocks(lambda i: i * i, iter(items), regression._HELPER_MIN_STEPS) == [
        i * i for i in items
    ]
    assert _map_blocks(lambda i: i, [], regression._HELPER_MIN_STEPS) == []


def test_every_item_runs_once_under_rapid_thread_switches(monkeypatch):
    # a lost or doubled hand-out of an item would break the call count or
    # the order of the results
    _helper(monkeypatch, True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls = []
            out = _map_blocks(lambda i: calls.append(i) or -i, range(2000), 100)
            assert out == [-i for i in range(2000)]
            assert sorted(calls) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)
