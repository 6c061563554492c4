import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subfbsde import (
    MAX_EXPECTED_JUMPS,
    SubordinatorSpec,
    TimeGrid,
    build_ensemble,
    sample_clock_ensemble,
    sample_jumps,
)
from subfbsde.clock import _check_jumps, _invert
from oracles import invert_clock_reference


def test_spec_validation():
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=0.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=-1.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=1.0, jump_kind="gaussian")
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=-1.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=1.0, jump_kind="pareto", rate=1.0, jump_param=1.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=1.0, jump_kind="truncated_stable", jump_param=1.5, cutoff=0.1)
    with pytest.raises(ValueError):
        SubordinatorSpec(kappa=1.0, jump_kind="truncated_stable", jump_param=0.5)
    # settings the chosen law does not read are refused, each by its field name
    ignored = [
        ("rate", {"jump_kind": "none", "rate": 5.0}),
        ("jump_param", {"jump_kind": "none", "jump_param": 3.0}),
        ("cutoff", {"jump_kind": "none", "cutoff": 0.1}),
        ("rate", {"jump_kind": "truncated_stable", "rate": 5.0, "jump_param": 0.5, "cutoff": 0.1}),
        ("cutoff", {"jump_kind": "exponential", "rate": 1.0, "jump_param": 1.0, "cutoff": 0.3}),
        ("cutoff", {"jump_kind": "fixed", "rate": 1.0, "jump_param": 1.0, "cutoff": 0.3}),
        ("cutoff", {"jump_kind": "pareto", "rate": 1.0, "jump_param": (0.3, 1.5), "cutoff": 0.3}),
    ]
    for name, settings in ignored:
        with pytest.raises(ValueError, match=f"^{name} is not read by {settings['jump_kind']}"):
            SubordinatorSpec(kappa=1.0, **settings)
    # non-finite settings are refused, each by its field name
    nan, inf = float("nan"), float("inf")
    non_finite = [
        ("kappa", {"kappa": inf}),
        ("rate", {"jump_kind": "exponential", "rate": nan, "jump_param": 1.0}),
        ("rate", {"jump_kind": "pareto", "rate": inf, "jump_param": (0.3, 1.5)}),
        ("jump_param", {"jump_kind": "exponential", "rate": 1.0, "jump_param": inf}),
        ("jump_param", {"jump_kind": "fixed", "rate": 1.0, "jump_param": inf}),
        ("jump_param", {"jump_kind": "pareto", "rate": 1.0, "jump_param": (inf, 1.5)}),
        ("jump_param", {"jump_kind": "pareto", "rate": 1.0, "jump_param": (0.3, inf)}),
        ("cutoff", {"jump_kind": "truncated_stable", "jump_param": 0.5, "cutoff": inf}),
    ]
    for name, settings in non_finite:
        with pytest.raises(ValueError, match=f"^{name} "):
            SubordinatorSpec(**{"kappa": 1.0, **settings})
    # the default rate 0 is no setting
    assert SubordinatorSpec(kappa=1.0, rate=0.0).effective_rate() == 0.0
    SubordinatorSpec(kappa=1.0, jump_kind="truncated_stable", rate=0.0, jump_param=0.5, cutoff=0.1)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(a=1.0, T=1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(a=-0.1, T=1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(a=0.0, T=1.0, n_steps=0)
    g = TimeGrid(a=0.0, T=2.0, n_steps=4)
    assert g.dt == 0.5
    assert np.array_equal(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("T, n_steps", [(1.0, 100), (0.7, 33), (3.0, 1)])
def test_grid_times_are_one_read_only_linspace(T, n_steps):
    # every row block of every solve reads the nodes: one array per grid,
    # which no caller may write
    g = TimeGrid(a=0.0, T=T, n_steps=n_steps)
    t = g.times()
    ref = np.linspace(0.0, T, n_steps + 1)
    assert t.dtype == ref.dtype and t.tobytes() == ref.tobytes()
    assert g.times() is t
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        t *= 2.0
    assert TimeGrid(a=0.0, T=T, n_steps=n_steps) == g


def test_truncated_stable_rate():
    beta, eps = 0.5, 0.1
    spec = SubordinatorSpec(kappa=1.0, jump_kind="truncated_stable", jump_param=beta, cutoff=eps)
    assert spec.effective_rate() == pytest.approx(eps ** (-beta) / math.gamma(1.0 - beta))
    sizes = spec.sample_jump_sizes(1000, np.random.default_rng(0))
    assert np.all(sizes >= eps)
    # the sizes are the Pareto(cutoff, beta) draw, bit for bit
    pareto = SubordinatorSpec(kappa=1.0, jump_kind="pareto", rate=1.0, jump_param=(eps, beta))
    assert np.array_equal(sizes, pareto.sample_jump_sizes(1000, np.random.default_rng(0)))


def test_drift_only_clock_is_time_over_kappa():
    spec = SubordinatorSpec(kappa=2.0)
    grid = TimeGrid(a=0.0, T=1.0, n_steps=10)
    L, R, _ = sample_clock_ensemble(spec, grid, 3, seed=0)
    assert L.shape == (3, 11)
    assert np.allclose(L, grid.times() / 2.0, atol=1e-15)
    assert np.allclose(R, 0.0, atol=1e-15)


def test_delayed_clock_waits_until_activation():
    spec = SubordinatorSpec(kappa=1.0)
    grid = TimeGrid(a=0.5, T=1.0, n_steps=10)
    L, R, _ = sample_clock_ensemble(spec, grid, 3, seed=0)
    t = grid.times()
    pre = t <= 0.5
    assert np.all(L[:, pre] == 0.0)
    # before activation the overshoot counts down the remaining delay
    assert np.allclose(R[:, pre], 0.5 - t[pre])
    assert np.allclose(L[:, ~pre], t[~pre] - 0.5)


@pytest.mark.parametrize(
    "spec",
    [
        SubordinatorSpec(kappa=2.0),
        # 5e-5 jumps expected over the 50 paths: the seed-3 draw has none
        SubordinatorSpec(kappa=2.0, jump_kind="exponential", rate=1e-6, jump_param=1.0),
    ],
    ids=["none", "exponential_without_a_jump"],
)
def test_jump_free_clock_is_one_shared_row(spec):
    grid = TimeGrid(a=0.3, T=1.0, n_steps=20)
    counts, times, sizes = sample_jumps(spec, grid.T / spec.kappa, 50, seed=3)
    assert times.size == 0
    per_path = _invert(spec.kappa, grid, counts, times, sizes)
    for shared, own in zip(sample_clock_ensemble(spec, grid, 50, seed=3), per_path):
        assert shared.shape == own.shape and shared.strides[0] == 0
        assert not shared.flags.writeable
        assert np.ascontiguousarray(shared).tobytes() == own.tobytes()


def test_clock_with_jumps_is_held_per_path(jump_spec, grid):
    for a in sample_clock_ensemble(jump_spec, grid, 50, seed=3):
        assert a.flags.writeable and a.strides[0] > 0


def test_hand_built_skeleton_inversion():
    # one path, kappa = 1, two unit jumps at intrinsic times 1 and 2
    grid = TimeGrid(a=0.0, T=4.0, n_steps=8)
    L, R, dL = _invert(1.0, grid, np.array([2]), np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert L.shape == (1, 9) and dL.shape == (1, 8)
    L, R = L[0], R[0]
    # S jumps over (1,2) at r=1 and over (3,4) at r=2
    expected_L = np.array([0.0, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0, 2.0, 2.0])
    assert np.allclose(L, expected_L)
    # frozen during jump intervals, overshoot positive there
    assert R[3] == pytest.approx(0.5)  # t=1.5 inside (1,2), S_L = 2
    assert R[7] == pytest.approx(0.5)  # t=3.5 inside (3,4), S_L = 4
    assert R[1] == pytest.approx(0.0)


def test_skeleton_validation():
    for times, sizes in (
        ([1.0, 2.0], [1.0]),  # unequal lengths
        ([2.0, 1.0], [1.0, 1.0]),  # decreasing
        ([1.0, 1.0], [1.0, 1.0]),  # coincident
        ([0.0, 1.0], [1.0, 1.0]),  # jump at r = 0
        ([1.0, 2.0], [1.0, 0.0]),  # zero size
    ):
        path_id = np.zeros(len(times), dtype=int)  # one path
        with pytest.raises(ValueError):
            _check_jumps(path_id, np.array(times), np.array(sizes))


def test_ensemble_reproducible(jump_spec, grid):
    a = sample_clock_ensemble(jump_spec, grid, 5, seed=42)
    b = sample_clock_ensemble(jump_spec, grid, 5, seed=42)
    for arr_a, arr_b in zip(a, b):  # L, R, dL
        assert np.array_equal(arr_a, arr_b)
    c = sample_clock_ensemble(jump_spec, grid, 5, seed=43)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a[0], c[0]))


def test_sample_jumps_layout():
    spec = SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=3.0, jump_param=0.5)
    counts, times, sizes = sample_jumps(spec, 2.0, 400, seed=4)
    assert counts.shape == (400,) and times.shape == sizes.shape == (counts.sum(),)
    path_id = np.repeat(np.arange(400), counts)
    same_path = np.diff(path_id) == 0
    assert np.all(np.diff(times)[same_path] > 0.0)
    assert not np.all(np.diff(times)[~same_path] > 0.0)  # each path starts afresh
    assert np.all((times > 0.0) & (times <= 2.0)) and np.all(sizes > 0.0)
    assert abs(counts.mean() - 6.0) < 4 * np.sqrt(6.0 / 400)
    again = sample_jumps(spec, 2.0, 400, seed=4)
    for x, y in zip((counts, times, sizes), again):
        assert np.array_equal(x, y)


_REFERENCE_SPECS = {
    "none": SubordinatorSpec(kappa=1.5),
    "exponential": SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=1.0),
    "pareto": SubordinatorSpec(kappa=2.0, jump_kind="pareto", rate=2.0, jump_param=(0.3, 1.5)),
    "fixed": SubordinatorSpec(kappa=0.7, jump_kind="fixed", rate=3.0, jump_param=0.05),
    "truncated_stable": SubordinatorSpec(
        kappa=0.5, jump_kind="truncated_stable", jump_param=0.5, cutoff=0.1
    ),
}


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("kind", sorted(_REFERENCE_SPECS))
def test_block_inversion_matches_per_path_reference(kind, a):
    spec = _REFERENCE_SPECS[kind]
    grid = TimeGrid(a=a, T=1.0, n_steps=40)
    n_paths, horizon = 300, grid.T / spec.kappa
    L_all, R_all, dL_all = sample_clock_ensemble(spec, grid, n_paths, seed=17)
    counts, times, sizes = sample_jumps(spec, horizon, n_paths, seed=17)
    assert L_all.shape == R_all.shape == (n_paths, 41) and dL_all.shape == (n_paths, 40)
    assert counts.min() == 0  # a path with no jumps
    if kind != "none":
        assert counts.max() >= 4  # and one with several
    ends = np.cumsum(counts)
    for i in range(n_paths):
        own = slice(ends[i] - counts[i], ends[i])
        L, R, dL = invert_clock_reference(spec.kappa, times[own], sizes[own], grid)
        # exactly equal, not within a tolerance
        assert np.array_equal(L_all[i], L), f"L of path {i} ({counts[i]} jumps)"
        assert np.array_equal(R_all[i], R), f"R of path {i} ({counts[i]} jumps)"
        assert np.array_equal(dL_all[i], dL), f"dL of path {i} ({counts[i]} jumps)"


def test_jump_budget_refused_before_any_draw(monkeypatch):
    spec = SubordinatorSpec(kappa=1.0, jump_kind="truncated_stable", jump_param=0.9, cutoff=1e-12)
    grid = TimeGrid(a=0.0, T=1.0, n_steps=10)
    assert spec.effective_rate() * 10 > MAX_EXPECTED_JUMPS

    def no_draws(*args, **kwargs):
        raise AssertionError("a random stream was created")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="expect .* jumps on 10 paths"):
        sample_clock_ensemble(spec, grid, 10, seed=0)
    with pytest.raises(ValueError, match="expect .* jumps on 10 paths"):
        build_ensemble(spec, grid, 10, seed=0)
    # the bound is on the whole ensemble: 1% over it with ten paths
    over = SubordinatorSpec(
        kappa=1.0, jump_kind="exponential", rate=1.01 * MAX_EXPECTED_JUMPS / 10, jump_param=1.0
    )
    with pytest.raises(ValueError, match="jumps"):
        sample_clock_ensemble(over, grid, 10, seed=0)


_spec_strategy = st.one_of(
    st.builds(
        SubordinatorSpec,
        kappa=st.floats(0.25, 4.0),
    ),
    st.builds(
        SubordinatorSpec,
        kappa=st.floats(0.25, 4.0),
        jump_kind=st.just("exponential"),
        rate=st.floats(0.0, 4.0),
        jump_param=st.floats(0.1, 3.0),
    ),
    st.builds(
        SubordinatorSpec,
        kappa=st.floats(0.25, 4.0),
        jump_kind=st.just("fixed"),
        rate=st.floats(0.0, 4.0),
        jump_param=st.floats(0.1, 3.0),
    ),
    st.builds(
        SubordinatorSpec,
        kappa=st.floats(0.25, 4.0),
        jump_kind=st.just("pareto"),
        rate=st.floats(0.0, 3.0),
        jump_param=st.tuples(st.floats(0.1, 1.0), st.floats(0.5, 3.0)),
    ),
    st.builds(
        SubordinatorSpec,
        kappa=st.floats(0.25, 4.0),
        jump_kind=st.just("truncated_stable"),
        jump_param=st.floats(0.1, 0.9),
        cutoff=st.floats(0.05, 1.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(spec=_spec_strategy, seed=st.integers(0, 2**31), a=st.floats(0.0, 0.5))
def test_clock_invariants(spec, seed, a):
    grid = TimeGrid(a=a, T=1.0, n_steps=17)
    L_all, R, dL_all = sample_clock_ensemble(spec, grid, 4, seed=seed)  # offsets of several paths
    bound = grid.dt / spec.kappa
    assert L_all.shape == R.shape == (4, 18) and dL_all.shape == (4, 17)
    assert np.all(dL_all >= 0.0)
    assert np.all(dL_all <= bound)  # exact Lipschitz bound, not within float slack
    assert np.all(np.diff(L_all, axis=1) >= 0.0)
    assert np.all(R >= 0.0)
    assert np.all(L_all[:, 0] == 0.0)
    for L, dL in zip(L_all, dL_all):
        assert np.array_equal(L, np.concatenate(([0.0], np.cumsum(dL))))
    # clock strictly slower than real time scaled by the drift
    t = grid.times()
    assert np.all(L_all <= np.maximum(t - a, 0.0) / spec.kappa + 1e-12)
