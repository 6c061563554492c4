import numpy as np
import pytest

from subfbsde import (
    PathEnsemble,
    SubordinatorSpec,
    TimeGrid,
    build_ensemble,
    sample_clock_ensemble,
)


def test_brownian_increments_vanish_on_frozen_steps(jump_ensemble):
    frozen = jump_ensemble.dL == 0.0
    assert frozen.any()  # the jump scenario must actually freeze sometimes
    assert np.all(jump_ensemble.dB[frozen] == 0.0)


def test_increment_variance_tracks_clock(jump_spec):
    grid = TimeGrid(a=0.0, T=1.0, n_steps=10)
    ens = build_ensemble(jump_spec, grid, n_paths=20000, seed=3)
    # E[dB^2] = E[dL] per step, 3-sigma statistical gate
    d = ens.dB**2 - ens.dL
    se = d.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
    assert np.all(np.abs(d.mean(axis=0)) <= 3.0 * se + 1e-12)


def test_path_reconstruction_and_offset(jump_spec, grid):
    ens = build_ensemble(jump_spec, grid, 30, seed=8, x0=0.5)
    X = 0.5 + np.concatenate((np.zeros((ens.n_paths, 1)), np.cumsum(ens.dB, axis=1)), axis=1)
    assert np.array_equal(ens.X, X)


def test_x0_shift(jump_spec, grid):
    a = build_ensemble(jump_spec, grid, 10, seed=5, x0=0.0)
    b = build_ensemble(jump_spec, grid, 10, seed=5, x0=2.5)
    assert np.allclose(b.X, a.X + 2.5)
    assert np.array_equal(a.dB, b.dB)


def test_markov_state_at_time_zero(jump_spec, grid):
    ens = build_ensemble(jump_spec, grid, 3, seed=9, x0=1.0)
    assert np.all(ens.X[:, 0] == 1.0)
    assert np.all(ens.R[:, 0] == 0.0)


def test_mismatched_grids_rejected(jump_spec):
    g1 = TimeGrid(0.0, 1.0, 10)
    g2 = TimeGrid(0.0, 1.0, 20)
    ens = build_ensemble(jump_spec, g1, 2, seed=1)
    L, R, dL = sample_clock_ensemble(jump_spec, g2, 2, seed=1)
    with pytest.raises(ValueError):
        PathEnsemble(grid=g1, L=L, R=R, dL=dL, X=ens.X, dB=ens.dB)
    with pytest.raises(ValueError):
        PathEnsemble(grid=g2, L=L, R=R, dL=dL, X=ens.X, dB=ens.dB)


def test_gaussian_block_drawn_from_its_own_stream(jump_spec, grid):
    # X = x0 + cumsum(sqrt(dL) * Z) with Z the (seed, n_paths, 1) normal block
    ens = build_ensemble(jump_spec, grid, 30, seed=8, x0=0.5)
    Z = np.random.default_rng([8, 30, 1]).standard_normal((30, grid.n_steps))
    assert np.array_equal(ens.dB, np.sqrt(ens.dL) * Z)
    clock = sample_clock_ensemble(jump_spec, grid, 30, seed=8)
    for name, arr in zip(("L", "R", "dL"), clock):
        assert np.array_equal(getattr(ens, name), arr)


def test_ensemble_shapes(jump_ensemble):
    m, n = jump_ensemble.n_paths, jump_ensemble.n_steps
    for name in ("L", "R", "X"):
        assert getattr(jump_ensemble, name).shape == (m, n + 1)
    for name in ("dL", "dB"):
        assert getattr(jump_ensemble, name).shape == (m, n)


def test_build_ensemble_deterministic(jump_spec, grid):
    a = build_ensemble(jump_spec, grid, 50, seed=77)
    b = build_ensemble(jump_spec, grid, 50, seed=77)
    for name in ("L", "R", "dL", "X", "dB"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_kappa_recorded():
    spec = SubordinatorSpec(kappa=3.0)
    ens = build_ensemble(spec, TimeGrid(0.0, 1.0, 5), 2, seed=0)
    assert ens.kappa == 3.0
