import numpy as np
import pytest

from subfbsde import (
    BasisSpec,
    RegressionPlan,
    SolutionTriple,
    SubordinatorSpec,
    TimeGrid,
    build_ensemble,
)


@pytest.fixture(scope="session")
def drift_spec():
    return SubordinatorSpec(kappa=1.0)


@pytest.fixture(scope="session")
def jump_spec():
    return SubordinatorSpec(kappa=1.0, jump_kind="exponential", rate=1.0, jump_param=1.0)


@pytest.fixture(scope="session")
def grid():
    return TimeGrid(a=0.0, T=1.0, n_steps=50)


@pytest.fixture(scope="session")
def drift_ensemble(drift_spec, grid):
    return build_ensemble(drift_spec, grid, n_paths=400, seed=11, x0=0.0)


@pytest.fixture(scope="session")
def jump_ensemble(jump_spec, grid):
    return build_ensemble(jump_spec, grid, n_paths=400, seed=12, x0=0.0)


@pytest.fixture(scope="session")
def drift_plan(drift_ensemble):
    return RegressionPlan(drift_ensemble, BasisSpec())


@pytest.fixture(scope="session")
def jump_plan(jump_ensemble):
    return RegressionPlan(jump_ensemble, BasisSpec())


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_triple(ensemble):
    """A writable all-zero solution triple on the ensemble's grid (a solve
    seeds itself with a read-only one)."""
    shape = ensemble.X.shape
    zeros = [np.zeros(shape) for _ in range(3)]
    return SolutionTriple(*zeros, dt=ensemble.grid.dt, dL=ensemble.dL)
