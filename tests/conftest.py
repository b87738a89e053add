import math

import numpy as np
import pytest

from crowdflow.model import GridSpec, make_grid_density, to_quantile
from crowdflow.potentials import potential_catalog


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def quad_phi():
    return potential_catalog("quadratic", q=1.0, c=0.0)


@pytest.fixture
def grid6():
    return GridSpec(-3.0, 3.0, 600)


def indicator(a, b, grid, height=1.0):
    return make_grid_density({"boxes": [(a, b, height)]}, grid)


def indicator_quantile(a, b, grid, n=100, height=1.0):
    return to_quantile(indicator(a, b, grid, height), n)


def random_density(rng, grid, n_boxes=3, max_height=1.0):
    """Random positive sum of boxes inside the middle of the grid."""
    span = grid.x_hi - grid.x_lo
    boxes = []
    for _ in range(rng.integers(1, n_boxes + 1)):
        a = rng.uniform(grid.x_lo + 0.15 * span, grid.x_hi - 0.35 * span)
        b = a + rng.uniform(0.1 * span, 0.2 * span)
        boxes.append((a, b, rng.uniform(0.2, max_height)))
    return make_grid_density({"boxes": boxes}, grid)


def excess_bound(M, m, mass=1.0):
    """The energy-budget bound ``sqrt(2 mass (M + mass/(m-1)) / m)`` on the
    mass above density one along a minimizing-movement run at ``m >= 2``
    from a start below the cap with ``M = int rho0 Phi``; derived in
    ``test_acceptance.test_criterion_02_one_step_excess_mass_bound``."""
    return math.sqrt(2.0 * mass * (M + mass / (m - 1.0)) / m)
