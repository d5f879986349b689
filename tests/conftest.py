import numpy as np
import pytest

from meanshare.alphasolve import solve_alpha
from meanshare.params import DistributionSpec, ProblemParams, cost_for_n_star, validate_params


@pytest.fixture(scope="session")
def canonical():
    """sigma=1, c=1/900, m=9: recommended sample count 10."""
    return validate_params(ProblemParams(1.0, 1.0 / 900.0, 9, 1))


@pytest.fixture(scope="session")
def canonical_alpha(canonical):
    return solve_alpha(canonical).alpha


@pytest.fixture(scope="session")
def gaussian_1d():
    return DistributionSpec("gaussian", np.zeros(1), 1.0, 1.0)


def params_for(m: int, n_star: int = 10, sigma: float = 1.0, dim: int = 1) -> ProblemParams:
    """Cost chosen so the recommended count is exactly n_star."""
    return validate_params(ProblemParams(sigma, cost_for_n_star(sigma, n_star, m, dim), m, dim))
