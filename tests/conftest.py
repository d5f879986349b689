import numpy as np
import pytest

from meanshare.alphasolve import solve_alpha
from meanshare.params import (
    DistributionSpec,
    InvalidParam,
    ProblemParams,
    cost_for_n_star,
)


@pytest.fixture(scope="session")
def canonical():
    """sigma=1, c=1/900, m=9: recommended sample count 10."""
    return ProblemParams(1.0, 1.0 / 900.0, 9, 1)


@pytest.fixture(scope="session")
def canonical_alpha(canonical):
    return solve_alpha(canonical).alpha


@pytest.fixture(scope="session")
def gaussian_1d():
    return DistributionSpec("gaussian", np.zeros(1), 1.0, 1.0)


def params_for(m: int, n_star: int = 10, sigma: float = 1.0, dim: int = 1) -> ProblemParams:
    """Cost chosen so the recommended count is exactly n_star."""
    return ProblemParams(sigma, cost_for_n_star(sigma, n_star, m, dim), m, dim)


def sample_dataset(spec: DistributionSpec, n: int, stream: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. points from spec; returns array of shape (n, dim)."""
    if n < 0:
        raise InvalidParam("n must be nonnegative")
    return spec.sample(stream, (n, spec.dim))


def as_dataset(points, dim: int | None = None) -> np.ndarray:
    """Coerce a point list / 1-d array to dataset shape (n, d)."""
    a = np.asarray(points, float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if dim is not None and a.size and a.shape[1] != dim:
        raise InvalidParam(f"expected dimension {dim}, got {a.shape[1]}")
    return a
