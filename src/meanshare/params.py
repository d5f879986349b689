"""Problem parameters, datasets, sampling, and small statistical kernels.

A dataset is a numpy array of shape (n, d): n points in d dimensions.
All stochastic operations take an explicit ``numpy.random.Generator`` so
that results are reproducible and parallel-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidParam",
    "NonIntegerNStar",
    "EvenInput",
    "ProblemParams",
    "validate_params",
    "cost_for_n_star",
    "DistributionSpec",
    "double_factorial",
    "erfcx",
    "erfcx_array",
    "spawn_stream",
]


class InvalidParam(ValueError):
    """A problem parameter is out of range."""


class NonIntegerNStar(ValueError):
    """The recommended sample count does not round to an integer."""


class EvenInput(ValueError):
    """double_factorial requires an odd argument."""


@dataclass(frozen=True)
class ProblemParams:
    """Market parameters: per-dimension noise std, per-sample cost,
    number of agents, and dimension.

    ``n_star`` is the recommended per-agent sample count. It is derived
    from the other fields by :func:`validate_params`, is not a constructor
    argument, and is 0 until validation attaches it.
    """

    sigma: float
    cost: float
    agents: int
    dim: int = 1
    n_star: int = field(default=0, init=False, compare=False)


def _n_star_real(sigma: float, cost: float, m: int, d: int) -> float:
    if m >= 5:
        return sigma * math.sqrt(d) / math.sqrt(cost * m)
    return sigma * math.sqrt(d) / (m * math.sqrt(cost))


def cost_for_n_star(sigma: float, n_star: int, agents: int, dim: int = 1) -> float:
    """The per-sample cost at which the recommended count is exactly
    ``n_star``: the inverse of the n* formula. Raises :class:`InvalidParam`
    for a sigma that is not positive and finite, fewer than 2 agents,
    dim < 1, n_star < 1, or a cost outside (0, inf) in floating point."""
    if not 0 < sigma < math.inf:
        raise InvalidParam(f"sigma must be positive and finite, got {sigma}")
    if agents < 2:
        raise InvalidParam(f"need at least 2 agents, got {agents}")
    if dim < 1:
        raise InvalidParam(f"dim must be >= 1, got {dim}")
    if n_star < 1:
        raise InvalidParam(f"n_star must be >= 1, got {n_star}")
    den = n_star**2 * agents if agents >= 5 else (n_star * agents) ** 2
    try:
        cost = sigma**2 * dim / den
    except OverflowError:  # sigma**2 beyond the float range
        cost = math.inf
    if not 0 < cost < math.inf:
        raise InvalidParam(f"the cost that gives n_star={n_star} at sigma={sigma} is {cost}, "
                           "outside the floating-point range")
    return cost


def validate_params(p: ProblemParams) -> ProblemParams:
    """Check ranges and attach the integer recommended sample count.

    Idempotent. Raises :class:`NonIntegerNStar` when the derived count is
    more than 1e-9 away from an integer (choose the cost so that it is
    exact), and :class:`InvalidParam` for out-of-range fields.
    """
    if not 0 < p.sigma < math.inf:
        raise InvalidParam(f"sigma must be positive and finite, got {p.sigma}")
    if not 0 < p.cost < math.inf:
        raise InvalidParam(f"cost must be positive and finite, got {p.cost}")
    if p.agents < 2:
        raise InvalidParam(f"need at least 2 agents, got {p.agents}")
    if p.dim < 1:
        raise InvalidParam(f"dim must be >= 1, got {p.dim}")

    ns = _n_star_real(p.sigma, p.cost, p.agents, p.dim)
    rounded = round(ns)
    if abs(ns - rounded) > 1e-9:
        raise NonIntegerNStar(
            f"recommended sample count {ns!r} is not an integer; adjust the cost"
        )
    if rounded < 1:
        raise NonIntegerNStar(f"recommended sample count rounds to {rounded} < 1")
    out = ProblemParams(p.sigma, p.cost, p.agents, p.dim)
    object.__setattr__(out, "n_star", int(rounded))
    return out


@dataclass(frozen=True)
class DistributionSpec:
    """Data-generating distribution with per-dimension variance <= var_cap.

    family: "gaussian" (std ``scale``), "uniform_box" (half-width ``scale``,
    variance scale^2/3), or "scaled_rademacher" (+-scale, variance scale^2).
    ``mean`` is the d-dimensional location.
    """

    family: str
    mean: np.ndarray
    scale: float
    var_cap: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        if self.family not in ("gaussian", "uniform_box", "scaled_rademacher"):
            raise InvalidParam(f"unknown family {self.family!r}")
        if self.mean.ndim != 1 or not np.isfinite(self.mean).all():
            raise InvalidParam(f"mean must be a finite 1-D vector, got {self.mean!r}")
        if not self.scale >= 0:
            raise InvalidParam(f"scale must be nonnegative, got {self.scale}")
        if self.per_dim_variance > self.var_cap + 1e-12:
            raise InvalidParam(
                f"per-dimension variance {self.per_dim_variance} exceeds cap {self.var_cap}"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def per_dim_variance(self) -> float:
        if self.family == "gaussian":
            return self.scale**2
        if self.family == "uniform_box":
            return self.scale**2 / 3.0
        return self.scale**2

    def sample(self, stream: np.random.Generator, shape, shift: float = 0.0) -> np.ndarray:
        """i.i.d. points of ``shape`` (last axis ``dim``) located at ``mean + shift``."""
        if self.family == "gaussian":
            pts = stream.standard_normal(shape) * self.scale
        elif self.family == "uniform_box":
            pts = stream.uniform(-self.scale, self.scale, size=shape)
        else:
            pts = self.scale * (2.0 * stream.integers(0, 2, size=shape) - 1.0)
        pts += self.mean + shift
        return pts

    def sample_sum(self, stream: np.random.Generator, b: int, k: int,
                   shift: float = 0.0) -> np.ndarray:
        """Sums, of shape (b, dim), of b i.i.d. blocks of k points located at
        ``mean + shift``.

        Gaussian and Rademacher sums are drawn exactly, as N(k loc, k scale^2)
        and scale (2 Binomial(k, 1/2) - k) + k loc, in O(b dim) draws whatever
        k is. With k = 0 the sums are zero and nothing is drawn.

        Uniform sums have no cheap exact sampler, so they are sums of k
        standard uniforms U(0, 1), mapped once at the end by
        ``2 scale S + k (loc - scale)``: the law of a sum of k points of
        U(loc - scale, loc + scale). The k ``(b, dim)`` planes of uniforms are
        drawn in turn into one scratch array and added into the result, so a
        call holds two ``(b, dim)`` arrays whatever k is, and the sums equal
        those of one ``(k, b, dim)`` draw summed over its first axis.
        """
        shape = (b, self.dim)
        if k == 0:
            return np.zeros(shape)
        loc = self.mean + shift
        if self.family == "gaussian":
            return math.sqrt(k) * self.scale * stream.standard_normal(shape) + k * loc
        if self.family == "scaled_rademacher":
            return self.scale * (2.0 * stream.binomial(k, 0.5, size=shape) - k) + k * loc
        out, tmp = stream.random(shape), np.empty(shape)
        for _ in range(k - 1):
            out += stream.random(out=tmp)
        out *= 2.0 * self.scale
        out += k * (loc - self.scale)
        return out


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1 (empty product convention: (-1)!! = 1)."""
    if k == -1:
        return 1
    if k < 0 or k % 2 == 0:
        raise EvenInput(f"double_factorial needs an odd k >= -1, got {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


# below this z, e^{z^2} erfc(z) is taken from math; from it on, by the
# continued fraction, whose 12 terms are exact to rounding there
_ERFCX_CF_FROM = 8.0
_INV_SQRT_PI = 1 / math.sqrt(math.pi)


def erfcx(z: float) -> float:
    """The scaled complementary error function e^{z^2} erfc(z) of a float.

    Below z = 8 it is ``math.exp(z*z) * math.erfc(z)``; from 8 on, where the
    exponential would overflow at z above about 26.6, a 12-term Laplace
    continued fraction. Against 40-digit arithmetic the relative error is
    below 4e-15 on [0, 8) (it grows with z^2, from rounding z*z) and below
    5e-16 on [8, 1e4]. For z below about -26.6 the value is beyond the
    float range and ``math.exp`` raises ``OverflowError``.
    """
    if z < _ERFCX_CF_FROM:
        return math.exp(z * z) * math.erfc(z)
    # Laplace's continued fraction for erfc:
    # 1/(sqrt(pi) (z + (1/2)/(z + 1/(z + (3/2)/(z + ...)))))
    t = z
    for k in range(12, 0, -1):
        t = z + 0.5 * k / t
    return _INV_SQRT_PI / t


def erfcx_array(z: np.ndarray) -> np.ndarray:
    """:func:`erfcx` mapped over the entries of a float array, so that each
    entry equals the scalar form bit for bit."""
    z = np.asarray(z, float)
    return np.fromiter(map(erfcx, z.ravel().tolist()), float, z.size).reshape(z.shape)


def spawn_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator identified by a hierarchical integer path.

    Same (master_seed, path) always gives the same stream; distinct paths
    give statistically independent streams, so work units may run in any
    order or in parallel without affecting results.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))
