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
    "spawn_stream",
]


class InvalidParam(ValueError):
    """A problem parameter is out of range."""


class NonIntegerNStar(ValueError):
    """The recommended sample count does not round to an integer."""


class EvenInput(ValueError):
    """double_factorial requires an odd argument."""


def _check_int(name: str, value, low: int) -> int:
    """``value`` as an int. Raises :class:`InvalidParam` unless it is an int
    or a numpy integer, not a bool, and at least ``low``: the package's one
    rule for a count, a seed or a size."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidParam(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProblemParams:
    """Market parameters: per-dimension noise std, per-sample cost,
    number of agents, and dimension.

    ``n_star``, the recommended per-agent sample count, is not a constructor
    argument: it is derived whenever one is made, by ``dataclasses.replace``
    too. Making one raises :class:`InvalidParam` for an out-of-range or
    non-integral field, and :class:`NonIntegerNStar` when n* is more than
    1e-9 away from an integer >= 1 (choose the cost so that it is exact).
    """

    sigma: float
    cost: float
    agents: int
    dim: int = 1
    n_star: int = field(init=False, compare=False)

    def __post_init__(self):
        # sigma and dim before cost: cost_for_n_star derives the cost from them
        if not 0 < self.sigma < math.inf:
            raise InvalidParam(f"sigma must be positive and finite, got {self.sigma}")
        for name, low in (("agents", 2), ("dim", 1)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        if not 0 < self.cost < math.inf:
            raise InvalidParam(f"cost must be positive and finite, got {self.cost}")
        m = self.agents
        den = math.sqrt(self.cost * m) if m >= 5 else m * math.sqrt(self.cost)
        ns = self.sigma * math.sqrt(self.dim) / den
        if not ns < math.inf or abs(ns - round(ns)) > 1e-9:
            raise NonIntegerNStar(
                f"recommended sample count {ns!r} is not an integer; adjust the cost"
            )
        rounded = round(ns)
        if rounded < 1:
            raise NonIntegerNStar(f"recommended sample count rounds to {rounded} < 1")
        object.__setattr__(self, "n_star", rounded)


def cost_for_n_star(sigma: float, n_star: int, agents: int, dim: int = 1) -> float:
    """The per-sample cost at which the recommended count is exactly
    ``n_star``: the inverse of the n* formula. Raises :class:`InvalidParam`
    unless agents is an integer >= 2 and n_star and dim ones >= 1, and
    where :class:`ProblemParams` rejects that cost, for example outside
    (0, inf) in floating point."""
    agents, n_star = _check_int("agents", agents, 2), _check_int("n_star", n_star, 1)
    dim = _check_int("dim", dim, 1)
    den = n_star**2 * agents if agents >= 5 else (n_star * agents) ** 2
    return ProblemParams(sigma, sigma * sigma * dim / den, agents, dim).cost


def validate_params(p: ProblemParams) -> ProblemParams:
    """Return ``p``: a :class:`ProblemParams` is checked when it is made.
    Kept for callers written before that."""
    return p


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
        return self.scale**2 / 3.0 if self.family == "uniform_box" else self.scale**2

    def sample(self, stream: np.random.Generator, shape, shift: float = 0.0) -> np.ndarray:
        """i.i.d. points of ``shape`` (last axis ``dim``) located at ``mean + shift``.

        The points are mapped in place in the array numpy fills, and
        Rademacher signs are drawn a block of at most 8192 items at a time
        (:func:`_blocks`), so a call holds one array of ``shape`` and at most
        64 KiB more."""
        if self.family == "gaussian":
            pts = stream.standard_normal(shape)
            pts *= self.scale
        elif self.family == "uniform_box":
            pts = stream.uniform(-self.scale, self.scale, size=shape)
        else:
            pts = np.empty(shape)
            for part in _blocks(pts):
                part[...] = stream.integers(0, 2, size=part.size)
            pts *= 2.0
            pts -= 1.0
            pts *= self.scale
        pts += self.mean + shift
        return pts

    def sample_sum(self, stream: np.random.Generator, b: int, k: int) -> np.ndarray:
        """Sums, of shape (b, dim), of b i.i.d. blocks of k points located at
        ``mean``.

        Gaussian and Rademacher sums are drawn exactly, as N(k mean, k scale^2)
        and scale (2 Binomial(k, 1/2) - k) + k mean, in O(b dim) draws whatever
        k is. With k = 0 the sums are zero and nothing is drawn.

        Uniform sums have no cheap exact sampler, so they are sums of k
        standard uniforms U(0, 1), mapped once at the end by
        ``2 scale S + k (mean - scale)``: the law of a sum of k points of
        U(mean - scale, mean + scale). The sums equal those of one
        ``(k, b, dim)`` draw summed over its first axis.

        A call holds the returned ``(b, dim)`` array and at most one 64 KiB
        block besides, whatever k is: the sums are scaled and shifted in
        place, binomial counts are drawn a block at a time, and each uniform
        plane after the first is drawn into one block of scratch, a block at a
        time (:func:`_blocks`), and added in. A generator fills a block of n
        items from the next n values of its stream, so this draws what one
        call for the whole array would.
        """
        shape = (b, self.dim)
        if k == 0:
            return np.zeros(shape)
        if self.family == "gaussian":
            out = stream.standard_normal(shape)
            out *= math.sqrt(k) * self.scale
        elif self.family == "scaled_rademacher":
            out = np.empty(shape)
            for part in _blocks(out):
                part[...] = stream.binomial(k, 0.5, size=part.size)
            out *= 2.0
            out -= k
            out *= self.scale
        else:
            out = stream.random(shape)
            parts, tmp = _blocks(out), np.empty(min(out.size, _BLOCK_ITEMS))
            for _ in range(k - 1):
                for part in parts:
                    part += stream.random(out=tmp[:part.size])
            del tmp  # the shift below may take a ufunc buffer of one block
            out *= 2.0 * self.scale
            out += k * (self.mean - self.scale)
            return out
        out += k * self.mean
        return out


# items of a draw block, and of the engine's score blocks (rounds x d): a
# float64 or int64 block then takes at most 64 KiB, which stays in L2 and
# which glibc serves from the heap instead of mapping fresh memory, as it
# does above its mmap threshold (128 KiB by default)
_BLOCK_ITEMS = 8192


def _blocks(a: np.ndarray) -> list[np.ndarray]:
    """Views of the items of a C-contiguous array ``a``, in order, as 1-D
    blocks of at most ``_BLOCK_ITEMS`` items."""
    flat = a.reshape(-1)
    return [flat[i:i + _BLOCK_ITEMS] for i in range(0, flat.size, _BLOCK_ITEMS)]


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


def spawn_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator identified by a hierarchical integer path.

    Same (master_seed, path) always gives the same stream; distinct paths
    give statistically independent streams, so work units may run in any
    order or in parallel without affecting results.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))
