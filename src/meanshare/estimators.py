"""Submission rules and mean estimators.

Submission rules map an agent's collected dataset to the dataset actually
handed to the mechanism. Estimators map the agent's own data plus the
mechanism allocation to a point estimate of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanisms import Allocation
from .params import InvalidParam, ProblemParams

__all__ = [
    "SubsetTooLarge",
    "EmptyInput",
    "DimensionMismatch",
    "Identity",
    "Scale",
    "Shift",
    "SubmitConstant",
    "Subset",
    "FabricateFitGaussian",
    "Empty",
    "ShrinkEll",
    "apply_submission",
    "PlainMeanAll",
    "RecommendedWeighted",
    "FixedWeighted",
    "CleanOnlyMean",
    "PosteriorMean",
    "estimate",
]


class SubsetTooLarge(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# submission rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Scale:
    gamma: float


@dataclass(frozen=True)
class Shift:
    delta: float


@dataclass(frozen=True)
class SubmitConstant:
    """Submit |X| copies of the constant vector v (broadcast per dim)."""

    v: float


@dataclass(frozen=True)
class Subset:
    """Keep the first k collected points (deterministic prefix)."""

    k: int


@dataclass(frozen=True)
class FabricateFitGaussian:
    """Fit a Gaussian to the collected points and submit n_fake fresh draws."""

    n_fake: int


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class ShrinkEll:
    """Shrink every point by (1 + sigma^2/(|X| ell^2))^{-1}: the Bayes-optimal
    submission under a centered Gaussian prior with variance ell^2."""

    ell: float


def _shrink_factor(n: int, sigma: float, ell: float) -> float:
    return 1.0 / (1.0 + sigma**2 / (n * ell**2))


def _kept(rule: Subset, n: int) -> int:
    """The k points a subset of n collected points keeps; raises unless 0 <= k <= n."""
    if rule.k < 0:
        raise InvalidParam(f"subset size must be >= 0, got {rule.k}")
    if rule.k > n:
        raise SubsetTooLarge(f"subset size {rule.k} exceeds collected {n}")
    return rule.k


def apply_submission(rule, X: np.ndarray, p: ProblemParams, stream=None) -> np.ndarray:
    """Produce the submitted dataset Y = f(X).

    X has shape (..., n, d): leading axes are batch axes, and the rule acts
    on the points along axis -2 of each batch entry. Only fabrication draws
    from ``stream``.
    """
    n, d = X.shape[-2:]
    if isinstance(rule, Identity):
        return X
    if isinstance(rule, Scale):
        return X * rule.gamma
    if isinstance(rule, Shift):
        return X + rule.delta
    if isinstance(rule, SubmitConstant):
        return np.full_like(X, rule.v)
    if isinstance(rule, Subset):
        return X[..., : _kept(rule, n), :]
    if isinstance(rule, FabricateFitGaussian):
        if n == 0:
            raise EmptyInput("cannot fit a Gaussian to an empty sample")
        mu = X.mean(axis=-2, keepdims=True)
        sd = X.std(axis=-2, keepdims=True)
        return mu + sd * stream.standard_normal((*X.shape[:-2], rule.n_fake, d))
    if isinstance(rule, Empty):
        return X[..., :0, :]
    if isinstance(rule, ShrinkEll):
        if n == 0:
            return X
        return X * _shrink_factor(n, p.sigma, rule.ell)
    raise TypeError(f"unknown submission rule {rule!r}")


def _submitted_sum(rule, n: int, p: ProblemParams, block_sum):
    """:func:`apply_submission` read through block sums, for every rule but
    fabrication, which reads more than a sum.

    ``block_sum(k)`` returns the sums, shape (b, d), of the next k of the n
    collected points. Returns ``(sum_x, sum_y, n_y)``: the sum of the
    collected points, the sum of the submitted points and their count.
    Subset reads two blocks, its k kept points and the other n - k; every
    other rule reads one block of n points.
    """
    if isinstance(rule, Subset):
        k = _kept(rule, n)
        head = block_sum(k)
        return head + block_sum(n - k), head, k
    sum_x = block_sum(n)
    if isinstance(rule, Identity):
        return sum_x, sum_x, n
    if isinstance(rule, Scale):
        return sum_x, sum_x * rule.gamma, n
    if isinstance(rule, Shift):
        return sum_x, sum_x + n * rule.delta, n
    if isinstance(rule, SubmitConstant):
        return sum_x, np.full_like(sum_x, n * rule.v), n
    if isinstance(rule, Empty):
        return sum_x, np.zeros_like(sum_x), 0
    if isinstance(rule, ShrinkEll):
        return sum_x, (sum_x * _shrink_factor(n, p.sigma, rule.ell) if n else sum_x), n
    raise TypeError(f"no block-sum form for submission rule {rule!r}")


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlainMeanAll:
    pass


@dataclass(frozen=True)
class RecommendedWeighted:
    """Inverse-variance weighted average: clean points at weight 1/sigma^2,
    corrupted points at weight 1/(sigma^2 + eta^2) per dimension."""


@dataclass(frozen=True)
class FixedWeighted:
    """Weighted average with a deterministic corrupted-data variance tau^2
    in place of the allocation's eta^2 (used in the bounded-variance,
    high-dimensional setting)."""

    tau_sq: float


@dataclass(frozen=True)
class CleanOnlyMean:
    pass


@dataclass(frozen=True)
class PosteriorMean:
    """Posterior mean under a centered Gaussian prior with variance ell^2."""

    ell: float


def _block_weights(choice, n_x: int, n_clean: int, n_corr: int, eta_sq, sigma: float):
    """Weights ``(w_x, w_clean, w_corr)`` with which ``choice`` reads the sums
    of the agent's own data, the clean allocation and the corrupted
    allocation: every estimator is ``w_x sum_x + w_clean sum_clean +
    w_corr sum_corr``.

    Weights are scalars or broadcast against ``eta_sq``, which may be +inf.
    A block the estimator ignores, or whose variance is infinite, gets a
    weight of exactly 0. Raises :class:`EmptyInput` when no data has
    positive weight.
    """
    n_all_clean = n_x + n_clean
    if isinstance(choice, (RecommendedWeighted, FixedWeighted, PosteriorMean)):
        # inverse-variance weights: 1/sigma^2 per clean point, 1/(sigma^2 +
        # eta^2) per corrupted point (0 when eta^2 is infinite), plus the prior
        s2 = sigma**2
        corr_var = choice.tau_sq if isinstance(choice, FixedWeighted) else eta_sq
        extra_prec = 1.0 / choice.ell**2 if isinstance(choice, PosteriorMean) else 0.0
        prec_corr = 1.0 / (s2 + corr_var)
        den = n_all_clean / s2 + n_corr * prec_corr + extra_prec
        # clean data or a prior keep every entry of den positive
        if not (n_all_clean or extra_prec) and np.any(den == 0):
            raise EmptyInput("no data with positive weight")
        w = 1.0 / (s2 * den)
        return w, w, prec_corr / den
    if isinstance(choice, PlainMeanAll):
        if n_all_clean + n_corr == 0:
            raise EmptyInput("nothing to average")
        w = 1.0 / (n_all_clean + n_corr)
        return w, w, w
    if isinstance(choice, CleanOnlyMean):
        if n_all_clean == 0:
            raise EmptyInput("nothing to average")
        return 1.0 / n_all_clean, 1.0 / n_all_clean, 0.0
    raise TypeError(f"unknown estimator {choice!r}")


def estimate(choice, X: np.ndarray, alloc: Allocation, sigma: float) -> np.ndarray:
    """Point estimate of the mean, shape (..., d), from own data X and
    allocation alloc, whose datasets have shape (..., n, d).

    No estimator reads the agent's submission, only what it collected. A
    corrupted block with infinite eta^2 gets weight zero and its sum, which
    may then be non-finite, is ignored. Raises :class:`EmptyInput` when no
    data has positive weight in some round, and :class:`DimensionMismatch`
    when the nonempty blocks or eta^2 disagree on the dimension.
    """
    blocks = (X, alloc.clean, alloc.corrupted)
    dims = {alloc.eta_sq.shape[-1], *(a.shape[-1] for a in blocks if a.shape[-2])}
    if len(dims) > 1:
        raise DimensionMismatch("X and allocation dimensions differ")
    w_x, w_clean, w_corr = _block_weights(choice, *(a.shape[-2] for a in blocks),
                                          alloc.eta_sq, sigma)
    with np.errstate(invalid="ignore"):
        corr = np.where(w_corr == 0, 0.0, w_corr * alloc.corrupted.sum(axis=-2))
    return w_x * X.sum(axis=-2) + w_clean * alloc.clean.sum(axis=-2) + corr
