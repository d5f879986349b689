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


def _affine(rule, n: int, p: ProblemParams) -> tuple[int, float, float]:
    """Every submission rule but fabrication as ``(k, gain, shift)``: of n
    collected points, the rule submits the first k, each mapped to ``gain x +
    shift``. Raises unless a subset keeps 0 <= k <= n, and :class:`TypeError`
    for fabrication, which draws what it submits, and for an unknown rule."""
    if isinstance(rule, Identity):
        return n, 1.0, 0.0
    if isinstance(rule, Scale):
        return n, rule.gamma, 0.0
    if isinstance(rule, Shift):
        return n, 1.0, rule.delta
    if isinstance(rule, SubmitConstant):
        return n, 0.0, rule.v
    if isinstance(rule, Subset):
        if rule.k < 0:
            raise InvalidParam(f"subset size must be >= 0, got {rule.k}")
        if rule.k > n:
            raise SubsetTooLarge(f"subset size {rule.k} exceeds collected {n}")
        return rule.k, 1.0, 0.0
    if isinstance(rule, Empty):
        return 0, 1.0, 0.0
    if isinstance(rule, ShrinkEll):
        return n, (1.0 / (1.0 + p.sigma**2 / (n * rule.ell**2)) if n else 1.0), 0.0
    raise TypeError(f"unknown submission rule {rule!r}")


def apply_submission(rule, X: np.ndarray, p: ProblemParams, stream=None) -> np.ndarray:
    """Produce the submitted dataset Y = f(X).

    X has shape (..., n, d): leading axes are batch axes, and the rule acts
    on the points along axis -2 of each batch entry. Fabrication draws its
    points from ``stream``; every other rule is the map of :func:`_affine`,
    so Identity returns X itself.
    """
    n, d = X.shape[-2:]
    if isinstance(rule, FabricateFitGaussian):
        if n == 0:
            raise EmptyInput("cannot fit a Gaussian to an empty sample")
        mu = X.mean(axis=-2, keepdims=True)
        sd = X.std(axis=-2, keepdims=True)
        return mu + sd * stream.standard_normal((*X.shape[:-2], rule.n_fake, d))
    k, gain, shift = _affine(rule, n, p)
    Y = X[..., :k, :] if k < n else X
    if gain != 1:
        Y = Y * gain
    if shift:
        Y = Y + shift
    return Y


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
        den = n_all_clean / s2 + n_corr * prec_corr
        if extra_prec:  # adding a zero prior would cost one more (b, d) pass
            den += extra_prec
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
