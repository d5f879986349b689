"""Submission rules and mean estimators.

Submission rules map an agent's collected dataset to the dataset actually
handed to the mechanism. Estimators map the agent's own data plus the
mechanism allocation to a point estimate of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanisms import Allocation
from .params import ProblemParams

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
    "OwnDataOnlyMean",
    "PosteriorMean",
    "estimate",
    "estimate_from_sums",
    "shrink_factor",
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


def shrink_factor(n: int, sigma: float, ell: float) -> float:
    return 1.0 / (1.0 + sigma**2 / (n * ell**2))


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
        if rule.k > n:
            raise SubsetTooLarge(f"subset size {rule.k} exceeds collected {n}")
        return X[..., : rule.k, :]
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
        return X * shrink_factor(n, p.sigma, rule.ell)
    raise TypeError(f"unknown submission rule {rule!r}")


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
class OwnDataOnlyMean:
    pass


@dataclass(frozen=True)
class PosteriorMean:
    """Posterior mean under a centered Gaussian prior with variance ell^2."""

    ell: float


def estimate_from_sums(choice, sum_x, n_x: int, sum_clean, n_clean: int,
                       sum_corr, n_corr: int, eta_sq, sigma: float) -> np.ndarray:
    """Point estimate of the mean from the sums and counts of the agent's own
    data, the clean allocation and the corrupted allocation.

    Sums have shape (..., d), or are scalars for blocks that are absent;
    ``eta_sq`` broadcasts against them and may be +inf, in which case the
    corrupted block gets weight zero. Raises :class:`EmptyInput` when no
    data has positive weight.
    """
    s_clean = sum_x + sum_clean
    n_all_clean = n_x + n_clean
    s2 = sigma**2
    if isinstance(choice, (RecommendedWeighted, FixedWeighted, PosteriorMean)):
        # inverse-variance weighted average of the clean and corrupted blocks
        corr_var = choice.tau_sq if isinstance(choice, FixedWeighted) else eta_sq
        extra_prec = 1.0 / choice.ell**2 if isinstance(choice, PosteriorMean) else 0.0
        with np.errstate(invalid="ignore"):
            w_corr = np.where(np.isinf(corr_var), 0.0, n_corr / (s2 + corr_var))
            contrib = np.where(w_corr > 0, sum_corr, 0.0) * np.where(
                w_corr > 0, 1.0 / (s2 + corr_var), 0.0
            )
        den = n_all_clean / s2 + w_corr + extra_prec
        if np.any(den == 0):
            raise EmptyInput("no data with positive weight")
        return (s_clean / s2 + contrib) / den
    if isinstance(choice, PlainMeanAll):
        if n_all_clean + n_corr == 0:
            raise EmptyInput("nothing to average")
        return (s_clean + sum_corr) / (n_all_clean + n_corr)
    if isinstance(choice, CleanOnlyMean):
        if n_all_clean == 0:
            raise EmptyInput("nothing to average")
        return s_clean / n_all_clean
    if isinstance(choice, OwnDataOnlyMean):
        if n_x == 0:
            raise EmptyInput("no own data")
        return sum_x / n_x
    raise TypeError(f"unknown estimator {choice!r}")


def estimate(choice, X: np.ndarray, Y: np.ndarray, alloc: Allocation, sigma: float) -> np.ndarray:
    """Point estimate of the mean from own data X and allocation alloc.

    Y (the submission) is accepted for interface completeness; none of the
    implemented estimators depend on it.
    """
    if len(X) and len(alloc.clean) and alloc.clean.shape[1] != X.shape[1]:
        raise DimensionMismatch("X and allocation dimensions differ")
    return estimate_from_sums(choice, X.sum(axis=0), len(X),
                              alloc.clean.sum(axis=0), len(alloc.clean),
                              alloc.corrupted.sum(axis=0), len(alloc.corrupted),
                              alloc.eta_sq, sigma)
