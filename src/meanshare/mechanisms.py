"""The four data-sharing mechanisms.

Each mechanism is one function that serves agent i of a round of
explicit submissions:

- ``mech_pool``: unconditionally give the agent everyone else's data.
- ``mech_size_check``: pooling gated on a minimum submission size.
- ``mech_corrupt_deploy``: corrupt the others' data in proportion to the
  mean discrepancy raised to a power 2k, then deploy a fixed sample-mean
  estimate on the agent's behalf.
- ``mech_cross_check_corrupt``: hold out a clean cross-check subset,
  corrupt the remainder with variance proportional to the squared mean
  discrepancy, and return everything for the agent to estimate with.

Datasets are arrays of shape (..., n, d): a call on (R, n, d) submissions
plays R rounds at once, with outputs on the same leading axes and each draw
made for all R rounds, in round order. A mechanism that draws takes one
generator of its own, so an audit that replays that generator reconstructs
its noise. A round serves the agents in index order from one such
generator, ``[mech(submissions, i, ...) for i in range(m)]``; each call
checks its inputs before it draws, so agent i's draws follow those of
agents 0..i-1.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .alphasolve import _check_alpha
from .params import InvalidParam, ProblemParams, double_factorial

__all__ = [
    "EmptySubmission",
    "Allocation",
    "DeployedEstimate",
    "mech_pool",
    "mech_size_check",
    "mech_corrupt_deploy",
    "mech_cross_check_corrupt",
    "k_eps",
    "beta_sq_published",
    "corruption_variance",
]


class EmptySubmission(ValueError):
    pass


@dataclass(frozen=True)
class Allocation:
    """Per-agent mechanism output: a clean dataset, a corrupted dataset,
    and the per-dimension corruption variance (with +inf as the sentinel
    for an undefined discrepancy, i.e. an empty submission)."""

    clean: np.ndarray
    corrupted: np.ndarray
    eta_sq: np.ndarray


@dataclass(frozen=True)
class DeployedEstimate:
    """Output of the corrupt-and-deploy mechanism for one agent."""

    value: np.ndarray
    corrupted: np.ndarray
    eta_sq: np.ndarray


def mech_pool(submissions: list[np.ndarray], i: int) -> np.ndarray:
    """Agent i receives the union of all other agents' submissions, in
    index order. The round must have at least 2 agents, 0 <= i < m, and
    submissions of shape (..., n, d) with one d and one set of round axes."""
    m = len(submissions)
    if m < 2:
        raise ValueError("need at least 2 agents")
    if not 0 <= i < m:
        raise ValueError(f"agent index {i} out of range for {m} agents")
    rounds = {s.shape[:-2] for s in submissions}
    if len(rounds) > 1 or any(s.ndim < 2 for s in submissions):
        raise ValueError("submissions must be (..., n, d) arrays on one set of round axes")
    dims = {s.shape[-1] for s in submissions if s.shape[-2]}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions {dims}")
    parts = [s for j, s in enumerate(submissions) if j != i and s.shape[-2]]
    return (np.concatenate(parts, axis=-2) if parts
            else np.empty((*rounds.pop(), 0, dims.pop() if dims else 1)))


def mech_size_check(submissions: list[np.ndarray], i: int, p: ProblemParams) -> np.ndarray:
    """:func:`mech_pool` gated on submission size: an agent submitting fewer
    than n_star points receives nothing."""
    pool = mech_pool(submissions, i)
    return pool if submissions[i].shape[-2] >= p.n_star else pool[..., :0, :]


def k_eps(epsilon: float) -> int:
    """Power exponent ceil(1/(2 epsilon)) for the corrupt-and-deploy mechanism;
    epsilon and 1/(2 epsilon) must be positive and finite."""
    if not (0 < epsilon < math.inf and 1.0 / (2.0 * epsilon) < math.inf):
        raise InvalidParam(f"epsilon and 1/(2 epsilon) must be positive and finite, got {epsilon}")
    return math.ceil(1.0 / (2.0 * epsilon))


def beta_sq_published(total_points: int, p: ProblemParams, k: int) -> float:
    """Corruption scale beta^2 as published by the mechanism, from the
    total submitted point count across all agents. Raises
    :class:`InvalidParam` where it is not a positive float: from k = 150 on,
    where k (2k-1)!! alone leaves the float range (decided before it is
    built), and where a power in it does (at m = 100 from k = 103 on)."""
    m = p.agents
    beta_sq = math.nan
    if k < 150:
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            num = float(total_points) ** 2 * (m - 1) ** (k - 1)
            den = (k * double_factorial(2 * k - 1) * p.sigma**k * p.cost ** ((k - 2) / 2)
                   * m ** (1.5 * k))
            beta_sq = num / den
    if not 0 < beta_sq < math.inf:
        raise InvalidParam(f"epsilon too small: beta^2 at k = ceil(1/(2 epsilon)) = {k} is not "
                           "a positive float for these params")
    return beta_sq


def corruption_variance(scale: float, delta, k: int):
    """``scale * delta**(2 k)``, formed as (scale^{1/k} delta^2)^k by repeated
    squaring: finite wherever the true value is (+inf, with numpy's overflow
    warning, beyond), and ``scale * delta**2`` bit for bit at k = 1."""
    x = np.square(delta)
    x *= scale ** (1.0 / k) if k > 1 else scale
    power = x if k & 1 else 1.0
    while k > 1:
        k >>= 1
        x = x * x
        if k & 1:
            power = power * x
    return power


def mech_corrupt_deploy(submissions: list[np.ndarray], i: int, p: ProblemParams,
                        epsilon: float, stream: np.random.Generator) -> DeployedEstimate:
    """Corrupt every other agent's point with noise of variance
    beta^2 * (mean discrepancy)^{2k}, drawn from ``stream``, and deploy the
    plain mean of agent i's submission united with the corrupted pool.
    Every submission of the round must be nonempty."""
    others = mech_pool(submissions, i)
    if any(s.shape[-2] == 0 for s in submissions):
        raise EmptySubmission("corrupt-and-deploy requires nonempty submissions")
    k = k_eps(epsilon)
    beta_sq = beta_sq_published(sum(s.shape[-2] for s in submissions), p, k)
    s = submissions[i]
    delta = s.mean(axis=-2) - others.mean(axis=-2)
    eta_sq = corruption_variance(beta_sq, delta, k)
    corrupted = others + stream.standard_normal(others.shape) * np.sqrt(eta_sq)[..., None, :]
    del others  # pool-sized: freed before the deployed mean's concatenation
    value = np.concatenate([s, corrupted], axis=-2).mean(axis=-2)
    return DeployedEstimate(value=value, corrupted=corrupted, eta_sq=eta_sq)


def mech_cross_check_corrupt(submissions: list[np.ndarray], i: int, p: ProblemParams,
                             alpha: float | None,
                             stream: np.random.Generator | None) -> Allocation:
    """Cross-check-and-corrupt for agent i. With m <= 4 agents this
    degenerates to pooling (no corruption). Otherwise the allocation holds a
    clean cross-check subset of up to n_star points sampled without
    replacement from the others' pool, and the remainder corrupted with
    per-dimension variance alpha^2 (mean(Y_i) - mean(D_i))^2; it then
    needs an alpha in (0, 2**510) and raises :class:`InvalidParam` without.

    ``stream`` is the mechanism's own generator, disjoint from any
    agent-side randomness; it draws a uniform permutation of each round's
    pool, whose head is the cross-check subset, then the noise. With m <= 4
    it is not read and may be None.
    """
    others = mech_pool(submissions, i)
    *rounds, n_others, d = others.shape
    if len(submissions) <= 4:
        return Allocation(clean=others, corrupted=others[..., :0, :], eta_sq=np.zeros((*rounds, d)))
    if alpha is None:
        raise InvalidParam("m >= 5 requires the solved corruption level alpha")
    _check_alpha(alpha)
    s = submissions[i]
    take = min(n_others, p.n_star)
    # C-ordered indices keep each round contiguous, summed as a single round is
    order = stream.permuted(np.tile(np.arange(n_others), (*rounds, 1)), axis=-1)
    clean = np.take_along_axis(others, order[..., :take, None], axis=-2)
    rest = np.take_along_axis(others, order[..., take:, None], axis=-2)
    del others, order  # pool-sized: freed before the noise is drawn

    if s.shape[-2] == 0 or take == 0:
        # discrepancy undefined: infinite corruption (weight-zero data)
        eta_sq = np.full((*rounds, d), np.inf if s.shape[-2] == 0 else 0.0)
    else:
        delta = s.mean(axis=-2) - clean.mean(axis=-2)
        eta_sq = alpha**2 * delta**2

    corrupted = rest
    if rest.shape[-2]:
        with np.errstate(invalid="ignore"):
            corrupted = rest + stream.standard_normal(rest.shape) * np.sqrt(eta_sq)[..., None, :]
    return Allocation(clean=clean, corrupted=corrupted, eta_sq=eta_sq)
