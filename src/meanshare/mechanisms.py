"""The four data-sharing mechanisms.

Object-level implementations operating on explicit submission lists:

- ``mech_pool``: unconditionally give each agent everyone else's data.
- ``mech_size_check``: pooling gated on a minimum submission size.
- ``mech_corrupt_deploy``: corrupt others' data in proportion to the
  mean discrepancy raised to a power 2k, then deploy a fixed sample-mean
  estimate on the agent's behalf.
- ``mech_cross_check_corrupt``: hold out a clean cross-check subset,
  corrupt the remainder with variance proportional to the squared mean
  discrepancy, and return everything for the agent to estimate with.

Datasets are arrays of shape (n, d). A mechanism that draws takes one
generator of its own, so an audit that replays that generator
reconstructs its noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ProblemParams, double_factorial

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
    "beta_sq_recommended_form",
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


def _pool_others(submissions: list[np.ndarray], i: int, d: int) -> np.ndarray:
    parts = [s for j, s in enumerate(submissions) if j != i and len(s)]
    if not parts:
        return np.empty((0, d))
    return np.concatenate(parts, axis=0)


def _dim(submissions: list[np.ndarray]) -> int:
    for s in submissions:
        if s.ndim != 2:
            raise ValueError("submissions must be arrays of shape (n, d)")
    dims = {s.shape[1] for s in submissions if len(s)}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions {dims}")
    return dims.pop() if dims else 1


def mech_pool(submissions: list[np.ndarray]) -> list[np.ndarray]:
    """Each agent receives the union of all other agents' submissions."""
    if len(submissions) < 2:
        raise ValueError("need at least 2 agents")
    d = _dim(submissions)
    return [_pool_others(submissions, i, d) for i in range(len(submissions))]


def _size_gate(own: np.ndarray, pool: np.ndarray, p: ProblemParams) -> np.ndarray:
    """``pool``, or none of it for a submission ``own`` of fewer than n_star points."""
    return pool if len(own) >= p.n_star else pool[:0]


def mech_size_check(submissions: list[np.ndarray], p: ProblemParams) -> list[np.ndarray]:
    """:func:`mech_pool` gated on submission size: agents submitting fewer
    than n_star points receive nothing."""
    return [_size_gate(s, pool, p) for s, pool in zip(submissions, mech_pool(submissions))]


def k_eps(epsilon: float) -> int:
    """Power exponent ceil(1/(2 epsilon)) for the corrupt-and-deploy mechanism."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return math.ceil(1.0 / (2.0 * epsilon))


def beta_sq_published(total_points: int, p: ProblemParams, k: int) -> float:
    """Corruption scale beta^2 as published by the mechanism, from the
    total submitted point count across all agents."""
    m = p.agents
    num = float(total_points) ** 2 * (m - 1) ** (k - 1)
    den = k * double_factorial(2 * k - 1) * p.sigma**k * p.cost ** ((k - 2) / 2) * m ** (1.5 * k)
    return num / den


def beta_sq_recommended_form(own_points: int, p: ProblemParams, k: int) -> float:
    """Equivalent beta^2 expression in terms of the agent's own submission
    size when all other agents submit n_star points each. Coincides with
    :func:`beta_sq_published` in that regime; both are kept and checked
    against each other."""
    m, ns = p.agents, p.n_star
    num = ns ** (k - 2) * (m - 1) ** (k - 1) * (own_points + (m - 1) * ns) ** 2
    den = k * double_factorial(2 * k - 1) * m ** (k + 1) * p.sigma ** (2 * k - 2)
    return num / den


def _deploy_scale(submissions: list[np.ndarray], p: ProblemParams,
                  epsilon: float) -> tuple[int, int, float]:
    """Check a corrupt-and-deploy round's submissions and return its
    dimension, power k and published beta^2."""
    if len(submissions) < 2:
        raise ValueError("need at least 2 agents")
    d = _dim(submissions)
    if any(len(s) == 0 for s in submissions):
        raise EmptySubmission("corrupt-and-deploy requires nonempty submissions")
    k = k_eps(epsilon)
    return d, k, beta_sq_published(sum(len(s) for s in submissions), p, k)


def _corrupt_deploy_for(submissions: list[np.ndarray], i: int, d: int, k: int,
                        beta_sq: float, stream: np.random.Generator) -> DeployedEstimate:
    """Agent i's output under :func:`mech_corrupt_deploy`, drawing its
    noise from ``stream``."""
    s = submissions[i]
    others = _pool_others(submissions, i, d)
    delta = s.mean(axis=0) - others.mean(axis=0)
    eta_sq = beta_sq * delta ** (2 * k)
    corrupted = others + stream.standard_normal(others.shape) * np.sqrt(eta_sq)
    value = np.concatenate([s, corrupted], axis=0).mean(axis=0)
    return DeployedEstimate(value=value, corrupted=corrupted, eta_sq=eta_sq)


def mech_corrupt_deploy(submissions: list[np.ndarray], p: ProblemParams, epsilon: float,
                        stream: np.random.Generator) -> list[DeployedEstimate]:
    """Corrupt every other agent's point with noise of variance
    beta^2 * (mean discrepancy)^{2k} and deploy the plain mean of the
    agent's own submission united with the corrupted pool."""
    scale = _deploy_scale(submissions, p, epsilon)
    return [_corrupt_deploy_for(submissions, i, *scale, stream)
            for i in range(len(submissions))]


def _cross_check_for(submissions: list[np.ndarray], i: int, d: int, p: ProblemParams,
                     alpha: float, stream: np.random.Generator) -> Allocation:
    """Agent i's allocation under :func:`mech_cross_check_corrupt` with
    m >= 5, drawing its cross-check subset and noise from ``stream``."""
    s = submissions[i]
    others = _pool_others(submissions, i, d)
    take = min(len(others), p.n_star)
    idx = stream.permutation(len(others))
    clean = others[idx[:take]]
    rest = others[idx[take:]]

    if len(s) == 0 or take == 0:
        # discrepancy undefined: infinite corruption (weight-zero data)
        eta_sq = np.full(d, np.inf) if len(s) == 0 else np.zeros(d)
    else:
        delta = s.mean(axis=0) - clean.mean(axis=0)
        eta_sq = alpha**2 * delta**2

    corrupted = rest
    if len(rest):
        with np.errstate(invalid="ignore"):
            corrupted = rest + stream.standard_normal(rest.shape) * np.sqrt(eta_sq)
    return Allocation(clean=clean, corrupted=corrupted, eta_sq=eta_sq)


def mech_cross_check_corrupt(submissions: list[np.ndarray], p: ProblemParams,
                             alpha: float | None,
                             stream: np.random.Generator | None) -> list[Allocation]:
    """Cross-check-and-corrupt. With m <= 4 agents this degenerates to
    pooling (no corruption). Otherwise each agent's allocation holds a
    clean cross-check subset of up to n_star points sampled without
    replacement from the others' pool, and the remainder corrupted with
    per-dimension variance alpha^2 (mean(Y_i) - mean(D_i))^2.

    ``stream`` is the mechanism's own generator, disjoint from any
    agent-side randomness; the agents draw from it in index order. With
    m <= 4 it is not read and may be None.
    """
    m = len(submissions)
    if m <= 4:
        return [Allocation(clean=pool, corrupted=np.empty((0, pool.shape[1])),
                           eta_sq=np.zeros(pool.shape[1]))
                for pool in mech_pool(submissions)]
    d = _dim(submissions)
    if alpha is None or alpha <= 0:
        raise ValueError("m >= 5 requires the solved corruption level alpha")
    return [_cross_check_for(submissions, i, d, p, alpha, stream) for i in range(m)]
