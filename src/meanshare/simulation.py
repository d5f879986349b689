"""Monte-Carlo verification engine.

Plays full mechanism rounds with one focal agent deviating (or not) while
all other agents follow the recommended profile, and measures the focal
agent's empirical penalty.

The engine is vectorized across replications and never builds the other
agents' pool. Since the non-focal agents are i.i.d. and honest, their
pooled submission is an exchangeable sample, so the mechanism's uniform
without-replacement cross-check subset is distribution-equal to a prefix
of the pool, and the sum of independent corruption noises collapses to a
single Gaussian with the summed variance. Every named estimator sees the
clean subset and the corrupted remainder only through their sums and
counts, so each replication draws just the two block sums
(:meth:`DistributionSpec.sample_sums`): exactly from their laws for
Gaussian and Rademacher data, point by point for uniform data, which has
no cheap exact sum sampler. These collapses are exact, not
approximations. The focal agent's own data is drawn in full, since
fabrication needs its standard deviation and subsets a prefix of it.

The engine shares its submission rules and its estimator kernel
(:func:`estimators.apply_submission`, :func:`estimators.estimate_from_sums`)
with the object-level API. The slow reference path, which runs the
object-level mechanisms point by point on explicit pools, therefore checks
the mechanisms, the prefix/sum collapse and the streams independently;
the estimator and submission arithmetic is pinned by the hand-computed
oracles in the estimator tests.

Reproducibility: replications are processed in fixed-size chunks, each
chunk drawing from its own hierarchically-derived stream, and the chunk
results are reduced in index order. Outputs are therefore identical for
any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimators as est
from . import mechanisms as mech
from .analytics import penalty_closed_form, sizecheck_penalty
from .params import DistributionSpec, InvalidParam, ProblemParams, spawn_stream

__all__ = [
    "Strategy",
    "Scenario",
    "EmpiricalPenalty",
    "recommended_strategy",
    "is_translation_equivariant",
    "run_replications",
    "run_replications_reference",
    "nash_deviation_sweep",
    "ir_check",
    "highdim_nic_check",
    "default_menu",
    "DEFAULT_MU_GRID_SCALE",
    "MECHANISMS",
]

DEFAULT_MU_GRID_SCALE = (0.0, 5.0, -5.0, 50.0, -50.0)
MECHANISMS = ("pool", "size-check", "corrupt-deploy", "cross-check")


@dataclass(frozen=True)
class Strategy:
    """An agent's choice: sample count, submission rule, estimator."""

    n: int
    submission: object
    estimator: object
    label: str = ""


@dataclass(frozen=True)
class Scenario:
    params: ProblemParams
    mechanism: str  # one of MECHANISMS
    focal: Strategy
    distribution: DistributionSpec
    replications: int
    master_seed: int
    mu_grid: tuple[float, ...] = (0.0,)
    epsilon: float | None = None
    alpha: float | None = None
    chunk_size: int = 1 << 16
    workers: int = 1

    def __post_init__(self):
        p, spec = self.params, self.distribution
        if self.mechanism not in MECHANISMS:
            raise InvalidParam(f"unknown mechanism {self.mechanism!r}")
        if spec.dim != p.dim:
            raise InvalidParam(f"distribution dimension {spec.dim} != params dim {p.dim}")
        if spec.per_dim_variance > p.sigma**2 * (1 + 1e-9):
            raise InvalidParam(f"data variance {spec.per_dim_variance} exceeds sigma^2 "
                               f"= {p.sigma**2}; the estimator weights assume sigma")
        if self.mechanism == "cross-check" and p.agents >= 5 and \
                (self.alpha is None or not self.alpha > 0):
            raise InvalidParam("cross-check with 5 or more agents needs alpha > 0")
        if self.mechanism == "corrupt-deploy" and \
                (self.epsilon is None or not self.epsilon > 0):
            raise InvalidParam("corrupt-deploy needs epsilon > 0")
        if self.replications < 1:
            raise InvalidParam(f"replications must be >= 1, got {self.replications}")


@dataclass(frozen=True)
class EmpiricalPenalty:
    mean_sq_error: float
    std_error: float
    cost: float
    total: float
    per_mu: tuple[tuple[float, float, float], ...] = field(default=())


def recommended_strategy(p: ProblemParams, mechanism: str = "cross-check",
                         epsilon: float | None = None) -> Strategy:
    """The profile the mechanism asks every agent to follow."""
    if mechanism == "cross-check":
        if p.agents <= 4:
            e = est.PlainMeanAll()
        else:
            e = est.RecommendedWeighted()
    elif mechanism == "corrupt-deploy":
        e = est.PlainMeanAll()  # stands for the deployed sample mean
    else:
        e = est.PlainMeanAll()
    return Strategy(n=p.n_star, submission=est.Identity(), estimator=e, label="recommended")


def is_translation_equivariant(strategy: Strategy) -> bool:
    """Whether the focal profile's risk is independent of the true mean.

    Scaling and constant submissions break translation equivariance; the
    rest commute with adding a constant to all data (corruption variances
    are functions of mean differences)."""
    return not isinstance(strategy.submission, (est.Scale, est.SubmitConstant))


def _chunk_sq_errors(sc: Scenario, mu_offset: float, b: int, stream) -> np.ndarray:
    """Squared estimation errors ||est - mu||^2 for one chunk of b rounds.

    A round in which the focal estimator has no data with positive weight
    scores +inf."""
    p = sc.params
    d, ns, m = p.dim, p.n_star, p.agents
    spec = sc.distribution
    foc = sc.focal

    X = spec.sample(stream, (b, foc.n, d), mu_offset)
    Y = est.apply_submission(foc.submission, X, p, stream)
    n_y = Y.shape[1]
    sum_y = Y.sum(axis=1)

    # the others' pool, as the sums of its cross-check prefix and remainder
    k_pool = (m - 1) * ns
    take = min(k_pool, ns) if sc.mechanism == "cross-check" and m >= 5 else 0
    n_rest = k_pool - take
    sum_d, sum_rest = spec.sample_sums(stream, b, (take, n_rest), mu_offset)
    sum_p = sum_d + sum_rest

    # the focal allocation, as (sum, count) of its clean and corrupted blocks;
    # pool, size-check and cross-check with m <= 4 hand over the clean pool
    own = (X.sum(axis=1), foc.n)
    clean, corrupted, eta_sq = (sum_p, k_pool), (0.0, 0), 0.0
    if sc.mechanism == "size-check" and n_y < ns:
        clean = (0.0, 0)
    elif sc.mechanism == "corrupt-deploy":
        if n_y == 0:
            raise mech.EmptySubmission("corrupt-and-deploy requires a nonempty submission")
        k = mech.k_eps(sc.epsilon)
        beta_sq = mech.beta_sq_published(n_y + k_pool, p, k)
        delta = sum_y / n_y - sum_p / k_pool
        eta_sq = beta_sq * delta ** (2 * k)
        z = stream.standard_normal((b, d))
        clean = (0.0, 0)
        corrupted = (sum_p + math.sqrt(k_pool) * np.sqrt(eta_sq) * z, k_pool)
        if isinstance(foc.estimator, est.PlainMeanAll):
            # the estimate the mechanism deploys: mean of Y_i and the corrupted pool
            own = (sum_y, n_y)
    elif sc.mechanism == "cross-check" and m >= 5:
        if n_y == 0:
            eta_sq = np.full((b, d), np.inf)
        else:
            eta_sq = (sc.alpha**2) * (sum_y / n_y - sum_d / take) ** 2
        z = stream.standard_normal((b, d))
        with np.errstate(invalid="ignore"):
            noise_sum = math.sqrt(n_rest) * np.sqrt(eta_sq) * z
        clean, corrupted = (sum_d, take), (sum_rest + noise_sum, n_rest)

    try:
        estv = est.estimate_from_sums(foc.estimator, *own, *clean, *corrupted,
                                      eta_sq, p.sigma)
    except est.EmptyInput:
        return np.full(b, np.inf)
    err = estv - (spec.mean + mu_offset)
    return np.einsum("bd,bd->b", err, err)


def run_replications(sc: Scenario, focal_agent: int = 0) -> EmpiricalPenalty:
    """Empirical penalty of the focal agent: max-over-mu mean squared error
    plus the data-collection cost, with the standard error of the
    max-achieving cell."""
    p = sc.params
    mus = (0.0,) if is_translation_equivariant(sc.focal) else tuple(sc.mu_grid)
    n = sc.replications
    chunks = [(ci, min(sc.chunk_size, n - ci * sc.chunk_size))
              for ci in range((n + sc.chunk_size - 1) // sc.chunk_size)]

    per_mu = []
    for mi, mu in enumerate(mus):
        def work(item, _mi=mi, _mu=mu):
            ci, b = item
            stream = spawn_stream(sc.master_seed, focal_agent, _mi, ci)
            sq = _chunk_sq_errors(sc, _mu, b, stream)
            return float(sq.sum()), float((sq * sq).sum())

        if sc.workers > 1:
            with ThreadPoolExecutor(max_workers=sc.workers) as ex:
                parts = list(ex.map(work, chunks))
        else:
            parts = [work(item) for item in chunks]
        s1 = math.fsum(x[0] for x in parts)
        s2 = math.fsum(x[1] for x in parts)
        mse = s1 / n
        var = max(s2 / n - mse * mse, 0.0)
        se = math.sqrt(var / n)
        per_mu.append((mu, mse, se))

    mu_star, mse, se = max(per_mu, key=lambda t: t[1])
    cost = p.cost * sc.focal.n
    return EmpiricalPenalty(mean_sq_error=mse, std_error=se, cost=cost,
                            total=mse + cost, per_mu=tuple(per_mu))


def run_replications_reference(sc: Scenario, focal_agent: int = 0) -> EmpiricalPenalty:
    """Slow reference path: one object-level mechanism round per
    replication. Used to cross-validate the vectorized engine."""
    p = sc.params
    d, ns, m = p.dim, p.n_star, p.agents
    spec = sc.distribution
    foc = sc.focal
    mus = (0.0,) if is_translation_equivariant(foc) else tuple(sc.mu_grid)

    per_mu = []
    for mi, mu in enumerate(mus):
        sqs = np.empty(sc.replications)
        for r in range(sc.replications):
            agent_stream = spawn_stream(sc.master_seed, 1000 + focal_agent, mi, r)
            mech_streams = [spawn_stream(sc.master_seed, 2000 + j, mi, r) for j in range(m)]
            X = spec.sample(agent_stream, (foc.n, d), mu)
            Y = est.apply_submission(foc.submission, X, p, agent_stream)
            subs = [Y if j == 0 else spec.sample(agent_stream, (ns, d), mu)
                    for j in range(m)]
            true_mu = spec.mean + mu
            if sc.mechanism == "pool":
                alloc = mech.Allocation(mech.mech_pool(subs)[0], np.empty((0, d)), np.zeros(d))
                v = est.estimate(foc.estimator, X, Y, alloc, p.sigma)
            elif sc.mechanism == "size-check":
                alloc = mech.Allocation(mech.mech_size_check(subs, p)[0],
                                        np.empty((0, d)), np.zeros(d))
                v = est.estimate(foc.estimator, X, Y, alloc, p.sigma)
            elif sc.mechanism == "corrupt-deploy":
                dep = mech.mech_corrupt_deploy(subs, p, sc.epsilon, mech_streams[0])[0]
                if isinstance(foc.estimator, est.PlainMeanAll):
                    v = dep.value
                else:
                    alloc = mech.Allocation(np.empty((0, d)), dep.corrupted, dep.eta_sq)
                    v = est.estimate(foc.estimator, X, Y, alloc, p.sigma)
            else:
                alloc = mech.mech_cross_check_corrupt(subs, p, sc.alpha, mech_streams)[0]
                v = est.estimate(foc.estimator, X, Y, alloc, p.sigma)
            e = v - true_mu
            sqs[r] = float(e @ e)
        mse = sqs.mean()
        se = sqs.std() / math.sqrt(len(sqs))
        per_mu.append((mu, float(mse), float(se)))

    mu_star, mse, se = max(per_mu, key=lambda t: t[1])
    cost = p.cost * foc.n
    return EmpiricalPenalty(mse, se, cost, mse + cost, tuple(per_mu))


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def default_menu(p: ProblemParams, estimator=None) -> list[Strategy]:
    """The fixed deviation menu swept by the equilibrium checks: sample-count
    deviations, submission manipulations, and estimator swaps."""
    if estimator is None:
        estimator = est.RecommendedWeighted()
    ns = p.n_star
    half = max(ns // 2, 1)
    menu = [
        Strategy(0, est.Identity(), estimator, "n=0"),
        Strategy(half, est.Identity(), estimator, f"n={half}"),
        Strategy(2 * ns, est.Identity(), estimator, f"n={2 * ns}"),
        Strategy(ns, est.Scale(0.5), estimator, "scale 0.5"),
        Strategy(ns, est.Shift(1.0), estimator, "shift 1"),
        Strategy(ns, est.SubmitConstant(0.0), estimator, "constant 0"),
        Strategy(ns, est.Subset(half), estimator, f"subset {half}"),
        Strategy(1, est.FabricateFitGaussian(ns), estimator, f"fabricate {ns} from 1"),
        Strategy(1, est.Empty(), estimator, "submit nothing"),
        Strategy(ns, est.Identity(), est.PlainMeanAll(), "estimator: plain mean"),
        Strategy(ns, est.Identity(), est.CleanOnlyMean(), "estimator: clean only"),
    ]
    return menu


@dataclass(frozen=True)
class SweepRow:
    strategy: Strategy
    penalty: EmpiricalPenalty
    closed_form: float | None
    profitable: bool


def nash_deviation_sweep(sc: Scenario, menu: list[Strategy] | None = None) -> list[SweepRow]:
    """Run the focal agent through the deviation menu (others fixed at the
    recommended profile) and flag any entry that beats the recommended
    strategy by more than 3 combined standard errors. The first row is the
    recommended profile itself."""
    p = sc.params
    if menu is None:
        menu = default_menu(p, recommended_strategy(p, sc.mechanism).estimator)
        if sc.mechanism == "corrupt-deploy":
            # entries that submit nothing are excluded: corrupt-and-deploy
            # rejects an empty submission by design, so they have no penalty
            menu = [s for s in menu if s.n > 0 and not isinstance(s.submission, est.Empty)]
    base_strategy = recommended_strategy(p, sc.mechanism, sc.epsilon)
    base = run_replications(replace(sc, focal=base_strategy))

    def closed(s: Strategy):
        if sc.mechanism == "cross-check" and p.agents >= 5 and \
                isinstance(s.submission, est.Identity) and \
                isinstance(s.estimator, est.RecommendedWeighted) and s.n > 0:
            return penalty_closed_form(s.n, p, sc.alpha)
        if sc.mechanism == "size-check" and isinstance(s.submission, est.Identity):
            return sizecheck_penalty(s.n, p)
        return None

    rows = [SweepRow(base_strategy, base, closed(base_strategy), False)]
    for s in menu:
        pen = run_replications(replace(sc, focal=s))
        gap = base.total - pen.total
        tol = 3.0 * math.hypot(base.std_error, pen.std_error)
        rows.append(SweepRow(s, pen, closed(s), gap > tol))
    return rows


def ir_check(sc: Scenario) -> dict:
    """Participating penalty at the recommended profile vs. the best
    standalone penalty 2 sigma sqrt(c d)."""
    p = sc.params
    standalone = 2 * p.sigma * math.sqrt(p.cost * p.dim)
    pen = run_replications(replace(sc, focal=recommended_strategy(p, sc.mechanism, sc.epsilon)))
    return {
        "participating": pen.total,
        "std_error": pen.std_error,
        "standalone": standalone,
        "ok": pen.total < standalone,
    }


def highdim_nic_check(sc: Scenario, menu: list[Strategy] | None = None) -> dict:
    """Approximate-equilibrium check for the bounded-variance setting:
    recommended penalty <= (1 + 5/m) * (menu minimum), within 3 combined
    standard errors, plus the social-penalty ratio proxy against the
    2 + 10/m bound."""
    p = sc.params
    tau_sq = 2 * sc.alpha**2 * p.sigma**2 / p.n_star
    fixed = est.FixedWeighted(tau_sq)
    base_strategy = Strategy(p.n_star, est.Identity(), fixed, "recommended")
    ns = p.n_star
    half = max(ns // 2, 1)
    if menu is None:
        # zero-collection entries are excluded: with the fixed tau^2 weighting
        # the infinitely-corrupted allocation makes their risk unbounded
        menu = [
            Strategy(half, est.Identity(), fixed, f"n={half}"),
            Strategy(2 * ns, est.Identity(), fixed, f"n={2 * ns}"),
            Strategy(ns, est.Scale(0.5), fixed, "scale 0.5"),
            Strategy(ns, est.Shift(1.0), fixed, "shift 1"),
            Strategy(ns, est.Subset(half), fixed, f"subset {half}"),
            Strategy(1, est.FabricateFitGaussian(ns), fixed, f"fabricate {ns} from 1"),
        ]
    base = run_replications(replace(sc, focal=base_strategy))
    entries = [(s, run_replications(replace(sc, focal=s))) for s in menu]
    best_s, best = min(entries, key=lambda t: t[1].total)
    ratio = base.total / best.total
    bound = 1 + 5.0 / p.agents
    slack = 3.0 * math.hypot(base.std_error, best.std_error) / best.total
    pos_proxy = p.agents * base.total / (2 * p.sigma * math.sqrt(p.cost * p.agents * p.dim))
    return {
        "recommended": base.total,
        "best_deviation": best.total,
        "best_label": best_s.label,
        "ratio": ratio,
        "bound": bound,
        "ok": ratio <= bound + slack,
        "pos_proxy": pos_proxy,
        "pos_bound": 2 + 10.0 / p.agents,
        "pos_ok": pos_proxy < 2 + 10.0 / p.agents,
        "rows": entries,
    }
