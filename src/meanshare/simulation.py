"""Monte-Carlo verification engine.

Plays full mechanism rounds with one focal agent deviating (or not) while
all other agents follow the recommended profile, and measures the focal
agent's empirical penalty.

The engine is vectorized across replications and never builds the other
agents' pool. Since the non-focal agents are i.i.d. and honest, their
pooled submission is an exchangeable sample, so the mechanism's uniform
without-replacement cross-check subset is distribution-equal to a prefix
of the pool, and the sum of independent corruption noises collapses to a
single Gaussian with the summed variance. Every named estimator is linear
in the sums of its three blocks (own data, clean allocation, corrupted
allocation), with weights that depend only on the counts and on eta^2
(:func:`estimators._block_weights`). A block that eta^2 does not read
can therefore be integrated out of each round (conditional Monte Carlo,
or Rao-Blackwellization): it enters at its mean, and the round scores the
exact conditional mean of its squared error by adding the block's squared
weight times the block sum's variance. This is exact for every data
family, and it cannot raise the variance of a round's score.

- Cross-check with m >= 5: eta^2 reads the focal submission and the
  cross-check prefix, so the prefix sum is drawn
  (:meth:`DistributionSpec.sample_sum`) and the corrupted remainder and
  its noise are integrated out. An estimator whose weights do not read
  eta^2 (fixed weights, the plain and clean-only means) reads the
  prefix sum linearly, and eta^2 only through the remainder's
  variance, which is linear in it. For such a row the prefix is
  integrated out too: it enters at its mean take loc with variance
  take v, and eta^2 at its conditional mean
  alpha^2 ((ybar - loc)^2 + v / take). This needs the data's first two
  moments only.
- Pool, size-check and cross-check with m <= 4: the others' pool enters
  with a fixed weight and is integrated out; nothing of it is drawn.
- Corrupt-and-deploy: eta^2 reads the pool sum, so the pool sum and the
  noise are drawn. Integrating the (b, d) noise draw out would save no
  time.

The focal agent's own data is drawn as block sums too, since the round
reads it only through its sum, the submitted sum and the submitted count.
:func:`estimators._submitted_sum` gives these for every submission rule
but fabrication, from one block sum of the n collected points, or from two
(the kept k points and the other n - k) for a subset. Fabrication fits a
standard deviation s to the collected points, so those points are drawn;
the n_fake points it submits enter only through their sum, which is drawn
as n_fake xbar + sqrt(n_fake) s z with z standard normal, its exact law
given the collected points. Gaussian and Rademacher block sums are exact
O(b d) draws. Uniform data has no cheap exact sum sampler, so its block
sums, the cross-check prefix and the corrupt-deploy pool included, are
sums of k (b, d) planes of standard uniforms, added one plane at a time
and mapped once onto the box.

A chunk is played in two phases (:func:`_chunk_sq_errors`). The draw phase
draws everything random once, at mean offset 0. The score phase
(:func:`_score_rows`) scores each offset of the mu grid on those draws: a
k-point block sum at offset mu is the offset-0 sum plus k mu, exactly, so
every offset of a row reads the same draws (common random numbers), and a
non-equivariant row costs one draw, not one per offset. The score phase
runs over blocks of 8192 // d rounds, so each of its (rounds, d)
temporaries is at most 64 KiB: it stays in L2 cache, and glibc serves it
from the heap instead of mapping, and page-faulting, fresh memory, as it
does for requests above its mmap threshold (128 KiB by default).

A chunk can score several focal profiles against the same others. A
deviation sweep's menu rows are scored that way
(:func:`nash_deviation_sweep`), each on its plan (:func:`_plan`). The
focal points are drawn once, as sums of the increments between the union
of the rows' block boundaries (points 1, 5, 10 and 20 for the default menu
at n* = 10), and each row's block sum is the sum of its run of increments;
each fabrication row draws its own points; and the mechanism's draw is
made once, if some row reads it. A menu runs in chunks of one score block, so none of its arrays
exceeds 64 KiB whatever the replication count. A single run
(:func:`run_replications`, and row 0 of a sweep) is the one-row case, in
chunks of ``Scenario.chunk_size`` rounds.

The engine shares its estimator kernel (:func:`estimators._block_weights`)
with the object-level API. The slow reference path plays blocks of rounds
through the round axis of the mechanisms, each serving one agent, and of
:func:`estimators.apply_submission` and :func:`estimators.estimate`, on
explicit points. A block's pool takes at most 8 MB, and a block holds at
most four pool-sized arrays at once. A round serves the
agents in index order, so the focal agent, the only one scored, is agent
0, the first to draw from a mechanism stream, and the reference path
serves it alone. It draws every fabricated point, and every offset on
streams of its own, so it checks the mechanisms, the block-sum
submission map, the fabricated-sum law, the shift of block sums by k mu,
the conditioning on block sums and the streams independently; the
estimator arithmetic is pinned by the hand-computed oracles in the
estimator tests.

Reproducibility: replications are processed in fixed-size chunks, each
chunk drawing from its own hierarchically-derived stream, and the chunk
results are reduced in index order. Outputs are therefore identical for
any worker count.

Stream layout, as :func:`params.spawn_stream` paths under the scenario's
master seed:

- engine, single run: chunk ci draws from ``(0, 0, ci)``, for every
  offset of the grid;
- engine, a sweep's menu rows: chunk ci draws from ``(0, 1, ci)``, for
  every row and offset, independently of row 0;
- reference, for the mi-th mean offset of the grid, block after block: the
  focal agent's data, its submission and then the others' data, in one
  (m - 1, b, n*, d) draw, come from ``(1000, mi)``. A mechanism that
  draws gets one stream, ``(2000, mi)``: corrupt-deploy, and cross-check
  with m >= 5. Pool, size-check and cross-check with m <= 4 get none.
"""

from __future__ import annotations

import functools
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
    """One MC experiment: the focal profile against the others' recommended
    profile, under ``mechanism``. A single run processes its replications in
    chunks of ``chunk_size`` rounds on ``workers`` threads; a deviation
    sweep's menu rows run in chunks of one score block instead."""

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
        if self.mechanism == "corrupt-deploy":
            if self.epsilon is None:
                raise InvalidParam("corrupt-deploy needs a finite epsilon > 0")
            # beta^2 at the recommended profile's point count: an epsilon too
            # small for these params fails here, not mid-run
            mech.beta_sq_published(p.agents * p.n_star, p, mech.k_eps(self.epsilon))
        elif self.epsilon is not None:
            raise InvalidParam(f"epsilon is read by corrupt-deploy only, not by {self.mechanism}")
        for name, value, low in (("replications", self.replications, 1),
                                 ("chunk_size", self.chunk_size, 1), ("workers", self.workers, 1),
                                 ("len(mu_grid)", len(self.mu_grid), 1),
                                 ("focal.n", self.focal.n, 0)):
            if value < low:
                raise InvalidParam(f"{name} must be >= {low}, got {value}")
        if not all(math.isfinite(mu) for mu in self.mu_grid):
            raise InvalidParam(f"mu_grid entries must be finite, got {self.mu_grid}")


@dataclass(frozen=True)
class EmpiricalPenalty:
    mean_sq_error: float
    std_error: float
    cost: float
    total: float
    per_mu: tuple[tuple[float, float, float], ...] = field(default=())


def recommended_strategy(p: ProblemParams, mechanism: str = "cross-check",
                         epsilon: float | None = None) -> Strategy:
    """The profile the mechanism asks every agent to follow: n* honest
    points, with the inverse-variance weighted estimator under cross-check
    with 5 or more agents and the plain mean otherwise (under corrupt-deploy
    the plain mean stands for the deployed sample mean).

    ``epsilon`` is not read: no profile depends on it. It stays because
    callers pass it positionally."""
    weighted = mechanism == "cross-check" and p.agents >= 5
    e = est.RecommendedWeighted() if weighted else est.PlainMeanAll()
    return Strategy(n=p.n_star, submission=est.Identity(), estimator=e, label="recommended")


def is_translation_equivariant(strategy: Strategy) -> bool:
    """Whether the focal profile's risk is independent of the true mean.

    Scaling, shrinking and constant submissions break translation
    equivariance, and so does the posterior mean, which shrinks toward 0;
    the rest commute with adding a constant to all data (corruption
    variances are functions of mean differences)."""
    return not (isinstance(strategy.submission, (est.Scale, est.SubmitConstant, est.ShrinkEll))
                or isinstance(strategy.estimator, est.PosteriorMean))


# rows per score block: every (rows, d) float64 temporary of the score phase
# is then at most 64 KiB, so it stays in L2 and below glibc's default mmap
# threshold (128 KiB)
_SCORE_BLOCK_ITEMS = 8192


# estimators whose weights do not read eta^2 (:func:`estimators._block_weights`)
_CONSTANT_WEIGHTS = (est.FixedWeighted, est.PlainMeanAll, est.CleanOnlyMean)


def _plan(sc: Scenario, foc: Strategy):
    """``(spans, n_y, reads)`` of a row: the ranges ``(lo, hi)`` of collected
    points whose sums :func:`estimators._submitted_sum` reads, in its order
    (None for fabrication, which reads the points); the submitted count; and
    whether the rounds read the mechanism's draw (corrupt-deploy always, and
    cross-check with m >= 5 through eta^2 in the estimator's weights).
    Raises what a round of ``foc`` raises before it is scored."""
    if isinstance(foc.submission, est.FabricateFitGaussian):
        if foc.n == 0:
            raise est.EmptyInput("cannot fit a Gaussian to an empty sample")
        spans, n_y = None, foc.submission.n_fake
    else:
        spans = []

        def block(k):
            lo = spans[-1][1] if spans else 0
            spans.append((lo, lo + k))
            return 0.0  # only the spans and n_y are read here

        n_y = est._submitted_sum(foc.submission, foc.n, sc.params, block)[2]
    if sc.mechanism == "corrupt-deploy" and n_y == 0:
        raise mech.EmptySubmission("corrupt-and-deploy requires a nonempty submission")
    reads = sc.mechanism == "corrupt-deploy" or (
        sc.mechanism == "cross-check" and sc.params.agents >= 5
        and not isinstance(foc.estimator, _CONSTANT_WEIGHTS))
    return spans, n_y, reads


def _chunk_sq_errors(sc: Scenario, rows, b: int, stream):
    """Squared estimation errors of one chunk of b rounds, for the
    ``(focal, mus)`` pairs of ``rows``: yields one (b,) array per row and
    mean offset, in order. A cell in which the focal estimator has no data
    with positive weight scores +inf.

    Draw phase, once for every row, at offset 0: the focal agent's points as
    block sums at the union of the rows' block boundaries, then each
    fabrication row's own points, then the mechanism's draw if some row's
    plan reads it. Score phase (:func:`_score_rows`): each cell on those
    draws, a score block at a time; at offset mu a k-point block sum reads
    its drawn value plus k mu."""
    p, spec = sc.params, sc.distribution
    d, ns, m = p.dim, p.n_star, p.agents
    plans = [_plan(sc, foc) for foc, _ in rows]
    edges = sorted({0, *(hi for spans, _, _ in plans if spans for _, hi in spans)})
    increments = [spec.sample_sum(stream, b, hi - lo) for lo, hi in zip(edges, edges[1:])]

    @functools.cache
    def block_sum(lo, hi):
        parts = increments[edges.index(lo):edges.index(hi)]
        return sum(parts[1:], parts[0]) if parts else np.zeros((b, d))

    focal = []
    for (foc, _), (spans, n_y, _) in zip(rows, plans):
        if spans is not None:
            focal.append([(block_sum(lo, hi), hi - lo) for lo, hi in spans])
            continue
        # fabrication: the fitted sd reads the collected points, and the n_y
        # fabricated points enter only through their sum n_y xbar + sqrt(n_y) sd z
        X = spec.sample(stream, (b, foc.n, d))
        sum_x = X.sum(axis=1)
        fab = stream.standard_normal((b, d))
        fab *= X.std(axis=1)
        fab *= math.sqrt(n_y)
        fab += (n_y / foc.n) * sum_x
        focal.append([(sum_x, foc.n), (fab, n_y)])
    k_pool = (m - 1) * ns
    drawn = []
    if sc.mechanism == "corrupt-deploy":
        # eta^2 reads the pool sum, so the pool and its noise are drawn
        drawn = [(spec.sample_sum(stream, b, k_pool), k_pool), (stream.standard_normal((b, d)), 0)]
    elif any(reads for _, _, reads in plans):
        # eta^2 reads the cross-check prefix, so only the prefix is drawn;
        # the corrupted remainder and its noise are independent of it
        take = min(k_pool, ns)
        drawn = [(spec.sample_sum(stream, b, take), take)]
    per_block = max(_SCORE_BLOCK_ITEMS // d, 1)
    for (foc, mus), (_, n_y, reads), blocks in zip(rows, plans, focal):
        for mu in mus:
            sq = np.empty(b)
            for r in range(0, b, per_block):
                at = slice(r, r + per_block)
                focal_at, drawn_at = ([s[at] + k * mu if k * mu else s[at] for s, k in sums]
                                      for sums in (blocks, drawn if reads else []))
                try:
                    sq[at] = _score_rows(sc, foc, focal_at, drawn_at, n_y, mu)
                except est.EmptyInput:
                    sq.fill(np.inf)
                    break
            yield sq


def _score_rows(sc: Scenario, foc: Strategy, focal, drawn, n_y: int,
                mu_offset: float) -> np.ndarray:
    """Score phase of a block of rounds of ``foc``: their squared estimation
    errors ||est - mu||^2 at ``mu_offset``, each averaged over the blocks of
    the others' pool it does not draw. ``focal`` holds the rounds' focal
    block sums at that offset in the order of the row's plan (fabrication:
    the collected and the fabricated sums), ``drawn`` the mechanism's draw
    the row reads (corrupt-deploy: pool sum and noise; cross-check: prefix
    sum; else nothing), and ``n_y`` is the plan's submitted count.

    A block of k points that is not drawn enters the estimate through its
    mean k loc, and its conditional variance k (v + eta^2) per dimension,
    times the block's squared weight, is added to the round's score. Raises
    :class:`estimators.EmptyInput` when the focal estimator has no data with
    positive weight."""
    p = sc.params
    ns, m = p.n_star, p.agents
    spec = sc.distribution
    loc = spec.mean + mu_offset
    v = spec.per_dim_variance
    if isinstance(foc.submission, est.FabricateFitGaussian):
        sum_x, sum_y = focal
    else:
        blocks = iter(focal)
        sum_x, sum_y, _ = est._submitted_sum(foc.submission, foc.n, p, lambda k: next(blocks))

    # the focal allocation, as (sum, count, conditional variance per
    # dimension) of its clean and corrupted blocks; pool, size-check and
    # cross-check with m <= 4 hand over the others' whole pool, undrawn
    own = (sum_x, foc.n)
    k_pool = (m - 1) * ns
    clean, corrupted, eta_sq = (k_pool * loc, k_pool, k_pool * v), (0.0, 0, 0.0), 0.0
    if sc.mechanism == "size-check" and n_y < ns:
        clean = (0.0, 0, 0.0)
    elif sc.mechanism == "corrupt-deploy":
        sum_p, z = drawn
        k = mech.k_eps(sc.epsilon)
        beta_sq = mech.beta_sq_published(n_y + k_pool, p, k)
        delta = sum_y / n_y - sum_p / k_pool
        eta_sq = beta_sq * delta ** (2 * k)
        clean = (0.0, 0, 0.0)
        corrupted = (sum_p + math.sqrt(k_pool) * np.sqrt(eta_sq) * z, k_pool, 0.0)
        if isinstance(foc.estimator, est.PlainMeanAll):
            # the estimate the mechanism deploys: mean of Y_i and the corrupted pool
            own = (sum_y, n_y)
    elif sc.mechanism == "cross-check" and m >= 5:
        take = min(k_pool, ns)
        n_rest = k_pool - take
        if drawn:
            (sum_d,) = drawn
            clean = (sum_d, take, 0.0)
        else:
            # weights that do not read eta^2 read the prefix linearly, and
            # eta^2 only through the remainder's variance, linearly: so the
            # prefix is integrated out too, entering at its mean with its
            # variance, and eta^2 at its conditional mean
            clean = (take * loc, take, take * v)
        if n_y == 0:
            eta_sq = np.full(sum_y.shape, np.inf)
        elif drawn:
            eta_sq = (sc.alpha**2) * (sum_y / n_y - sum_d / take) ** 2
        else:
            eta_sq = (sc.alpha**2) * ((sum_y / n_y - loc) ** 2 + v / take)
        corrupted = (n_rest * loc, n_rest, n_rest * (v + eta_sq))

    w_x, w_clean, w_corr = est._block_weights(foc.estimator, own[1], clean[1],
                                              corrupted[1], eta_sq, p.sigma)
    err = w_x * own[0]
    err += w_clean * clean[0]
    err += w_corr * corrupted[0]
    err -= loc
    sq = np.einsum("bd,bd->b", err, err)
    var = 0.0
    for w, blk_var in ((w_clean, clean[2]), (w_corr, corrupted[2])):
        # a zero weight drops its block's variance, even an infinite one
        if not isinstance(blk_var, np.ndarray) and blk_var == 0:
            continue
        if isinstance(w, np.ndarray):
            with np.errstate(invalid="ignore"):
                var = var + np.where(w == 0, 0.0, w * w * blk_var)
        elif w != 0:
            var = var + w * w * blk_var
    if isinstance(var, np.ndarray) or var:
        sq += np.broadcast_to(var, err.shape).sum(axis=1)
    return sq


def _offsets(sc: Scenario, foc: Strategy) -> tuple[float, ...]:
    """The mean offsets at which ``foc`` is scored: offset 0 alone for a
    translation-equivariant profile, else the whole grid."""
    return (0.0,) if is_translation_equivariant(foc) else tuple(sc.mu_grid)


def _penalty(sc: Scenario, foc: Strategy, per_mu) -> EmpiricalPenalty:
    """The penalty of ``foc`` from its ``(mu, mse, se)`` cells: the mean
    squared error and standard error at the worst offset, plus the cost."""
    _, mse, se = max(per_mu, key=lambda t: t[1])
    cost = sc.params.cost * foc.n
    return EmpiricalPenalty(mean_sq_error=mse, std_error=se, cost=cost,
                            total=mse + cost, per_mu=tuple(per_mu))


def _penalties(sc: Scenario, focals, path: int, chunk_size: int) -> list[EmpiricalPenalty]:
    """Empirical penalty of each profile of ``focals`` against the others of
    ``sc``, all scored on the same draws: chunk ci of chunk_size rounds draws
    from stream ``(0, path, ci)``, and the chunks' sums are reduced in index
    order, whatever the worker count."""
    if not focals:
        return []
    n = sc.replications
    rows = [(foc, _offsets(sc, foc)) for foc in focals]
    chunks = [(ci, min(chunk_size, n - ci * chunk_size))
              for ci in range((n + chunk_size - 1) // chunk_size)]

    def work(item):
        ci, b = item
        stream = spawn_stream(sc.master_seed, 0, path, ci)
        return [(float(sq.sum()), float(np.square(sq, out=sq).sum()))
                for sq in _chunk_sq_errors(sc, rows, b, stream)]

    if sc.workers > 1:
        with ThreadPoolExecutor(max_workers=sc.workers) as ex:
            parts = list(ex.map(work, chunks))
    else:
        parts = [work(item) for item in chunks]
    cells = iter(range(len(parts[0])))
    out = []
    for foc, mus in rows:
        per_mu = []
        for mu, i in zip(mus, cells):
            s1 = math.fsum(x[i][0] for x in parts)
            s2 = math.fsum(x[i][1] for x in parts)
            mse = s1 / n
            # a cell scored +inf has an infinite, not an undefined, standard error
            se = math.sqrt(max(s2 / n - mse * mse, 0.0) / n) if mse < math.inf else math.inf
            per_mu.append((mu, mse, se))
        out.append(_penalty(sc, foc, per_mu))
    return out


def run_replications(sc: Scenario) -> EmpiricalPenalty:
    """Empirical penalty of the focal agent: max-over-mu mean squared error
    plus the data-collection cost, with the standard error of the
    max-achieving cell. Chunks of ``sc.chunk_size`` rounds."""
    return _penalties(sc, [sc.focal], 0, sc.chunk_size)[0]


# float64 items of a reference block's pool: 8 MB. A block holds at most
# four pool-sized arrays at once (cross-check: the others' draw, the pool,
# the permutation and the gathered remainder), and each block's arrays are
# freed before the next block draws
_REFERENCE_BLOCK_ITEMS = 1 << 20


def _reference_block(sc: Scenario, b: int, mu: float, agent_stream, mech_stream):
    """Squared errors of b reference rounds at mean offset mu, or None when
    the focal estimator has no data with positive weight."""
    p = sc.params
    d, ns, m = p.dim, p.n_star, p.agents
    spec, foc = sc.distribution, sc.focal
    X = spec.sample(agent_stream, (b, foc.n, d), mu)
    Y = est.apply_submission(foc.submission, X, p, agent_stream)
    subs = [Y, *spec.sample(agent_stream, (m - 1, b, ns, d), mu)]
    no_data = np.empty((b, 0, d))
    if sc.mechanism == "corrupt-deploy":
        dep = mech.mech_corrupt_deploy(subs, 0, p, sc.epsilon, mech_stream)
        alloc = mech.Allocation(no_data, dep.corrupted, dep.eta_sq)
    elif sc.mechanism == "cross-check":
        alloc = mech.mech_cross_check_corrupt(subs, 0, p, sc.alpha, mech_stream)
    elif sc.mechanism == "size-check":
        alloc = mech.Allocation(mech.mech_size_check(subs, 0, p), no_data, np.zeros(d))
    else:
        alloc = mech.Allocation(mech.mech_pool(subs, 0), no_data, np.zeros(d))
    if sc.mechanism == "corrupt-deploy" and isinstance(foc.estimator, est.PlainMeanAll):
        v = dep.value
    else:
        try:
            v = est.estimate(foc.estimator, X, alloc, p.sigma)
        except est.EmptyInput:
            return None
    return np.square(v - (spec.mean + mu)).sum(axis=-1)


def _reference_sq_errors(sc: Scenario, mi: int, mu: float) -> np.ndarray:
    """Squared errors of the reference rounds at the mi-th mean offset mu,
    all +inf when the focal estimator has no data with positive weight."""
    p = sc.params
    m = p.agents
    agent_stream = spawn_stream(sc.master_seed, 1000, mi)
    draws = sc.mechanism == "corrupt-deploy" or (sc.mechanism == "cross-check" and m >= 5)
    mech_stream = spawn_stream(sc.master_seed, 2000, mi) if draws else None
    rows = max(_REFERENCE_BLOCK_ITEMS // ((m - 1) * p.n_star * p.dim), 1)
    out = []
    for start in range(0, sc.replications, rows):
        sq = _reference_block(sc, min(rows, sc.replications - start), mu, agent_stream,
                              mech_stream)
        if sq is None:
            return np.full(sc.replications, np.inf)
        out.append(sq)
    return np.concatenate(out)


def run_replications_reference(sc: Scenario) -> EmpiricalPenalty:
    """Slow reference path: object-level mechanism rounds on explicit
    points. Used to cross-validate the vectorized engine."""
    per_mu = []
    for mi, mu in enumerate(_offsets(sc, sc.focal)):
        sqs = _reference_sq_errors(sc, mi, mu)
        mse = float(sqs.mean())
        se = float(sqs.std()) / math.sqrt(len(sqs)) if mse < math.inf else math.inf
        per_mu.append((mu, mse, se))
    return _penalty(sc, sc.focal, per_mu)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def default_menu(p: ProblemParams, estimator) -> list[Strategy]:
    """The fixed deviation menu swept by the equilibrium checks: sample-count
    deviations and submission manipulations with ``estimator``, and
    estimator swaps."""
    ns = p.n_star
    half = max(ns // 2, 1)
    return [
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


@dataclass(frozen=True)
class SweepRow:
    strategy: Strategy
    penalty: EmpiricalPenalty
    closed_form: float | None
    profitable: bool


def _submits_data(s: Strategy) -> bool:
    """Whether the profile collects data and submits some of it."""
    return s.n > 0 and not isinstance(s.submission, est.Empty)


def nash_deviation_sweep(sc: Scenario, menu: list[Strategy] | None = None) -> list[SweepRow]:
    """Score ``sc.focal`` and every menu entry against the same others (fixed
    at the recommended profile), and flag any entry that beats the focal
    profile by more than 3 combined standard errors. Row 0 is the focal
    profile itself, scored by :func:`run_replications` in chunks of
    ``sc.chunk_size`` rounds. The default menu is :func:`default_menu` with
    the focal estimator. Menu entries equal to ``sc.focal`` apart from the
    label are dropped: they would repeat row 0.

    The menu rows are scored together, on one draw per chunk of one score
    block (``8192 // d`` rounds), from streams ``(0, 1, ci)``: they share the
    focal agent's points and the mechanism's draw (common random numbers),
    and are independent of row 0, so the combined standard error is exact.
    ``sc.chunk_size`` does not apply to them."""
    p = sc.params
    base = run_replications(sc)
    if menu is None:
        menu = default_menu(p, sc.focal.estimator)
        if sc.mechanism == "corrupt-deploy":
            # corrupt-and-deploy rejects an empty submission by design, so
            # entries that submit nothing have no penalty
            menu = [s for s in menu if _submits_data(s)]
    menu = [s for s in menu if replace(s, label=sc.focal.label) != sc.focal]

    def closed(s: Strategy):
        if sc.mechanism == "cross-check" and p.agents >= 5 and \
                isinstance(s.submission, est.Identity) and \
                isinstance(s.estimator, est.RecommendedWeighted) and s.n > 0:
            return penalty_closed_form(s.n, p, sc.alpha)
        if sc.mechanism == "size-check" and isinstance(s.submission, est.Identity):
            return sizecheck_penalty(s.n, p)
        return None

    rows = [SweepRow(sc.focal, base, closed(sc.focal), False)]
    for s, pen in zip(menu, _penalties(sc, menu, 1, max(_SCORE_BLOCK_ITEMS // p.dim, 1))):
        gap = base.total - pen.total
        tol = 3.0 * math.hypot(base.std_error, pen.std_error)
        rows.append(SweepRow(s, pen, closed(s), gap > tol))
    return rows


def ir_check(sc: Scenario) -> dict:
    """Participating penalty of ``sc.focal`` vs. the best standalone
    penalty 2 sigma sqrt(c d)."""
    p = sc.params
    standalone = 2 * p.sigma * math.sqrt(p.cost * p.dim)
    pen = run_replications(sc)
    return {
        "participating": pen.total,
        "std_error": pen.std_error,
        "standalone": standalone,
        "ok": pen.total < standalone,
    }


def highdim_nic_check(sc: Scenario) -> dict:
    """Approximate-equilibrium check for the bounded-variance setting:
    recommended penalty <= (1 + 5/m) * (menu minimum), within 3 combined
    standard errors, plus the social-penalty ratio proxy against the
    2 + 10/m bound.

    The recommended profile is the paper's fixed-weight one, n* honest
    points weighted with tau^2 = 2 alpha^2 sigma^2 / n*; it replaces
    ``sc.focal``. The menu is the :func:`default_menu` entries that submit
    data with that estimator, less the constant submission: with the fixed
    weighting, the infinitely corrupted allocation of an empty or constant
    submission makes its risk unbounded. ``rows`` holds one
    :class:`SweepRow` per menu entry. Raises :class:`InvalidParam` unless
    the mechanism is cross-check with 5 or more agents (so alpha is set):
    with fewer it pools, and the 1 + 5/m bound is not claimed."""
    p = sc.params
    if sc.mechanism != "cross-check" or p.agents < 5:
        raise InvalidParam("the high-dimensional check needs cross-check with 5 or more agents")
    fixed = est.FixedWeighted(2 * sc.alpha**2 * p.sigma**2 / p.n_star)
    menu = [s for s in default_menu(p, fixed) if _submits_data(s) and s.estimator is fixed
            and not isinstance(s.submission, est.SubmitConstant)]
    rec, *rows = nash_deviation_sweep(
        replace(sc, focal=Strategy(p.n_star, est.Identity(), fixed, "recommended")), menu)
    best_row = min(rows, key=lambda r: r.penalty.total)
    base, best = rec.penalty, best_row.penalty
    ratio = base.total / best.total
    bound = 1 + 5.0 / p.agents
    slack = 3.0 * math.hypot(base.std_error, best.std_error) / best.total
    pos_proxy = p.agents * base.total / (2 * p.sigma * math.sqrt(p.cost * p.agents * p.dim))
    return {
        "recommended": base.total,
        "best_deviation": best.total,
        "best_label": best_row.strategy.label,
        "ratio": ratio,
        "bound": bound,
        "ok": ratio <= bound + slack,
        "pos_proxy": pos_proxy,
        "pos_bound": 2 + 10.0 / p.agents,
        "pos_ok": pos_proxy < 2 + 10.0 / p.agents,
        "rows": rows,
    }
