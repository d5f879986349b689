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
  integrated out too: the prefix of n* points enters at its mean n* loc
  with variance n* v, and eta^2 at its conditional mean
  alpha^2 ((ybar - loc)^2 + v / n*). This needs the data's first two
  moments only. A row that submits nothing has eta^2 = +inf, so every
  weight of it is constant, and its prefix is integrated out too.
- Pool, size-check and cross-check with m <= 4: the others' pool enters
  with a fixed weight and is integrated out; nothing of it is drawn.
- Corrupt-and-deploy: eta^2 reads the pool sum, so the pool sum is drawn.
  Given it, the pool's noise enters the estimate linearly, so it is
  integrated out: the round adds its variance k_pool eta^2 times the
  corrupted block's squared weight.

The focal agent's own data is drawn as sums too, since the round reads it
only through its sum, the submitted sum and the submitted count. Every
submission rule but fabrication submits the first k of the n collected
points, each mapped to gain x + shift (:func:`estimators._affine`), so the
submitted sum is gain times the sum of the first k points plus k shift.
Fabrication fits a standard deviation s to the collected points, so those
points are drawn; the n_fake points it submits enter only through their
sum, which is drawn as n_fake xbar + sqrt(n_fake) s z with z standard
normal, its exact law given the collected points. Gaussian and Rademacher
block sums are exact O(b d) draws. Uniform data has no cheap exact sum
sampler, so its block sums, the cross-check prefix and the corrupt-deploy
pool included, are sums of k (b, d) planes of standard uniforms, added one
plane at a time and mapped once onto the box.

A chunk is played in two phases. The draw phase (:func:`_draw`) draws
everything random once, at mean offset 0. The score phase (:func:`_scores`,
a score block at a time in :func:`_score`) scores each offset of the mu
grid on those draws: a
k-point block sum at offset mu is the offset-0 sum plus k mu, exactly, so
every offset of a row reads the same draws (common random numbers), and a
non-equivariant row costs one draw, not one per offset. All that is
constant in a row, from the mechanism's branch to the weights that do not
read a drawn eta^2, is resolved once, in its plan (:func:`_plan`), so the
kernel does array arithmetic only: it sums over d by adding columns and
forms delta^{2k} by squaring (:func:`mechanisms.corruption_variance`). A
row whose inverse-variance weights read a per-round eta^2 is scored without
forming them, as one quotient: with t = sigma^2/(sigma^2 + eta^2) the
weight of a corrupted point against a clean one and D = P + n_corr t the
estimate's precision in units of 1/sigma^2, a round scores
(N^2 + n_corr t (sigma^2 - (sigma^2 - v_c) t))/D^2 per dimension, N the
weighted deviation of its own and drawn blocks. That is two divisions per
block, and exactly 0 where eta^2 = +inf, with no guard. The kernel runs
over blocks of 8192 // d rounds, so each of its (rounds, d) temporaries is
at most 64 KiB: it stays in L2 cache, and glibc serves it from the heap
instead of mapping, and page-faulting, fresh memory, as it does for
requests above its mmap threshold (128 KiB by default). The draw phase
keeps the same rule: a sum is scaled and shifted in place, uniform planes
and binomial counts pass through blocks of 8192 items
(:meth:`DistributionSpec.sample_sum`), and each running sum adds its
increment in place, so a chunk's draw peaks at the arrays it returns. The
only arrays longer than a score block are the focal sums, the drawn block
sum and each cell's (b,) scores, which the reduce reads, and a fabrication
row's points, whose fitted standard deviation is taken in place on them.

A chunk can score several focal profiles against the same others. A
deviation sweep's menu rows are scored that way
(:func:`nash_deviation_sweep`), each on its plan. The focal points are
drawn once, as running sums of the first k points at every count k that
some row reads, its n or its k (0, 1, 5, 10 and 20 points for the
default menu at n* = 10), each the previous sum plus a drawn increment;
each fabrication row draws its own points; and the mechanism's draw is
made once, if some row reads it. A menu runs in chunks of one score
block, so none of its arrays exceeds 64 KiB whatever the replication
count. A single run (:func:`run_replications`, and row 0 of a sweep) is
the one-row case, in chunks of ``Scenario.chunk_size`` rounds.

The engine shares its estimator kernel (:func:`estimators._block_weights`)
with the object-level API for the weights it resolves in a plan; the
quotient of a per-round eta^2 is its own. The slow reference path plays
blocks of rounds through the round axis of the mechanisms, each serving
one agent, and of :func:`estimators.apply_submission` and
:func:`estimators.estimate`, on explicit points. A block's pool takes at
most 8 MB, and a block holds at most four pool-sized arrays at once. A
round serves the agents in index order, so the focal agent, the only one
scored, is agent 0, the first to draw from a mechanism stream, and the
reference path serves it alone. It draws every fabricated point, and
every offset on streams of its own, so it checks the mechanisms, the
running sums, the fabricated-sum law, the shift of block sums by k mu, the
conditioning on block sums, the per-round quotient and the streams
independently; the weights resolved in a plan and the submission table
(:func:`estimators._affine`), which it shares with the engine, are pinned
by the hand-computed oracles in the estimator tests.

Reproducibility: replications are processed in fixed-size chunks, each
chunk drawing from its own hierarchically-derived stream, and each row is
planned once per run. The calling thread scores every chunk and reduces it
in index order. Outputs are therefore identical for any worker count.

Worker threads (:func:`_drawn_ahead`): with ``workers`` = w > 1, w - 1
helper threads only draw, since a random fill releases the GIL for one
long call, while the score phase's many short numpy calls would hand it
back and forth between threads. As the calling thread reaches chunk ci, it
submits the chunks up to ci + w to the helpers; it draws chunk ci itself
if no helper has started it, and otherwise waits for it. So at most w
threads draw at once, no draw starts more than w chunks ahead of the one
being scored, and a run holds the draws of at most w + 1 chunks. The
helpers come from one standard-library thread pool per worker count, made
on first use and shared by every run with that count.

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

import math
import numbers
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimators as est
from . import mechanisms as mech
from .alphasolve import _check_alpha
from .analytics import baseline_penalties, penalty_closed_form, sizecheck_penalty
from .params import (_BLOCK_ITEMS, DistributionSpec, InvalidParam, ProblemParams, _check_int,
                     spawn_stream)

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
    """An agent's choice: sample count, submission rule, estimator. Making
    one raises :class:`InvalidParam` unless n is an integer >= 0."""

    n: int
    submission: object
    estimator: object
    label: str = ""

    def __post_init__(self):
        _check_int("n", self.n, 0)


@dataclass(frozen=True)
class Scenario:
    """One MC experiment: the focal profile against the others' recommended
    profile, under ``mechanism``. A single run processes its replications in
    chunks of ``chunk_size`` rounds on ``workers`` threads: the calling
    thread scores every chunk, and the ``workers`` - 1 helpers of the
    process's pool for that worker count draw ahead of it (see the module
    docstring). A deviation sweep's menu rows run in chunks
    of one score block instead. Making one
    raises :class:`InvalidParam` for an inconsistent or out-of-range field:
    ``master_seed`` must be an integer >= 0, and ``replications``,
    ``chunk_size`` and ``workers`` integers >= 1."""

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
        if self.alpha is not None:
            _check_alpha(self.alpha)
        elif self.mechanism == "cross-check" and p.agents >= 5:
            raise InvalidParam("cross-check with 5 or more agents needs alpha")
        if self.mechanism == "corrupt-deploy":
            if self.epsilon is None:
                raise InvalidParam("corrupt-deploy needs a finite epsilon > 0")
            # beta^2 at the recommended profile's point count: an epsilon too
            # small for these params fails here, not mid-run
            mech.beta_sq_published(p.agents * p.n_star, p, mech.k_eps(self.epsilon))
        elif self.epsilon is not None:
            raise InvalidParam(f"epsilon is read by corrupt-deploy only, not by {self.mechanism}")
        # a seed of None would draw fresh OS entropy in every stream
        for name, low in (("master_seed", 0), ("replications", 1), ("chunk_size", 1),
                          ("workers", 1)):
            _check_int(name, getattr(self, name), low)
        real = all(isinstance(mu, numbers.Real) and not isinstance(mu, bool) for mu in self.mu_grid)
        if not (real and len(self.mu_grid) and all(map(math.isfinite, self.mu_grid))):
            raise InvalidParam(f"mu_grid must hold finite real offsets, got {self.mu_grid}")


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


# estimators whose weights do not read eta^2 (:func:`estimators._block_weights`)
_CONSTANT_WEIGHTS = (est.FixedWeighted, est.PlainMeanAll, est.CleanOnlyMean)


@dataclass(frozen=True)
class _Row:
    """A row's plan (:func:`_plan`)."""

    foc: Strategy
    n_y: int
    gain: float
    shift: float
    own_y: bool
    counts: tuple[int, int, int]
    drawn: int
    eta: tuple | None
    weights: tuple | None
    prec: float = 0.0


def _plan(sc: Scenario, foc: Strategy) -> _Row:
    """What a row's rounds draw and read, with every constant of its score
    resolved once. The row submits n_y points, whose sum is ``gain`` times
    that of the first n_y collected points plus ``n_y shift``
    (:func:`estimators._affine`); a fabrication row's (gain 1, shift 0) reads
    the sum of its drawn points. The estimate reads the own block (the
    submission if ``own_y``), the clean and the corrupted block, of
    ``counts`` points; block ``drawn`` (1 clean, 2 corrupted, 0 none) is the
    drawn sum, and the others enter at their mean. A per-round eta^2 is
    ``scale (ybar - ref)^{2k}``, ``eta = (scale, k, k_ref)``, ref the drawn
    sum over k_ref or, if k_ref is None, the mean. ``weights`` are resolved
    unless they read a per-round eta^2, with the undrawn blocks' terms; for
    inverse-variance weights that do, ``prec`` is the eta^2-free precision P
    in units of 1/sigma^2: the own and clean points, plus sigma^2/ell^2 for
    the posterior mean's prior (:func:`_score`).
    Raises what a round of ``foc`` raises before it is scored."""
    p, v = sc.params, sc.distribution.per_dim_variance
    ns, m = p.n_star, p.agents
    if isinstance(foc.submission, est.FabricateFitGaussian):
        if foc.n == 0:
            raise est.EmptyInput("cannot fit a Gaussian to an empty sample")
        n_y, gain, shift = foc.submission.n_fake, 1.0, 0.0
    else:
        n_y, gain, shift = est._affine(foc.submission, foc.n, p)
    k_pool = (m - 1) * ns
    constant = isinstance(foc.estimator, _CONSTANT_WEIGHTS)
    # pool, size-check and cross-check with m <= 4 hand over the others' whole pool
    own_y, counts, drawn, eta, eta_sq = False, (foc.n, k_pool, 0), 0, None, 0.0
    if sc.mechanism == "size-check" and n_y < ns:
        counts = (foc.n, 0, 0)
    elif sc.mechanism == "corrupt-deploy":
        if n_y == 0:
            raise mech.EmptySubmission("corrupt-and-deploy requires a nonempty submission")
        # the plain mean stands for the deployed estimate, of Y_i and the corrupted pool
        own_y, k = isinstance(foc.estimator, est.PlainMeanAll), mech.k_eps(sc.epsilon)
        counts, drawn = (n_y if own_y else foc.n, 0, k_pool), 2
        eta = (mech.beta_sq_published(n_y + k_pool, p, k), k, k_pool)
    elif sc.mechanism == "cross-check" and m >= 5:
        # weights that read no eta^2 read the n*-point prefix, and eta^2, linearly: so the
        # prefix is integrated out, and eta^2 enters at its conditional mean (+ alpha^2 v / n*).
        # With nothing submitted eta^2 = +inf, every weight is constant, and so is the prefix
        counts, drawn = (foc.n, ns, k_pool - ns), 0 if constant or n_y == 0 else 1
        eta_sq = math.inf if n_y == 0 else 0.0 if drawn else sc.alpha**2 * v / ns
        eta = (sc.alpha**2, 1, ns if drawn else None) if n_y else None
    fixed = (foc, n_y, gain, shift, own_y, counts, drawn)
    if eta and not constant:
        ell = foc.estimator.ell if isinstance(foc.estimator, est.PosteriorMean) else math.inf
        return _Row(*fixed, eta, None, counts[0] + counts[1] + p.sigma**2 / ell**2)
    try:
        w_x, *ws = est._block_weights(foc.estimator, *counts, eta_sq, p.sigma)
    except est.EmptyInput:  # no data with positive weight: every round scores +inf
        return _Row(*fixed, None, (0.0, 0.0, 0.0, math.inf))
    # the undrawn blocks' mean and variance; a zero weight drops even an infinite one
    w_loc, var = 0.0, 0.0
    for i, (w, n, e) in enumerate(zip(ws, counts[1:], (0.0, eta_sq)), 1):
        if w and n and i != drawn:
            w_loc += w * n
            var += w * w * (n * (v + e))
    return _Row(*fixed, eta if ws[1] else None, (w_x, ws[1], w_loc, sum([var] * p.dim)))


def _dsum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a (b, d) array by adding its columns: the same
    bits for d < 8, at a fraction of the cost."""
    return sum(a.T[1:], a[:, 0])


def _chunk_sq_errors(sc: Scenario, rows, b: int, stream):
    """Squared estimation errors of one chunk of b rounds, for the
    ``(focal, mus)`` pairs of ``rows``: yields one (b,) array per row and
    mean offset, in order. A cell in which the focal estimator has no data
    with positive weight scores +inf. The draw phase (:func:`_draw`) then
    the score phase (:func:`_scores`) of one chunk."""
    plans = [_plan(sc, foc) for foc, _ in rows]
    yield from _scores(sc, plans, [mus for _, mus in rows], b, _draw(sc, plans, b, stream))


def _draw(sc: Scenario, plans, b: int, stream):
    """The draw phase of a chunk of b rounds, once for every row of
    ``plans``, at offset 0: the sums of the focal agent's first k points,
    running, at each count k that some row reads (its n collected and its n_y
    submitted points), each drawn increment taking the previous sum in place,
    then each fabrication row's own points, then the one block sum that eta^2
    reads, if some row's plan reads it. Returns each row's (collected sum,
    submitted sum) and that block sum, or None."""
    spec, d = sc.distribution, sc.params.dim
    fabricates = [isinstance(row.foc.submission, est.FabricateFitGaussian) for row in plans]
    reads = {k for row, fab in zip(plans, fabricates) if not fab for k in (row.foc.n, row.n_y)}
    sums, last = {}, 0
    for k in sorted(reads):
        sums[k] = spec.sample_sum(stream, b, k - last)
        if last:
            sums[k] += sums[last]
        last = k
    focal = []
    for row, fab in zip(plans, fabricates):
        n = row.foc.n
        if not fab:
            focal.append((sums[n], sums[row.n_y]))
            continue
        # fabrication: the fitted sd reads the collected points, and the n_y
        # fabricated points enter only through their sum n_y xbar + sqrt(n_y) sd z
        X = spec.sample(stream, (b, n, d))
        sum_x = X.sum(axis=1)
        # X.std(axis=1), numpy's steps taken in place on X: the same bits
        X -= sum_x[:, None] / n
        sd = np.square(X, out=X).sum(axis=1)
        sd /= n
        sum_y = stream.standard_normal((b, d))
        sum_y *= np.sqrt(sd, out=sd)
        sum_y *= math.sqrt(row.n_y)
        sum_y += (row.n_y / n) * sum_x
        focal.append((sum_x, sum_y))
    # the one block sum eta^2 reads, if some row reads it: the others' pool
    # under corrupt-deploy, the cross-check prefix under cross-check; the rest
    # of the pool and all corruption noise are integrated out
    k_drawn = [row.counts[row.drawn] for row in plans if row.drawn]
    return focal, spec.sample_sum(stream, b, k_drawn[0]) if k_drawn else None


def _scores(sc: Scenario, plans, grid, b: int, draws):
    """The score phase of a chunk of b rounds: yields the (b,) squared errors
    of each row of ``plans`` at each of its offsets in ``grid``, in order, on
    the chunk's ``draws`` (:func:`_draw`), a score block at a time
    (:func:`_score`); at offset mu a k-point sum reads its drawn value plus
    k mu."""
    spec, (focal, drawn) = sc.distribution, draws
    per_block = max(_BLOCK_ITEMS // sc.params.dim, 1)
    for row, mus, (all_x, all_y) in zip(plans, grid, focal):
        for mu in mus:
            loc = spec.mean + mu
            sq = np.empty(b)
            for r in range(0, b, per_block):
                at = slice(r, r + per_block)
                sum_x, sum_y = all_x[at], all_y[at]
                if mu:
                    sum_x = sum_x + row.foc.n * mu
                    sum_y = sum_x if all_y is all_x else sum_y + row.n_y * mu
                if row.gain != 1:
                    sum_y = sum_y * row.gain
                if row.shift:
                    sum_y = sum_y + row.n_y * row.shift
                drawn_at = None
                if row.drawn:
                    drawn_at = drawn[at] + row.counts[row.drawn] * mu if mu else drawn[at]
                sq[at] = _score(sc, row, (sum_x, sum_y), drawn_at, loc)
            yield sq


def _score(sc: Scenario, row: _Row, focal, drawn, loc) -> np.ndarray:
    """The score kernel: squared errors ||est - loc||^2 of a block of rounds
    of ``row`` at true mean ``loc``, each averaged over the blocks of the
    others' pool it does not draw. ``focal``: the sums of the collected and
    of the submitted points; ``drawn``: the drawn block sum, or None. An
    undrawn block of n points enters at its mean n loc and adds its
    variance, n v per dimension (cross-check's remainder: n (v + eta^2)),
    times its squared weight; corrupt-deploy's noise adds w_corr^2 k_pool
    eta^2.

    Inverse-variance weights of a per-round eta^2 are not formed. In units
    of a clean point's precision 1/sigma^2, a corrupted point weighs
    t = sigma^2/(sigma^2 + eta^2) and the estimate's precision is
    D = P + n_corr t, P the clean points and the prior (``row.prec``). The
    error is N/D, N the weighted deviations S - n loc of the own and drawn
    blocks less the prior's pull, (P - n_x - n_clean) loc. The corrupted
    block adds n_corr t (sigma^2 - (sigma^2 - v_c) t)/D^2 per dimension,
    w_corr^2 n_corr (v_c + eta^2) with w_corr = t/D, where v_c is the data
    variance of its points when they are undrawn (cross-check) and 0 when
    they are drawn and only their noise is not (corrupt-deploy). So a round
    scores (N^2 + n_corr t (sigma^2 - (sigma^2 - v_c) t))/D^2: two
    divisions, and exactly 0 where eta^2 = +inf and t = 0, with no guard."""
    sum_x, sum_y = focal
    if row.eta is not None:
        scale, k, k_ref = row.eta
        delta = sum_y / row.n_y - (loc if k_ref is None else drawn / k_ref)
        eta = mech.corruption_variance(scale, delta, k)
    if row.weights is None:  # not the plain mean, so the own block is the collected one
        s2, n_corr = sc.params.sigma**2, row.counts[2]
        t = np.divide(s2, np.add(eta, s2, out=eta), out=eta)
        if row.drawn == 1:  # cross-check: the drawn prefix is clean, the rest undrawn
            err, v_c = sum_x + drawn, sc.distribution.per_dim_variance
        else:  # corrupt-deploy: the drawn pool is corrupted, its noise undrawn
            err, v_c = t * (drawn - n_corr * loc) + sum_x, 0.0
        err -= row.prec * loc
        err *= err
        err += t * (n_corr * s2 - (n_corr * (s2 - v_c)) * t)
        err /= np.square(t * n_corr + row.prec)
        return _dsum(err)
    w_x, w_corr, w_loc, var = row.weights
    if row.eta is not None:  # the corrupted block's term (w_corr^2 eta^2) n_corr
        eta *= w_corr * w_corr
        eta *= row.counts[2]
        var = _dsum(eta) + var
    err = w_x * (sum_y if row.own_y else sum_x)
    if drawn is not None:  # corrupt-deploy's pool
        err += w_corr * drawn
    err += w_loc * loc - loc
    err *= err
    return _dsum(err) + var


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


# helper threads of runs with workers = w > 1: one executor of w - 1 threads
# for each w, made on first use. A forked child has none of its parent's
# threads, so it forgets them
_executors: dict[int, ThreadPoolExecutor] = {}
_executors_lock = threading.Lock()


def _forget_helpers():
    global _executors, _executors_lock
    _executors, _executors_lock = {}, threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def _drawn_ahead(draw, count: int, workers: int):
    """``draw(0)``, ..., ``draw(count - 1)``, in order (see "Worker threads"
    in the module docstring). With ``workers`` = w > 1, reaching chunk ci
    hands the chunks up to ci + w to the w - 1 helpers of the executor for w;
    the calling thread draws chunk ci itself unless a helper has started it,
    and a helper's error is raised here, at its chunk. On exit the chunks
    that no helper has started are cancelled."""
    pool = None
    if workers > 1:
        with _executors_lock:
            pool = _executors.get(workers)
            if pool is None:
                pool = _executors[workers] = ThreadPoolExecutor(
                    workers - 1, thread_name_prefix=f"meanshare-draw-{workers}")
    futures: dict[int, Future] = {}
    try:
        for ci in range(count):
            if pool:
                for cj in range(ci + len(futures), min(count, ci + workers + 1)):
                    futures[cj] = pool.submit(draw, cj)
            fut = futures.pop(ci, None)
            yield draw(ci) if fut is None or fut.cancel() else fut.result()
    finally:
        for fut in futures.values():
            fut.cancel()


def _moments(sq: np.ndarray) -> tuple[float, float, int]:
    """``(s1, s2, e)`` of a chunk's squared errors ``sq``, which it
    overwrites: their sum s1, and the sum s2 of the squares of ``sq 2^-e``.
    e is 0 unless s1 >= 2^511, and then it brings the scaled sum below 2^500,
    so every square and their sum are finite wherever s1 is; below that bound
    s1 and s2 are the plain sums, bit for bit."""
    s1 = float(sq.sum())
    e = math.frexp(s1)[1] - 500 if 2.0**511 <= s1 < math.inf else 0
    if e:
        sq *= 2.0**-e
    return s1, float(np.square(sq, out=sq).sum()), e


def _penalties(sc: Scenario, focals, path: int, chunk_size: int) -> list[EmpiricalPenalty]:
    """Empirical penalty of each profile of ``focals`` against the others of
    ``sc``, all scored on the same draws: chunk ci of chunk_size rounds draws
    from stream ``(0, path, ci)``, and the calling thread scores the chunks
    and reduces their sums in index order, whatever the worker count; the
    chunks come from :func:`_drawn_ahead`, drawn by ``sc.workers`` - 1
    helper threads and by the calling thread. Each row is planned once per
    run."""
    if not focals:
        return []
    n = sc.replications
    plans = [_plan(sc, foc) for foc in focals]
    grid = [_offsets(sc, foc) for foc in focals]
    sizes = [min(chunk_size, n - start) for start in range(0, n, chunk_size)]

    def draw(ci):
        return _draw(sc, plans, sizes[ci], spawn_stream(sc.master_seed, 0, path, ci))

    parts = [[_moments(sq) for sq in _scores(sc, plans, grid, b, draws)]
             for b, draws in zip(sizes, _drawn_ahead(draw, len(sizes), sc.workers))]
    cells = iter(range(len(parts[0])))
    out = []
    for foc, mus in zip(focals, grid):
        per_mu = []
        for mu, i in zip(mus, cells):
            # s1 in units of 2^e and s2 of 2^2e, so that neither total
            # overflows where the mean is finite; a no-op at e = 0
            e = max(x[i][2] for x in parts)
            s1 = math.fsum(math.ldexp(x[i][0], -e) for x in parts)
            s2 = math.fsum(math.ldexp(x[i][1], 2 * (x[i][2] - e)) for x in parts)
            m, unit = s1 / n, 2.0**e
            mse = m * unit
            # a cell scored +inf has an infinite, not an undefined, standard error
            se = math.sqrt(max(s2 / n - m * m, 0.0) / n) * unit if mse < math.inf else math.inf
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
    estimator swaps. The "shift 1" row shifts by one sigma, the unit of the
    CLI's ``--mu-grid``, so the menu scales with the data."""
    ns = p.n_star
    half = max(ns // 2, 1)
    return [
        Strategy(0, est.Identity(), estimator, "n=0"),
        Strategy(half, est.Identity(), estimator, f"n={half}"),
        Strategy(2 * ns, est.Identity(), estimator, f"n={2 * ns}"),
        Strategy(ns, est.Scale(0.5), estimator, "scale 0.5"),
        Strategy(ns, est.Shift(p.sigma), estimator, "shift 1"),
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
    for s, pen in zip(menu, _penalties(sc, menu, 1, max(_BLOCK_ITEMS // p.dim, 1))):
        gap = base.total - pen.total
        tol = 3.0 * math.hypot(base.std_error, pen.std_error)
        rows.append(SweepRow(s, pen, closed(s), gap > tol))
    return rows


def ir_check(sc: Scenario) -> dict:
    """Participating penalty of ``sc.focal`` vs. the best standalone
    penalty 2 sigma sqrt(c d) (``p_min_ir`` of
    :func:`analytics.baseline_penalties`)."""
    standalone = baseline_penalties(sc.params)["p_min_ir"]
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
    with fewer it pools, and the 1 + 5/m bound is not claimed.

    The mechanism corrupts coordinate by coordinate, eta^2 per dimension
    from that coordinate alone, and every estimator and family acts per
    coordinate, so the d-dimensional risk is the sum of the 1-D risks. The
    paper's abstract does not say whether its mechanism corrupts by the
    norm ||ybar - dbar||^2 instead."""
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
    pos_proxy = p.agents * base.total / baseline_penalties(p)["global_min_social"]
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
