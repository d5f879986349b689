import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from meanshare import estimators as est
from meanshare import mechanisms as mech
from meanshare import simulation
from meanshare.alphasolve import solve_alpha
from meanshare.analytics import (
    baseline_penalties,
    mechpk_exploit_risk,
    mechpk_recommended_penalty,
    penalty_closed_form,
)
from meanshare.params import (
    DistributionSpec,
    InvalidParam,
    ProblemParams,
    cost_for_n_star,
    spawn_stream,
)
from meanshare.simulation import (
    EmpiricalPenalty,
    Scenario,
    Strategy,
    default_menu,
    highdim_nic_check,
    ir_check,
    is_translation_equivariant,
    nash_deviation_sweep,
    recommended_strategy,
    run_replications,
    run_replications_reference,
)

from conftest import params_for


def _scenario(p, mechanism, focal, alpha=None, epsilon=None, reps=50_000,
              seed=7, mu_grid=(0.0,), workers=1, scale=None, family="gaussian",
              chunk_size=1 << 16):
    scale = p.sigma if scale is None else scale
    spec = DistributionSpec(family, np.zeros(p.dim), scale, p.sigma**2)
    return Scenario(params=p, mechanism=mechanism, focal=focal,
                    distribution=spec, replications=reps, master_seed=seed,
                    mu_grid=mu_grid, alpha=alpha, epsilon=epsilon,
                    workers=workers, chunk_size=chunk_size)


class TestDeterminism:
    def test_same_seed_same_result(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        sc = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                       reps=5_000)
        a = run_replications(sc)
        b = run_replications(sc)
        assert a == b

    def test_workers_byte_identical(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        sc1 = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                        reps=200_000, workers=1)
        sc4 = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                        reps=200_000, workers=4)
        a = run_replications(sc1)
        b = run_replications(sc4)
        assert a.mean_sq_error == b.mean_sq_error
        assert a.std_error == b.std_error
        assert a.per_mu == b.per_mu

    @pytest.mark.parametrize("family,scale", [
        ("gaussian", 1.0),
        ("scaled_rademacher", 1.0),
        ("uniform_box", math.sqrt(3.0)),
    ])
    def test_workers_byte_identical_per_family(self, canonical, canonical_alpha,
                                               family, scale):
        foc = recommended_strategy(canonical)
        kw = dict(alpha=canonical_alpha, reps=20_000, family=family,
                  scale=scale, chunk_size=4096)
        a = run_replications(_scenario(canonical, "cross-check", foc, workers=1, **kw))
        b = run_replications(_scenario(canonical, "cross-check", foc, workers=2, **kw))
        assert a == b

    def test_different_seed_differs(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        a = run_replications(_scenario(canonical, "cross-check", foc,
                                       alpha=canonical_alpha, reps=5_000, seed=1))
        b = run_replications(_scenario(canonical, "cross-check", foc,
                                       alpha=canonical_alpha, reps=5_000, seed=2))
        assert a.mean_sq_error != b.mean_sq_error


class TestWorkerThreads:
    # with workers = w > 1, w - 1 helper threads of one long-lived pool only
    # draw, at most w chunks ahead of the one being scored, and the calling
    # thread scores every chunk and reduces it in index order (it draws too,
    # when its next chunk is not drawn yet). At most 4 workers here
    def _sc(self, canonical, canonical_alpha, workers, reps=20_000):
        # chunks of 1 000 rounds of an equivariant row at one offset: one
        # _score call per chunk
        return _scenario(canonical, "cross-check", recommended_strategy(canonical),
                         alpha=canonical_alpha, reps=reps, chunk_size=1_000, workers=workers)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_only_the_caller_scores(self, canonical, canonical_alpha, monkeypatch, workers):
        lock, active = threading.Lock(), [0]
        draws, scores, ahead, busy = [], [], [], []
        draw, score = simulation._draw, simulation._score

        def drawing(*args):
            with lock:
                draws.append(threading.get_ident())
                # chunk indices drawn so far, less the chunks already reduced
                ahead.append(len(draws) - 1 - len(scores))
                active[0] += 1
                busy.append(active[0])
            time.sleep(0.001)
            try:
                return draw(*args)
            finally:
                with lock:
                    active[0] -= 1

        def scoring(*args):
            time.sleep(0.002)  # a slow caller: unbounded helpers would run far ahead
            out = score(*args)
            with lock:
                scores.append(threading.get_ident())
            return out

        monkeypatch.setattr(simulation, "_draw", drawing)
        monkeypatch.setattr(simulation, "_score", scoring)
        run_replications(self._sc(canonical, canonical_alpha, workers))
        assert len(draws) == len(scores) == 20
        assert set(scores) == {threading.get_ident()}
        # helpers drew while the caller scored, never more than w threads at
        # once, nor more than w chunks ahead
        assert set(draws) - {threading.get_ident()}
        assert max(busy) <= workers
        assert max(ahead) <= workers

    def test_plan_once_per_row_per_run(self, canonical, canonical_alpha, monkeypatch):
        planned = []
        plan = simulation._plan

        def counting(sc, foc):
            planned.append(foc)
            return plan(sc, foc)

        monkeypatch.setattr(simulation, "_plan", counting)
        sc = self._sc(canonical, canonical_alpha, 2)
        run_replications(sc)
        assert planned == [sc.focal]
        planned.clear()
        # 20 000 rounds: row 0 in 20 chunks, the menu in three
        rows = nash_deviation_sweep(sc)
        assert planned == [r.strategy for r in rows]

    def test_second_run_starts_no_thread(self, canonical, canonical_alpha, monkeypatch):
        sc = self._sc(canonical, canonical_alpha, 2, reps=5_000)
        first = run_replications(sc)
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        assert run_replications(sc) == first
        assert started == []

    def test_draw_error_reaches_the_caller(self, canonical, canonical_alpha, monkeypatch):
        sc = self._sc(canonical, canonical_alpha, 2, reps=5_000)
        calls, draw = [], simulation._draw

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("third chunk")
            return draw(*args)

        with monkeypatch.context() as mp:
            mp.setattr(simulation, "_draw", failing)
            with pytest.raises(RuntimeError, match="third chunk"):
                run_replications(sc)
        # the helpers live on
        assert run_replications(sc) == run_replications(replace(sc, workers=1))

    def test_stress_many_small_chunks(self, canonical, canonical_alpha):
        # 4 workers on short chunks with a tiny switch interval: a chunk lost
        # or reduced twice changes the sums, and a missed wake-up hangs
        foc = Strategy(10, est.Scale(0.5), est.RecommendedWeighted())
        sc = replace(self._sc(canonical, canonical_alpha, 4, reps=6_000), chunk_size=30,
                     mu_grid=(0.0, 5.0), focal=foc)
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=lambda: out.update(many=run_replications(sc)))
            run.start()
            run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive()
        assert out["many"] == run_replications(replace(sc, workers=1))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_helpers(self, canonical, canonical_alpha):
        # a forked child has none of its parent's threads, so it must not
        # wait on the parent's pool
        sc = self._sc(canonical, canonical_alpha, 2, reps=5_000)
        expected = run_replications(sc)

        def child():
            os._exit(0 if run_replications(sc) == expected else 3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    @pytest.mark.parametrize("other", [2, 4])
    def test_two_callers_at_once(self, canonical, canonical_alpha, other):
        # two runs on two calling threads at once, at 2 workers and at
        # ``other``: at 2 and 2 both hand their chunks to one helper, and a
        # chunk given to the wrong run, lost or reduced twice changes its sums
        scs = [replace(self._sc(canonical, canonical_alpha, 2, reps=6_000), chunk_size=100),
               replace(self._sc(canonical, canonical_alpha, other, reps=6_000), chunk_size=100,
                       master_seed=8, mu_grid=(0.0, 5.0),
                       focal=Strategy(10, est.Scale(0.5), est.RecommendedWeighted()))]
        expected = [run_replications(replace(sc, workers=1)) for sc in scs]
        out = {}
        runs = [threading.Thread(target=lambda i=i: out.update({i: run_replications(scs[i])}))
                for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        assert [out[0], out[1]] == expected


class TestClosedFormAgreement:
    def test_pool_recommended_mse(self, canonical):
        # all m n* points honest: MSE = sigma^2 / (m n*) = 1/90
        foc = recommended_strategy(canonical, "pool")
        pen = run_replications(_scenario(canonical, "pool", foc, reps=200_000))
        assert abs(pen.mean_sq_error - 1.0 / 90.0) < 3 * pen.std_error

    def test_pool_free_rider(self, canonical):
        # n=0 free rider on (m-1) n* points: MSE = sigma^2 / 80. The pool is
        # integrated out, so every round scores the exact risk
        foc = Strategy(0, est.Identity(), est.PlainMeanAll(), "free rider")
        pen = run_replications(_scenario(canonical, "pool", foc, reps=200_000))
        assert pen.std_error == 0.0
        assert pen.mean_sq_error == pytest.approx(1.0 / 80.0, rel=1e-12)
        fr = baseline_penalties(canonical)["free_rider_penalty"]
        assert fr == pytest.approx(1.0 / 80.0, rel=1e-12)
        assert pen.total == pytest.approx(fr, rel=1e-12)

    def test_cross_check_recommended_vs_closed_form(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        pen = run_replications(_scenario(canonical, "cross-check", foc,
                                         alpha=canonical_alpha, reps=400_000))
        closed = penalty_closed_form(canonical.n_star, canonical, canonical_alpha)
        assert abs(pen.total - closed) < 3 * pen.std_error

    def test_corrupt_deploy_recommended(self, canonical):
        # deployed risk (1 + 1/k) sigma^2/(m n*); total (2 + 1/k) sigma sqrt(c/m)
        for eps, k in ((0.5, 1), (0.25, 2), (0.1, 5)):
            foc = recommended_strategy(canonical, "corrupt-deploy", eps)
            pen = run_replications(_scenario(canonical, "corrupt-deploy", foc,
                                             epsilon=eps, reps=200_000))
            expect = mechpk_recommended_penalty(canonical, eps)
            assert abs(pen.total - expect) < 3 * pen.std_error

    def test_corrupt_deploy_exploit(self, canonical):
        # own data + fixed-weight read of the corrupted pool beats deployment
        eps = 0.5
        k = 1
        tau_sq = (1.0 / k) * canonical.agents / (canonical.agents - 1) * canonical.sigma**2
        foc = Strategy(canonical.n_star, est.Identity(),
                       est.FixedWeighted(tau_sq), "exploit")
        pen = run_replications(_scenario(canonical, "corrupt-deploy", foc,
                                         epsilon=eps, reps=400_000))
        deployed, exploit = mechpk_exploit_risk(canonical, eps)
        assert abs(pen.mean_sq_error - exploit) < 3 * pen.std_error
        assert exploit == pytest.approx(17.0 / 810.0, rel=1e-12)
        assert pen.mean_sq_error < deployed

    def test_cross_check_eta_matches_expectation(self, canonical, canonical_alpha):
        # honest focal: E[eta^2] = alpha^2 (sigma^2/n* + sigma^2/n*) = 2 a^2 s^2 / n*
        # checked indirectly: clean-only estimator risk = sigma^2/(2 n*)
        foc = Strategy(canonical.n_star, est.Identity(), est.CleanOnlyMean(), "clean")
        pen = run_replications(_scenario(canonical, "cross-check", foc,
                                         alpha=canonical_alpha, reps=200_000))
        assert abs(pen.mean_sq_error - 1.0 / 20.0) < 3 * pen.std_error

    def test_zero_variance_data(self):
        # scaled_rademacher with scale 0 is a point mass: plain pooling has
        # exactly zero error
        p = params_for(9)
        spec = DistributionSpec("scaled_rademacher", np.zeros(1), 0.0, p.sigma**2)
        foc = Strategy(p.n_star, est.Identity(), est.PlainMeanAll(), "point mass")
        sc = Scenario(p, "pool", foc, spec, 1_000, 3)
        pen = run_replications(sc)
        assert pen.mean_sq_error == 0.0


class TestReferenceAgreement:
    # each test runs both paths at 40 000 rounds and fails when they differ
    # by 4 combined standard errors; the comments give that gate as a share
    # of the risk (seed 7), so an engine bias above that share fails the test

    # gate: pool and size-check 2.9 %, corrupt-deploy 5.3 %, cross-check
    # 3.9 % (Gaussian) and 3.7 % (Rademacher)
    @pytest.mark.parametrize("mechanism,kw", [
        ("pool", {}),
        ("size-check", {}),
        ("corrupt-deploy", {"epsilon": 0.5}),
        ("cross-check", {"alpha": None}),
        pytest.param("cross-check", {"alpha": None, "family": "scaled_rademacher"},
                     id="cross-check-rademacher"),
    ])
    def test_fast_vs_reference(self, canonical, canonical_alpha, mechanism, kw):
        if "alpha" in kw:
            kw["alpha"] = canonical_alpha
        foc = recommended_strategy(canonical, mechanism, kw.get("epsilon"))
        fast = run_replications(_scenario(canonical, mechanism, foc, reps=40_000, **kw))
        ref = run_replications_reference(
            _scenario(canonical, mechanism, foc, reps=40_000, **kw))
        tol = 4 * math.hypot(fast.std_error, ref.std_error)
        assert abs(fast.mean_sq_error - ref.mean_sq_error) < tol

    # gate: 4.0 % of the risk
    def test_fast_vs_reference_deviation(self, canonical, canonical_alpha):
        foc = Strategy(5, est.Shift(1.0), est.RecommendedWeighted(), "shift")
        fast = run_replications(_scenario(canonical, "cross-check", foc,
                                          alpha=canonical_alpha, reps=40_000))
        ref = run_replications_reference(
            _scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                      reps=40_000))
        tol = 4 * math.hypot(fast.std_error, ref.std_error)
        assert abs(fast.mean_sq_error - ref.mean_sq_error) < tol

    # canonical n* = 10; the engine reads every rule but fabrication through
    # running sums of the collected points, where the reference path has the
    # points themselves, and draws the fabricated points as one sum, whose spread term is nonzero
    # only when more than one point is collected. gate: 3.8-4.5 % of the
    # risk in every cell
    @pytest.mark.parametrize("n,submission,mu_grid,family", [
        (5, est.Identity(), (0.0,), "gaussian"),
        (10, est.Subset(5), (0.0,), "gaussian"),
        (1, est.FabricateFitGaussian(10), (0.0,), "gaussian"),
        (10, est.Scale(0.5), (0.0, 5.0), "gaussian"),
        (10, est.SubmitConstant(0.0), (0.0, 5.0), "gaussian"),
        (1, est.Empty(), (0.0,), "gaussian"),
        (10, est.ShrinkEll(1.0), (0.0,), "gaussian"),
        (10, est.Subset(5), (0.0,), "scaled_rademacher"),
        (10, est.Subset(5), (0.0,), "uniform_box"),
        (5, est.FabricateFitGaussian(10), (0.0,), "gaussian"),
        (5, est.FabricateFitGaussian(10), (0.0,), "uniform_box"),
    ], ids=["n=n*/2", "subset n*/2", "fabricate n* from 1", "scale 0.5", "constant 0",
            "submit nothing from 1", "shrink ell=1", "subset n*/2 rademacher",
            "subset n*/2 uniform_box", "fabricate n* from 5", "fabricate n* from 5 uniform_box"])
    def test_fast_vs_reference_cross_check_menu(self, canonical, canonical_alpha, n,
                                                 submission, mu_grid, family):
        foc = Strategy(n, submission, est.RecommendedWeighted())
        scale = math.sqrt(3.0) if family == "uniform_box" else 1.0
        kw = dict(alpha=canonical_alpha, mu_grid=mu_grid, family=family, scale=scale)
        fast = run_replications(_scenario(canonical, "cross-check", foc, reps=40_000, **kw))
        ref = run_replications_reference(
            _scenario(canonical, "cross-check", foc, reps=40_000, **kw))
        assert len(fast.per_mu) == len(ref.per_mu) == len(mu_grid)
        for (mu, fast_mse, fast_se), (_, ref_mse, ref_se) in zip(fast.per_mu, ref.per_mu):
            tol = 4 * math.hypot(fast_se, ref_se)
            assert abs(fast_mse - ref_mse) < tol, mu

    # gate: size-check 2.9 %, corrupt-deploy 4.7 % of the risk
    @pytest.mark.parametrize("mechanism,kw", [
        ("size-check", {}),
        ("corrupt-deploy", {"epsilon": 0.5}),
    ])
    def test_fast_vs_reference_shift(self, canonical, mechanism, kw):
        foc = Strategy(canonical.n_star, est.Shift(1.0),
                       recommended_strategy(canonical, mechanism).estimator, "shift 1")
        fast = run_replications(_scenario(canonical, mechanism, foc, reps=40_000, **kw))
        ref = run_replications_reference(_scenario(canonical, mechanism, foc, reps=40_000, **kw))
        tol = 4 * math.hypot(fast.std_error, ref.std_error)
        assert abs(fast.mean_sq_error - ref.mean_sq_error) < tol

    # gate: 2.2 % of the risk
    def test_fast_vs_reference_uniform_box_fixed_weighted(self):
        p = ProblemParams(1.0, 1.0 / 300.0, 9, 3)
        from meanshare.alphasolve import solve_alpha
        alpha = solve_alpha(p).alpha
        foc = Strategy(p.n_star, est.Identity(),
                       est.FixedWeighted(2 * alpha**2 * p.sigma**2 / p.n_star), "fixed")
        kw = dict(alpha=alpha, family="uniform_box", scale=math.sqrt(3.0))
        fast = run_replications(_scenario(p, "cross-check", foc, reps=40_000, **kw))
        ref = run_replications_reference(_scenario(p, "cross-check", foc, reps=40_000, **kw))
        tol = 4 * math.hypot(fast.std_error, ref.std_error)
        assert abs(fast.mean_sq_error - ref.mean_sq_error) < tol

    # cross-check rows whose weights do not read eta^2 integrate the prefix
    # out: it enters at its mean, and eta^2 at its conditional mean
    @pytest.mark.parametrize("estimator,submission,mu_grid,family", [
        (est.PlainMeanAll(), est.Identity(), (0.0,), "gaussian"),
        (est.CleanOnlyMean(), est.Identity(), (0.0,), "gaussian"),
        (est.PlainMeanAll(), est.Identity(), (0.0,), "scaled_rademacher"),
        (est.CleanOnlyMean(), est.Identity(), (0.0,), "scaled_rademacher"),
        (est.PlainMeanAll(), est.Scale(0.5), (0.0, 5.0), "gaussian"),
        (est.CleanOnlyMean(), est.Scale(0.5), (0.0, 5.0), "scaled_rademacher"),
    ], ids=["plain", "clean only", "plain rademacher", "clean only rademacher",
            "plain scale 0.5", "clean only scale 0.5 rademacher"])
    def test_fast_vs_reference_constant_weights(self, canonical, canonical_alpha, estimator,
                                                submission, mu_grid, family):
        foc = Strategy(canonical.n_star, submission, estimator)
        kw = dict(alpha=canonical_alpha, mu_grid=mu_grid, family=family, reps=40_000)
        fast = run_replications(_scenario(canonical, "cross-check", foc, **kw))
        ref = run_replications_reference(_scenario(canonical, "cross-check", foc, **kw))
        assert len(fast.per_mu) == len(ref.per_mu) == len(mu_grid)
        for (mu, fast_mse, fast_se), (_, ref_mse, ref_se) in zip(fast.per_mu, ref.per_mu):
            assert abs(fast_mse - ref_mse) < 4 * math.hypot(fast_se, ref_se), mu

    # a sweep's menu rows read running sums of the focal points, drawn in
    # increments at every count some row reads: "n=20" sums four increments
    # and "subset 5" reads the sums at 5 and 10
    @pytest.mark.parametrize("family,dim,fixed", [
        ("uniform_box", 3, True), ("scaled_rademacher", 1, False),
    ], ids=["uniform_box-d3-fixed", "scaled_rademacher-recommended"])
    def test_fast_vs_reference_menu_rows(self, family, dim, fixed):
        p = params_for(9, dim=dim)
        alpha = solve_alpha(p).alpha
        estimator = (est.FixedWeighted(2 * alpha**2 * p.sigma**2 / p.n_star) if fixed
                     else est.RecommendedWeighted())
        scale = math.sqrt(3.0) if family == "uniform_box" else 1.0
        sc = _scenario(p, "cross-check", Strategy(p.n_star, est.Identity(), estimator),
                       alpha=alpha, reps=40_000, family=family, scale=scale)
        rows = {r.strategy.label: r for r in nash_deviation_sweep(sc)}
        for label in ("subset 5", "n=20"):
            fast = rows[label].penalty
            ref = run_replications_reference(replace(sc, focal=rows[label].strategy))
            assert abs(fast.mean_sq_error - ref.mean_sq_error) < \
                4 * math.hypot(fast.std_error, ref.std_error), label

    @pytest.mark.parametrize("mechanism,per_cell,agents", [
        ("pool", 1, 9), ("size-check", 1, 9), ("corrupt-deploy", 2, 9), ("cross-check", 2, 9),
        ("cross-check", 1, 4),
    ], ids=["pool-1", "size-check-1", "corrupt-deploy-2", "cross-check-2", "cross-check-m4-1"])
    def test_reference_spawns_streams_only_where_drawn(self, canonical_alpha, monkeypatch,
                                                       mechanism, per_cell, agents):
        # per mean offset, one stream for the agents' data, plus one mechanism
        # stream where the mechanism draws: corrupt-deploy, and cross-check
        # with m >= 5; at 2 rounds per block, 7 rounds span 4 blocks
        p = params_for(agents)
        calls = []
        monkeypatch.setattr(simulation, "_REFERENCE_BLOCK_ITEMS", 2 * (agents - 1) * p.n_star)

        def counting(*args):
            calls.append(args)
            return spawn_stream(*args)

        monkeypatch.setattr(simulation, "spawn_stream", counting)
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        for reps in (1, 7):
            calls.clear()
            sc = _scenario(p, mechanism, recommended_strategy(p, mechanism),
                           alpha=canonical_alpha, epsilon=eps, reps=reps, mu_grid=(0.0, 5.0))
            run_replications_reference(sc)
            assert len(calls) == per_cell
            pen = run_replications_reference(replace(sc, focal=Strategy(
                p.n_star, est.Scale(0.5), sc.focal.estimator)))
            assert len(pen.per_mu) == 2
            assert len(calls) == 3 * per_cell


class TestReferenceBlocks:
    # the reference path plays each mean offset's rounds a block at a time
    # only size-check leaves an estimator's cell without data: pool and
    # cross-check hand every agent some of the others' points
    @pytest.mark.parametrize("mechanism,agents", [("size-check", 9)], ids=["size-check"])
    def test_cell_without_weighted_data_scores_inf(self, monkeypatch, mechanism, agents):
        # the clean-only mean of an agent that collects nothing, and so is
        # handed nothing, raises EmptyInput in the first block; every round of
        # the cell scores +inf, and so do its mean and standard error
        p = params_for(agents)
        monkeypatch.setattr(simulation, "_REFERENCE_BLOCK_ITEMS", 2 * (agents - 1) * p.n_star)
        foc = Strategy(0, est.Identity(), est.CleanOnlyMean(), "no own data")
        sc = _scenario(p, mechanism, foc, reps=7)
        sq = simulation._reference_sq_errors(sc, 0, 0.0)
        assert sq.shape == (7,) and np.all(sq == math.inf)
        pen = run_replications_reference(sc)
        assert pen.per_mu == ((0.0, math.inf, math.inf),)
        assert pen.total == math.inf

    @pytest.mark.parametrize("n,submission", [(1, est.Empty()), (0, est.Identity())],
                             ids=["submit nothing", "n=0"])
    def test_corrupt_deploy_rejects_empty_submission(self, canonical, n, submission):
        # corrupt-and-deploy needs every submission nonempty, on both paths
        foc = Strategy(n, submission, est.PlainMeanAll())
        sc = _scenario(canonical, "corrupt-deploy", foc, epsilon=0.5, reps=7)
        for run in (run_replications, run_replications_reference):
            with pytest.raises(mech.EmptySubmission):
                run(sc)

    def test_pool_memory_is_bounded(self):
        # at m = 100 a round's pool holds 990 points: 5 000 rounds of them
        # take 40 MB per array if drawn at once, and a block of 1 059 rounds
        # 8.4 MB
        p = params_for(100)
        sc = _scenario(p, "pool", recommended_strategy(p, "pool"), reps=5_000)
        tracemalloc.start()
        try:
            run_replications_reference(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_block_holds_at_most_four_pools(self, mechanism):
        # at m = 100 a block of 1 059 rounds has a pool of 8.4 MB; it holds at
        # most four pool-sized arrays at once (cross-check: the others' draw,
        # the pool, the permutation and the remainder), and frees them before
        # the next block draws
        p = params_for(100)
        alpha = solve_alpha(p).alpha if mechanism == "cross-check" else None
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        sc = _scenario(p, mechanism, recommended_strategy(p, mechanism), alpha=alpha,
                       epsilon=eps, reps=5_000)
        rows = simulation._REFERENCE_BLOCK_ITEMS // (99 * p.n_star)
        pool_bytes = rows * 99 * p.n_star * 8
        tracemalloc.start()
        try:
            run_replications_reference(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.1 * pool_bytes


def _list_reference_sq_errors(sc, mi, mu):
    """The reference rounds of one mean offset, played in full as one block:
    every agent is served in index order from the offset's mechanism stream
    and agent 0's allocation is scored, and the others' data are drawn in
    m - 1 calls."""
    p = sc.params
    d, ns, m, b = p.dim, p.n_star, p.agents, sc.replications
    spec, foc = sc.distribution, sc.focal
    agent_stream = spawn_stream(sc.master_seed, 1000, mi)
    stream = spawn_stream(sc.master_seed, 2000, mi)
    X = spec.sample(agent_stream, (b, foc.n, d), mu)
    Y = est.apply_submission(foc.submission, X, p, agent_stream)
    subs = [Y] + [spec.sample(agent_stream, (b, ns, d), mu) for _ in range(m - 1)]
    no_data = np.empty((b, 0, d))
    if sc.mechanism == "corrupt-deploy":
        dep = [mech.mech_corrupt_deploy(subs, i, p, sc.epsilon, stream) for i in range(m)][0]
        alloc = mech.Allocation(no_data, dep.corrupted, dep.eta_sq)
    elif sc.mechanism == "cross-check":
        alloc = [mech.mech_cross_check_corrupt(subs, i, p, sc.alpha, stream if m >= 5 else None)
                 for i in range(m)][0]
    else:
        pools = [mech.mech_pool(subs, i) if sc.mechanism == "pool"
                 else mech.mech_size_check(subs, i, p) for i in range(m)]
        alloc = mech.Allocation(pools[0], no_data, np.zeros(d))
    if sc.mechanism == "corrupt-deploy" and isinstance(foc.estimator, est.PlainMeanAll):
        v = dep.value
    else:
        v = est.estimate(foc.estimator, X, alloc, p.sigma)
    return np.square(v - (spec.mean + mu)).sum(axis=-1)


class TestReferenceRoundPin:
    # the reference path serves agent 0 alone and draws the others' data in
    # one call per block of rounds; every round of a block must stay bit for
    # bit what a full round, with every agent served and one draw per other
    # agent, gives
    DEVIATIONS = {
        "pool": Strategy(0, est.Identity(), est.PlainMeanAll(), "free rider"),
        "size-check": Strategy(10, est.Subset(5), est.PlainMeanAll(), "subset 5"),
        "corrupt-deploy": Strategy(10, est.Shift(1.0), est.FixedWeighted(1.0), "shift 1"),
        "cross-check": Strategy(1, est.FabricateFitGaussian(10), est.RecommendedWeighted(),
                                "fabricate 10 from 1"),
    }

    @pytest.mark.parametrize("family,dim,scale", [
        ("gaussian", 1, 1.0), ("uniform_box", 3, math.sqrt(3.0)), ("scaled_rademacher", 1, 1.0),
    ], ids=["gaussian", "uniform_box-d3", "scaled_rademacher"])
    @pytest.mark.parametrize("m", [4, 9])
    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_rounds_match_list_mechanisms(self, mechanism, m, family, dim, scale):
        p = params_for(m, dim=dim)
        alpha = solve_alpha(p).alpha if mechanism == "cross-check" and m >= 5 else None
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        finite = 0
        for foc in (recommended_strategy(p, mechanism), self.DEVIATIONS[mechanism]):
            sc = _scenario(p, mechanism, foc, alpha=alpha, epsilon=eps, reps=3, seed=19,
                           family=family, scale=scale)
            for mi, mu in ((0, 0.0), (1, 5.0)):
                got = simulation._reference_sq_errors(sc, mi, mu)
                assert got.tobytes() == _list_reference_sq_errors(sc, mi, mu).tobytes()
                finite += np.isfinite(got).sum()
        assert finite == 12


BLOCK_SUM_RULES = [est.Identity(), est.Scale(0.5), est.Shift(1.0), est.SubmitConstant(0.0),
                   est.Subset(5), est.Empty(), est.ShrinkEll(1.0)]


class TestCorruptDeployNoise:
    # given the drawn pool sum, corrupt-deploy's noise enters the estimate
    # linearly, so the engine integrates it out instead of drawing it

    def test_chunk_draws_no_noise(self):
        # uniform sums come from standard uniforms, so a standard normal call
        # could only be the noise; the engine used to make one (b, d) call
        p = params_for(9, dim=3)
        calls = []

        class Counting:
            def __init__(self, stream):
                self._stream = stream

            def standard_normal(self, *args, **kwargs):
                calls.append(args)
                return self._stream.standard_normal(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._stream, name)

        sc = _scenario(p, "corrupt-deploy", recommended_strategy(p, "corrupt-deploy"),
                       epsilon=0.5, family="uniform_box", scale=math.sqrt(3.0))
        exploit = Strategy(p.n_star, est.Identity(), est.RecommendedWeighted())
        rows = [(sc.focal, (0.0, 5.0)), (exploit, (0.0,))]
        sqs = list(simulation._chunk_sq_errors(sc, rows, 1_000, Counting(spawn_stream(3, 0))))
        assert calls == []
        assert len(sqs) == 3 and all(np.all(np.isfinite(sq)) for sq in sqs)

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_calibrated_over_seeds(self, canonical, eps):
        # the grand mean of 40 seeds of 50 000 rounds, for the deployed and
        # the exploit estimator, within 4 standard errors taken across the
        # seeds of the exact risks
        k = mech.k_eps(eps)
        tau_sq = (1.0 / k) * canonical.agents / (canonical.agents - 1) * canonical.sigma**2
        deployed = recommended_strategy(canonical, "corrupt-deploy")
        exploit = Strategy(canonical.n_star, est.Identity(), est.FixedWeighted(tau_sq))
        for foc, exact in zip((deployed, exploit), mechpk_exploit_risk(canonical, eps)):
            means = [run_replications(_scenario(canonical, "corrupt-deploy", foc, epsilon=eps,
                                                seed=seed)).mean_sq_error for seed in range(40)]
            se = np.std(means, ddof=1) / math.sqrt(len(means))
            assert abs(np.mean(means) - exact) < 4 * se

    def test_noise_variance_scaled_by_the_weight_first(self, canonical):
        # submitting 1e153 at eps = 0.5 makes eta^2 about 1e307: finite, while
        # k_pool eta^2 is not. The exploit's weight on the pool is then about
        # 1e-308, so the pool adds nothing and the risk is the own data's,
        # sigma^2/n*; formed the other way round, k_pool eta^2 would overflow
        foc = Strategy(canonical.n_star, est.SubmitConstant(1e153), est.RecommendedWeighted())
        pen = run_replications(_scenario(canonical, "corrupt-deploy", foc, epsilon=0.5,
                                         reps=4_000))
        assert abs(pen.mean_sq_error - 1.0 / canonical.n_star) < 4 * pen.std_error


class TestFocalBlockSums:
    # the engine draws the focal agent's data as block sums, and points only
    # for fabrication, whose fitted sd reads the points themselves; uniform
    # sums are drawn from standard uniforms, not through the point sampler
    @pytest.mark.parametrize("family", ["gaussian", "scaled_rademacher", "uniform_box"])
    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_no_point_draws_on_exact_sum_families(self, canonical, canonical_alpha, monkeypatch,
                                                  mechanism, family):
        calls = []
        sample = DistributionSpec.sample

        def counting(self, *args, **kwargs):
            calls.append(args[1])
            return sample(self, *args, **kwargs)

        monkeypatch.setattr(DistributionSpec, "sample", counting)
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        sc = _scenario(canonical, mechanism, recommended_strategy(canonical, mechanism),
                       alpha=canonical_alpha, epsilon=eps, family=family)
        for rule in BLOCK_SUM_RULES:
            if mechanism == "corrupt-deploy" and isinstance(rule, est.Empty):
                continue  # corrupt-and-deploy rejects an empty submission
            foc = Strategy(canonical.n_star, rule, sc.focal.estimator)
            sq, = simulation._chunk_sq_errors(sc, [(foc, (5.0,))], 64, spawn_stream(3, 0))
            assert sq.shape == (64,) and np.all(np.isfinite(sq))
        assert calls == []
        foc = Strategy(1, est.FabricateFitGaussian(10), sc.focal.estimator)
        list(simulation._chunk_sq_errors(sc, [(foc, (5.0,))], 64, spawn_stream(3, 0)))
        assert calls == [(64, 1, 1)]

    @pytest.mark.parametrize("family,scale", [
        ("gaussian", 1.0), ("scaled_rademacher", 1.0), ("uniform_box", math.sqrt(3.0)),
    ], ids=["gaussian", "scaled_rademacher", "uniform_box"])
    @pytest.mark.parametrize("rule", [*BLOCK_SUM_RULES, est.FabricateFitGaussian(10)], ids=repr)
    def test_workers_byte_identical(self, canonical, canonical_alpha, rule, family, scale):
        foc = Strategy(canonical.n_star, rule, est.RecommendedWeighted())
        kw = dict(alpha=canonical_alpha, reps=6_000, family=family, scale=scale,
                  chunk_size=1_000, mu_grid=(0.0, 5.0))
        a = run_replications(_scenario(canonical, "cross-check", foc, workers=1, **kw))
        b = run_replications(_scenario(canonical, "cross-check", foc, workers=2, **kw))
        assert math.isfinite(a.total)
        assert a == b

    def test_uniform_chunk_memory_is_bounded(self):
        # corrupt-deploy draws the (m - 1) n* points of each round's pool on
        # uniform data; one default chunk of them at m = 9, d = 3 is 126 MB
        # if drawn at once
        p = params_for(9, dim=3)
        sc = _scenario(p, "corrupt-deploy", recommended_strategy(p, "corrupt-deploy"),
                       epsilon=0.5, family="uniform_box", scale=math.sqrt(3.0))
        tracemalloc.start()
        try:
            list(simulation._chunk_sq_errors(sc, [(sc.focal, (0.0,))], sc.chunk_size,
                                             spawn_stream(3, 0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestSharedDraws:
    # every mean offset of the grid is scored on one draw per chunk, made at
    # offset 0; a k-point block sum at offset mu is that draw plus k mu
    NON_EQUIVARIANT = [
        (est.Scale(0.5), None),
        (est.Subset(5), est.PosteriorMean(1.0)),
    ]

    @pytest.mark.parametrize("family,dim,scale", [
        ("gaussian", 1, 1.0), ("uniform_box", 3, math.sqrt(3.0)),
    ], ids=["gaussian", "uniform_box-d3"])
    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_each_offset_matches_a_run_at_that_offset_alone(self, mechanism, family, dim, scale):
        p = params_for(9, dim=dim)
        alpha = solve_alpha(p).alpha if mechanism == "cross-check" else None
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        for rule, estimator in self.NON_EQUIVARIANT:
            estimator = estimator or recommended_strategy(p, mechanism).estimator
            sc = _scenario(p, mechanism, Strategy(p.n_star, rule, estimator), alpha=alpha,
                           epsilon=eps, reps=3_000, chunk_size=1_000, family=family,
                           scale=scale, mu_grid=simulation.DEFAULT_MU_GRID_SCALE)
            full = run_replications(sc)
            assert len(full.per_mu) == 5
            for cell in full.per_mu:
                assert run_replications(replace(sc, mu_grid=(cell[0],))).per_mu == (cell,)

    @pytest.mark.parametrize("mechanism,per_chunk", [
        ("pool", 2), ("size-check", 2), ("corrupt-deploy", 3), ("cross-check", 3),
    ])
    def test_sum_draws_do_not_grow_with_the_grid(self, canonical, canonical_alpha, monkeypatch,
                                                 mechanism, per_chunk):
        # Subset draws two focal blocks; corrupt-deploy adds the pool sum and
        # cross-check the prefix sum
        calls = []
        sample_sum = DistributionSpec.sample_sum

        def counting(self, *args, **kwargs):
            calls.append(args[2])
            return sample_sum(self, *args, **kwargs)

        monkeypatch.setattr(DistributionSpec, "sample_sum", counting)
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        foc = Strategy(canonical.n_star, est.Subset(5), est.PosteriorMean(1.0))
        sc = _scenario(canonical, mechanism, foc, alpha=canonical_alpha, epsilon=eps,
                       reps=3_000, chunk_size=1_000)
        for grid in ((0.0,), simulation.DEFAULT_MU_GRID_SCALE):
            calls.clear()
            pen = run_replications(replace(sc, mu_grid=grid))
            assert len(pen.per_mu) == len(grid)
            assert len(calls) == 3 * per_chunk

    def test_draw_footprint_is_its_output(self):
        # each running sum's increment is drawn and then added in place, and a
        # Gaussian sum is scaled and shifted in place, so a chunk's draw peaks
        # at the arrays it returns, plus numpy's ufunc buffer of one 64 KiB
        # block for the shift; forming each running sum as a new array held
        # one more (b, d) array
        p = params_for(9, dim=3)
        menu = [s for s in default_menu(p, est.RecommendedWeighted())
                if not isinstance(s.submission, est.FabricateFitGaussian)]
        sc = _scenario(p, "cross-check", menu[0], alpha=solve_alpha(p).alpha)
        plans = [simulation._plan(sc, foc) for foc in menu]
        simulation._draw(sc, plans, 8, spawn_stream(5, 0))  # first-call allocations stay out
        tracemalloc.start()
        try:
            focal, drawn = simulation._draw(sc, plans, 30_000, spawn_stream(5, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = {id(a): a for a in (drawn, *(a for sums in focal for a in sums))}
        # the sums at 0, 1, 5, 10 and 20 points and the drawn prefix
        assert len(out) == 6
        assert peak <= sum(a.nbytes for a in out.values()) + 8 * 8192 + 4096

    def test_fabrication_draw_footprint(self):
        # a fabrication row's fitted sd is taken in place on its (b, n, d)
        # points, so its draw peaks at those points and four (b, d) arrays:
        # the two sums it returns, the sd and one temporary. X.std(axis=1)
        # held a second (b, n, d) array
        p = params_for(9, dim=3)
        foc = Strategy(p.n_star, est.FabricateFitGaussian(p.n_star), est.RecommendedWeighted())
        sc = _scenario(p, "pool", foc)
        plans = [simulation._plan(sc, foc)]
        simulation._draw(sc, plans, 8, spawn_stream(5, 0))  # first-call allocations stay out
        b = 30_000
        tracemalloc.start()
        try:
            simulation._draw(sc, plans, b, spawn_stream(5, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * b * p.dim * (p.n_star + 4) + 8 * 8192 + 4096

    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_row_blocks_score_like_one_block(self, monkeypatch, mechanism):
        # 5 000 rounds at d = 3 span two score blocks of 2 730 rounds; a
        # round's score must not depend on the block it falls in
        p = params_for(9, dim=3)
        alpha = solve_alpha(p).alpha if mechanism == "cross-check" else None
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        mus = simulation.DEFAULT_MU_GRID_SCALE
        for foc in (Strategy(p.n_star, est.Scale(0.5), est.PosteriorMean(1.0)),
                    Strategy(1, est.FabricateFitGaussian(10), est.RecommendedWeighted()),
                    Strategy(0, est.Identity(), est.CleanOnlyMean())):
            sc = _scenario(p, mechanism, foc, alpha=alpha, epsilon=eps, family="uniform_box",
                           scale=math.sqrt(3.0))
            if mechanism == "corrupt-deploy" and foc.n == 0:
                continue  # corrupt-and-deploy rejects an empty submission
            blocked = list(simulation._chunk_sq_errors(sc, [(foc, mus)], 5_000, spawn_stream(3, 0)))
            with monkeypatch.context() as mp:
                mp.setattr(simulation, "_BLOCK_ITEMS", 10**9)
                whole = list(simulation._chunk_sq_errors(sc, [(foc, mus)], 5_000,
                                                         spawn_stream(3, 0)))
            for a, b in zip(blocked, whole, strict=True):
                assert a.tobytes() == b.tobytes()
            # size-check hands an agent that collects nothing no data at all
            assert np.all(np.isinf(whole[0])) == (foc.n == 0 and mechanism == "size-check")


def _formula_score(sc, foc, focal, drawn, loc):
    """The score of a block of rounds, transcribed from its formula: the
    linear estimate's squared error plus the undrawn blocks' conditional
    variance, each block's term guarded where its weight is 0."""
    p, v = sc.params, sc.distribution.per_dim_variance
    ns, m = p.n_star, p.agents
    sum_x, sum_y = focal
    if isinstance(foc.submission, est.FabricateFitGaussian):
        n_y = foc.submission.n_fake
    else:
        n_y = est._affine(foc.submission, foc.n, p)[0]
    k_pool = (m - 1) * ns
    own, eta_sq = (sum_x, foc.n), 0.0
    clean, corrupted = (k_pool * loc, k_pool, k_pool * v), (0.0, 0, 0.0)
    if sc.mechanism == "size-check" and n_y < ns:
        clean = (0.0, 0, 0.0)
    elif sc.mechanism == "corrupt-deploy":
        k = mech.k_eps(sc.epsilon)
        delta = sum_y / n_y - drawn / k_pool
        eta_sq = mech.beta_sq_published(n_y + k_pool, p, k) * delta ** (2 * k)
        clean, corrupted = (0.0, 0, 0.0), (drawn, k_pool, k_pool * eta_sq)
        if isinstance(foc.estimator, est.PlainMeanAll):
            own = (sum_y, n_y)
    elif sc.mechanism == "cross-check" and m >= 5:
        if drawn is None:  # the prefix integrated out, eta^2 at its conditional mean
            clean = (ns * loc, ns, ns * v)
            eta_sq = sc.alpha**2 * ((sum_y / n_y - loc) ** 2 + v / ns) if n_y else np.inf
        else:
            clean = (drawn, ns, 0.0)
            eta_sq = sc.alpha**2 * (sum_y / n_y - drawn / ns) ** 2 if n_y else np.inf
        eta_sq = np.broadcast_to(eta_sq, sum_y.shape)
        corrupted = (k_pool - ns) * loc, k_pool - ns, (k_pool - ns) * (v + eta_sq)
    try:
        w_x, w_clean, w_corr = est._block_weights(foc.estimator, own[1], clean[1], corrupted[1],
                                                  eta_sq, p.sigma)
    except est.EmptyInput:
        return np.full(len(sum_x), np.inf)
    err = w_x * own[0] + w_clean * clean[0] + w_corr * corrupted[0] - loc
    with np.errstate(invalid="ignore"):  # 0 * inf, dropped by np.where
        var = sum(np.where(w == 0, 0.0, w * w * np.asarray(blk, float))
                  for w, blk in ((w_clean, clean[2]), (w_corr, corrupted[2])))
    return (err**2 + var).sum(axis=1)


class TestScoreKernel:
    # the engine's score kernel against _formula_score, on the kernel's own
    # inputs, round by round: every menu row at every offset of the default
    # grid, with every estimator, under every mechanism
    ESTIMATORS = [est.RecommendedWeighted(), est.FixedWeighted(0.9), est.PlainMeanAll(),
                  est.CleanOnlyMean(), est.PosteriorMean(1.0)]

    @pytest.mark.parametrize("family,scale", [
        ("gaussian", 1.0), ("uniform_box", math.sqrt(3.0)), ("scaled_rademacher", 1.0),
    ], ids=["gaussian", "uniform_box", "rademacher"])
    @pytest.mark.parametrize("dim", [1, 3, 8])
    @pytest.mark.parametrize("mechanism,agents", [
        *((mech_name, 9) for mech_name in simulation.MECHANISMS), ("cross-check", 4),
    ], ids=[*simulation.MECHANISMS, "cross-check-m4"])
    def test_kernel_matches_the_formula(self, monkeypatch, mechanism, agents, dim, family,
                                        scale):
        p = params_for(agents, dim=dim)
        alpha = solve_alpha(p).alpha if mechanism == "cross-check" and agents >= 5 else None
        eps = 0.1 if mechanism == "corrupt-deploy" else None
        mus = simulation.DEFAULT_MU_GRID_SCALE
        calls = []
        score = simulation._score

        def recording(sc, row, focal, drawn, loc):
            calls.append((row.foc, focal, drawn, loc))
            return score(sc, row, focal, drawn, loc)

        monkeypatch.setattr(simulation, "_score", recording)
        for i, estimator in enumerate(self.ESTIMATORS):
            menu = default_menu(p, estimator)
            if mechanism == "corrupt-deploy":
                menu = [s for s in menu if s.n > 0 and not isinstance(s.submission, est.Empty)]
            sc = _scenario(p, mechanism, menu[0], alpha=alpha, epsilon=eps, family=family,
                           scale=scale, mu_grid=mus)
            calls.clear()
            got = list(simulation._chunk_sq_errors(sc, [(s, mus) for s in menu], 200,
                                                   spawn_stream(11, i)))
            cells = [(s, mu) for s in menu for mu in mus]
            assert len(calls) == len(got) == len(cells)  # one score block per cell
            for (foc, mu), (called, *args), sq in zip(cells, calls, got):
                assert called is foc
                want = _formula_score(sc, foc, *args)
                assert np.array_equal(np.isnan(sq), np.isnan(want))
                assert np.array_equal(np.isposinf(sq), np.isposinf(want))
                ok = np.isfinite(want)
                np.testing.assert_allclose(sq[ok], want[ok], rtol=1e-12,
                                           atol=1e-15 * (1 + mu**2), err_msg=f"{foc.label} mu={mu}")

    def test_corrupt_deploy_variance_finite_below_the_float_limit(self):
        # at eps = 0.0034 (k = 148), the scale 0.5 row's cells at mu = +-50 have
        # |delta| of about 25 and eta^2 of about 1e250: finite, though
        # delta^{2k} alone overflows
        p = params_for(9)
        foc = Strategy(p.n_star, est.Scale(0.5), est.PlainMeanAll())
        sc = _scenario(p, "corrupt-deploy", foc, epsilon=0.0034, mu_grid=(50.0, -50.0))
        assert mech.k_eps(sc.epsilon) == 148
        for sq in simulation._chunk_sq_errors(sc, [(foc, sc.mu_grid)], 2_000, spawn_stream(0, 0)):
            assert np.all(np.isfinite(sq)) and np.median(sq) > 1e200


class TestEquivariance:
    def test_equivariant_risk_independent_of_mu(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        assert is_translation_equivariant(foc)
        a = run_replications(_scenario(canonical, "cross-check", foc,
                                       alpha=canonical_alpha, reps=50_000))
        sc = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                       reps=50_000)
        spec = DistributionSpec("gaussian", np.full(1, 17.3), 1.0, 1.0)
        from dataclasses import replace
        b = run_replications(replace(sc, distribution=spec))
        assert abs(a.mean_sq_error - b.mean_sq_error) < 3 * math.hypot(
            a.std_error, b.std_error)

    def test_non_equivariant_flagged(self):
        assert not is_translation_equivariant(
            Strategy(10, est.Scale(0.5), est.PlainMeanAll()))
        assert not is_translation_equivariant(
            Strategy(10, est.SubmitConstant(0.0), est.PlainMeanAll()))
        assert not is_translation_equivariant(
            Strategy(10, est.ShrinkEll(0.5), est.PlainMeanAll()))
        assert not is_translation_equivariant(
            Strategy(10, est.Identity(), est.PosteriorMean(0.5)))

    def test_shrink_scored_at_every_offset(self, canonical, canonical_alpha):
        # shrinking every point toward 0 biases the submission by (1 - f) mu,
        # so the risk grows with the mean's distance from 0
        foc = Strategy(canonical.n_star, est.ShrinkEll(0.5), est.RecommendedWeighted(), "shrink")
        pen = run_replications(_scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                                         reps=100_000, mu_grid=(0.0, 5.0)))
        by_mu = {mu: mse for mu, mse, _ in pen.per_mu}
        assert set(by_mu) == {0.0, 5.0}
        assert by_mu[0.0] == pytest.approx(0.025, rel=0.1)
        assert by_mu[5.0] == pytest.approx(0.047, rel=0.1)
        assert pen.mean_sq_error == by_mu[5.0]

    def test_non_equivariant_sweeps_mu_grid(self, canonical, canonical_alpha):
        foc = Strategy(canonical.n_star, est.Scale(0.5),
                       est.RecommendedWeighted(), "scale")
        pen = run_replications(_scenario(canonical, "cross-check", foc,
                                         alpha=canonical_alpha, reps=10_000,
                                         mu_grid=(0.0, 5.0, -5.0)))
        assert len(pen.per_mu) == 3
        # scaling hurts more the farther the mean is from zero
        by_mu = {mu: mse for mu, mse, _ in pen.per_mu}
        assert by_mu[5.0] > by_mu[0.0]
        assert pen.mean_sq_error == max(by_mu.values())


class TestStandardErrors:
    def test_se_scales_like_inverse_sqrt_n(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        small = run_replications(_scenario(canonical, "cross-check", foc,
                                           alpha=canonical_alpha, reps=20_000,
                                           seed=11))
        big = run_replications(_scenario(canonical, "cross-check", foc,
                                         alpha=canonical_alpha, reps=320_000,
                                         seed=11))
        ratio = small.std_error / big.std_error
        assert ratio == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("chunk_size", [1 << 16, 700])
    def test_finite_where_the_mse_is_finite(self, canonical, chunk_size):
        # at epsilon 0.0034 the "scale 0.5" row scores rounds near 1e250 at
        # offsets +-50, whose squares overflow: the reduce used to return an
        # SE of NaN, with "overflow encountered in square"
        foc = Strategy(canonical.n_star, est.Scale(0.5), est.PlainMeanAll(), "scale 0.5")
        sc = _scenario(canonical, "corrupt-deploy", foc, epsilon=0.0034, reps=2_000, seed=0,
                       mu_grid=simulation.DEFAULT_MU_GRID_SCALE, chunk_size=chunk_size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pen = run_replications(sc)
        assert pen.mean_sq_error > 1e200
        # against the same rounds' scores, brought to at most 1 before squaring
        rows = [(foc, simulation.DEFAULT_MU_GRID_SCALE)]
        chunks = [list(simulation._chunk_sq_errors(sc, rows, min(chunk_size, 2_000 - start),
                                                   spawn_stream(0, 0, 0, ci)))
                  for ci, start in enumerate(range(0, 2_000, chunk_size))]
        for i, (mu, mse, se) in enumerate(pen.per_mu):
            sq = np.concatenate([cells[i] for cells in chunks])
            e = math.frexp(sq.max())[1]
            sq *= 2.0**-e
            assert math.isfinite(se) and se > 0
            assert se == pytest.approx(math.ldexp(sq.std() / math.sqrt(len(sq)), e), rel=1e-9)
            assert mse == pytest.approx(math.ldexp(sq.mean(), e), rel=1e-12)
        assert max(se for _, _, se in pen.per_mu) > 1e240

    def test_chunk_totals_above_the_largest_float(self, canonical, monkeypatch):
        # four chunks of one round scoring 1e308 each: their total overflows,
        # which math.fsum raises as OverflowError, though their mean is finite
        monkeypatch.setattr(simulation, "_scores",
                            lambda sc, plans, grid, b, draws: iter([np.full(b, 1e308)]))
        foc = recommended_strategy(canonical, "pool")
        pen = run_replications(_scenario(canonical, "pool", foc, reps=4, chunk_size=1))
        assert (pen.mean_sq_error, pen.std_error) == (1e308, 0.0)


class TestSweepsAndChecks:
    def test_cross_check_no_profitable_deviation(self, canonical, canonical_alpha):
        foc = recommended_strategy(canonical)
        sc = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                       reps=100_000, mu_grid=(0.0, 5.0, -5.0), workers=4)
        rows = nash_deviation_sweep(sc)
        assert rows[0].strategy.label == "recommended"
        assert not any(r.profitable for r in rows)
        # closed forms attached where available agree with the simulation
        for r in rows:
            if r.closed_form is not None and r.penalty.std_error > 0:
                assert abs(r.penalty.total - r.closed_form) < 4 * r.penalty.std_error

    def test_size_check_fabrication_is_profitable(self, canonical):
        # fabricating n* points from one real draw passes the size check and
        # beats honest collection: the size-check mechanism is not
        # incentive compatible
        foc = recommended_strategy(canonical, "size-check")
        sc = _scenario(canonical, "size-check", foc, reps=100_000, workers=4)
        menu = [Strategy(1, est.FabricateFitGaussian(canonical.n_star),
                         est.PlainMeanAll(), "fabricate")]
        rows = nash_deviation_sweep(sc, menu)
        assert rows[1].profitable

    def test_ir_cross_check(self, canonical, canonical_alpha):
        sc = _scenario(canonical, "cross-check",
                       recommended_strategy(canonical),
                       alpha=canonical_alpha, reps=100_000)
        res = ir_check(sc)
        assert res["ok"]
        assert res["participating"] < res["standalone"]

    def test_ir_small_m_pooling(self):
        # m = 4: plain pooling; participating penalty (1 + 1/m) sigma sqrt(c d)
        p = params_for(4)
        foc = recommended_strategy(p, "cross-check")
        sc = _scenario(p, "cross-check", foc, alpha=None, reps=100_000)
        res = ir_check(sc)
        assert res["ok"]
        expect = (1 + 1 / p.agents) * p.sigma * math.sqrt(p.cost * p.dim)
        assert abs(res["participating"] - expect) < 3 * res["std_error"]
        # cost 1/1600 gives n* = 10: participating (1 + 1/4)/40 = 0.03125
        assert expect == pytest.approx(0.03125, rel=1e-12)
        assert res["standalone"] == pytest.approx(0.05, rel=1e-12)

    def test_ir_corrupt_deploy(self, canonical):
        sc = _scenario(canonical, "corrupt-deploy",
                       recommended_strategy(canonical, "corrupt-deploy", 0.5),
                       epsilon=0.5, reps=100_000)
        res = ir_check(sc)
        assert res["ok"]

    @pytest.mark.parametrize("mechanism", ["size-check"])
    def test_no_own_data_scores_infinite_risk(self, canonical, canonical_alpha, mechanism):
        # the clean-only mean has nothing to average when the agent collects
        # nothing, and size-check hands it nothing
        foc = Strategy(0, est.Identity(), est.CleanOnlyMean(), "no own data")
        sc = _scenario(canonical, mechanism, recommended_strategy(canonical, mechanism),
                       alpha=canonical_alpha, reps=2_000)
        assert run_replications(replace(sc, focal=foc)).total == math.inf
        rows = nash_deviation_sweep(sc, [foc])
        assert rows[1].penalty.total == math.inf
        assert not rows[1].profitable

    def test_submit_nothing_scores_finite_risk(self, canonical, canonical_alpha):
        # an empty submission is corrupted with eta^2 = inf; the weighted
        # estimator gives that block weight 0, so its infinite variance adds
        # nothing: risk sigma^2 / (1 + n*) from the own point and the prefix
        # (on the reference path that block's sum is itself non-finite)
        foc = Strategy(1, est.Empty(), est.RecommendedWeighted(), "submit nothing")
        sc = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha)
        for run, reps in ((run_replications, 20_000), (run_replications_reference, 1_000)):
            pen = run(replace(sc, replications=reps))
            assert math.isfinite(pen.total)
            assert abs(pen.mean_sq_error - 1.0 / 11.0) < 3 * pen.std_error

    def test_infinite_cell_has_infinite_std_error(self, canonical):
        # size-check hands a zero-submission agent nothing, and the plain
        # mean of no data is scored +inf on both paths
        foc = Strategy(0, est.Identity(), est.PlainMeanAll(), "nothing at all")
        sc = _scenario(canonical, "size-check", foc, reps=50)
        for run in (run_replications, run_replications_reference):
            pen = run(sc)
            assert pen.total == math.inf
            assert pen.std_error == math.inf
        base = replace(sc, focal=recommended_strategy(canonical, "size-check"), replications=2_000)
        row = nash_deviation_sweep(base, [foc])[1]
        assert row.penalty.std_error == math.inf
        assert not row.profitable

    def test_highdim_nic(self):
        p = ProblemParams(1.0, 1.0 / 300.0, 9, 3)
        assert p.n_star == 10
        from meanshare.alphasolve import solve_alpha
        alpha = solve_alpha(p).alpha
        spec = DistributionSpec("uniform_box", np.zeros(3),
                                p.sigma * math.sqrt(3.0), p.sigma**2)
        foc = Strategy(p.n_star, est.Identity(), est.PlainMeanAll())
        sc = Scenario(p, "cross-check", foc, spec, 100_000, 13, alpha=alpha,
                      workers=4)
        res = highdim_nic_check(sc)
        assert res["ok"], (res["ratio"], res["bound"])
        assert res["pos_ok"], (res["pos_proxy"], res["pos_bound"])

    @pytest.mark.parametrize("m,mechanism,alpha", [(9, "pool", None), (9, "size-check", None),
                                                   (4, "cross-check", None), (4, "cross-check", 5.0)])
    def test_highdim_needs_cross_check_with_alpha(self, m, mechanism, alpha):
        # the 1 + 5/m claim is about cross-check with m >= 5 at a solved
        # alpha; pooling used to be scored silently (and passed), and m = 4
        # without alpha raised a TypeError
        p = params_for(m)
        sc = _scenario(p, mechanism, recommended_strategy(p, mechanism), alpha=alpha, reps=100)
        with pytest.raises(InvalidParam, match="cross-check"):
            highdim_nic_check(sc)

    def test_highdim_rows_are_the_fixed_weight_menu(self, canonical, canonical_alpha):
        res = highdim_nic_check(_scenario(canonical, "cross-check", recommended_strategy(canonical),
                                          alpha=canonical_alpha, reps=2_000))
        labels = [r.strategy.label for r in res["rows"]]
        assert labels == ["n=5", "n=20", "scale 0.5", "shift 1", "subset 5", "fabricate 10 from 1"]
        assert all(isinstance(r.strategy.estimator, est.FixedWeighted) for r in res["rows"])
        best = min(res["rows"], key=lambda r: r.penalty.total)
        assert (res["best_label"], res["best_deviation"]) == (best.strategy.label, best.penalty.total)

    def test_sweep_scores_the_focal_profile(self, canonical, canonical_alpha):
        # row 0 is sc.focal, and the default menu uses its estimator
        foc = Strategy(canonical.n_star, est.Identity(), est.PlainMeanAll(), "plain")
        sc = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha, reps=2_000)
        rows = nash_deviation_sweep(sc)
        assert rows[0].strategy is foc
        assert rows[0].penalty == run_replications(sc)
        assert all(r.strategy.estimator is foc.estimator for r in rows[1:10])
        assert ir_check(sc)["participating"] == rows[0].penalty.total

    def test_sweep_drops_copies_of_the_focal_profile(self, canonical):
        # under size-check the focal profile is n* honest points with the
        # plain mean, which "estimator: plain mean" repeats on the same
        # streams; a copy under another label is dropped too
        foc = recommended_strategy(canonical, "size-check")
        sc = _scenario(canonical, "size-check", foc, reps=2_000)
        labels = [r.strategy.label for r in nash_deviation_sweep(sc)]
        assert labels[0] == "recommended" and "estimator: plain mean" not in labels
        # row 0 plus every menu entry but the copy
        assert len(labels) == len(default_menu(canonical, foc.estimator))
        copy = replace(foc, label="copy")
        other = replace(foc, n=canonical.n_star + 1, label="n+1")
        rows = nash_deviation_sweep(sc, [copy, other])
        assert [r.strategy.label for r in rows] == ["recommended", "n+1"]


def _sweep_case(case):
    """A sweep scenario in which both the menu, in chunks of one score block,
    and row 0, in chunks of ``chunk_size``, cross chunk boundaries."""
    if case == "uniform_box-d3-fixed":
        p = params_for(9, dim=3)
        alpha = solve_alpha(p).alpha
        foc = Strategy(p.n_star, est.Identity(),
                       est.FixedWeighted(2 * alpha**2 * p.sigma**2 / p.n_star), "recommended")
        return _scenario(p, "cross-check", foc, alpha=alpha, reps=6_000, chunk_size=2_500,
                         family="uniform_box", scale=math.sqrt(3.0),
                         mu_grid=simulation.DEFAULT_MU_GRID_SCALE)
    p = params_for(9)
    mechanism = {"cross-check-gaussian": "cross-check", "corrupt-deploy": "corrupt-deploy",
                 "size-check-unrestricted": "size-check"}[case]
    alpha = solve_alpha(p).alpha if mechanism == "cross-check" else None
    eps = 0.5 if mechanism == "corrupt-deploy" else None
    return _scenario(p, mechanism, recommended_strategy(p, mechanism), alpha=alpha, epsilon=eps,
                     reps=20_000, chunk_size=7_000, mu_grid=simulation.DEFAULT_MU_GRID_SCALE)


class TestMenuRows:
    # a sweep scores its menu rows together, on one draw per chunk of one
    # score block from streams (0, 1, ci); row 0 is a standalone run
    CASES = ["cross-check-gaussian", "uniform_box-d3-fixed", "corrupt-deploy",
             "size-check-unrestricted"]

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_byte_identical_for_any_worker_count(self, case):
        sc = _sweep_case(case)
        rows = [repr(nash_deviation_sweep(replace(sc, workers=w))) for w in (1, 2, 4)]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("case", CASES)
    def test_row_zero_is_a_standalone_run(self, case):
        sc = _sweep_case(case)
        rows = nash_deviation_sweep(sc)
        assert len(rows) > 1 and repr(rows[0].penalty) == repr(run_replications(sc))

    def test_restricted_and_unrestricted_size_check_share_row_zero(self):
        sc = _sweep_case("size-check-unrestricted")
        restricted = [Strategy(n, est.Identity(), est.CleanOnlyMean(), f"n={n}") for n in (5, 20)]
        a, b = nash_deviation_sweep(sc, restricted), nash_deviation_sweep(sc)
        assert repr(a[0]) == repr(b[0])
        assert len(a) == 3 and len(b) == 11

    def test_menu_draws_once_per_chunk(self, canonical, canonical_alpha, monkeypatch):
        # the default menu at n* = 10 reads the focal points' running sums at
        # 0, 1, 5, 10 and 20 points, so a menu chunk draws four focal
        # increments, after the sum of 0 points, which draws nothing, and one
        # cross-check prefix, and fabrication's one point, for 11 rows; row
        # 0 draws its 10 points and the prefix in each of its chunks
        calls = []
        sample, sample_sum = DistributionSpec.sample, DistributionSpec.sample_sum

        def counting_sum(self, stream, b, k):
            calls.append((b, k))
            return sample_sum(self, stream, b, k)

        def counting(self, stream, shape, *args):
            calls.append(shape)
            return sample(self, stream, shape, *args)

        monkeypatch.setattr(DistributionSpec, "sample_sum", counting_sum)
        monkeypatch.setattr(DistributionSpec, "sample", counting)
        sc = _scenario(canonical, "cross-check", recommended_strategy(canonical),
                       alpha=canonical_alpha, reps=10_000, chunk_size=6_000)
        rows = nash_deviation_sweep(sc)
        assert len(rows) == 12
        menu = [[(b, 0), (b, 1), (b, 4), (b, 5), (b, 10), (b, 1, 1), (b, 10)]
                for b in (8_192, 1_808)]
        assert calls == [(6_000, 10), (6_000, 10), (4_000, 10), (4_000, 10), *menu[0], *menu[1]]

    @pytest.mark.parametrize("estimator", [est.PlainMeanAll(), est.CleanOnlyMean(),
                                           est.FixedWeighted(1.0)],
                             ids=repr)
    def test_constant_weights_do_not_draw_the_prefix(self, canonical, canonical_alpha,
                                                     monkeypatch, estimator):
        # their weights do not read eta^2, so the prefix is integrated out:
        # a chunk draws the focal points alone
        calls = []
        sample_sum = DistributionSpec.sample_sum

        def counting(self, stream, b, k):
            calls.append(k)
            return sample_sum(self, stream, b, k)

        monkeypatch.setattr(DistributionSpec, "sample_sum", counting)
        foc = Strategy(canonical.n_star, est.Identity(), estimator)
        pen = run_replications(_scenario(canonical, "cross-check", foc, alpha=canonical_alpha,
                                         reps=3_000, chunk_size=1_000))
        assert calls == [canonical.n_star] * 3 and math.isfinite(pen.total)
        calls.clear()
        weighted = replace(foc, estimator=est.RecommendedWeighted())
        run_replications(_scenario(canonical, "cross-check", weighted, alpha=canonical_alpha,
                                   reps=3_000, chunk_size=1_000))
        assert calls == [canonical.n_star] * 6

    def test_sweep_peak_is_its_row_zero_peak(self):
        # menu arrays are at most one score block (64 KiB), so a sweep's
        # traced peak is that of its row 0 run, up to the sweep's own few
        # objects; when each menu row drew its own chunk, the peak doubled
        p = params_for(9, dim=3)
        alpha = solve_alpha(p).alpha
        foc = Strategy(p.n_star, est.Identity(), est.RecommendedWeighted(), "recommended")
        sc = _scenario(p, "cross-check", foc, alpha=alpha, reps=65_536, family="uniform_box",
                       scale=math.sqrt(3.0), mu_grid=simulation.DEFAULT_MU_GRID_SCALE)
        run_replications(sc)  # untraced: first-call allocations stay out
        peaks = []
        for run in (run_replications, nash_deviation_sweep):
            tracemalloc.start()
            try:
                run(sc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024


class TestScenario:
    @pytest.mark.parametrize("reps", [0, -5])
    def test_replications_must_be_positive(self, canonical, reps):
        with pytest.raises(InvalidParam):
            _scenario(canonical, "pool", recommended_strategy(canonical, "pool"),
                      reps=reps)


    @pytest.mark.parametrize("change", [
        {"mechanism": "cross-chek"},
        {"distribution": DistributionSpec("gaussian", np.zeros(3), 1.0, 1.0)},
        {"distribution": DistributionSpec("gaussian", np.zeros(1), 3.0, 9.0)},
        {"alpha": None},
        {"alpha": 0.0},
        {"mechanism": "corrupt-deploy", "epsilon": None},
        {"mechanism": "corrupt-deploy", "epsilon": 0.0},
        {"chunk_size": 0},
        {"chunk_size": -5},
        {"workers": 0},
        {"mu_grid": ()},
        {"mu_grid": (math.nan, 5.0)},
        {"mu_grid": (0.0, math.inf)},
        {"mechanism": "corrupt-deploy", "epsilon": math.inf},
        # only corrupt-deploy reads epsilon
        {"epsilon": 0.5},
        {"mechanism": "pool", "epsilon": 0.5},
        {"mechanism": "size-check", "epsilon": 0.5},
        # None used to seed every stream from fresh OS entropy; -1 and 1.5
        # failed inside numpy, and fractional counts in a bare TypeError
        {"master_seed": None},
        {"master_seed": -1},
        {"master_seed": 1.5},
        {"replications": 1000.5},
        {"chunk_size": 100.5},
        {"workers": 1.5},
    ], ids=["unknown mechanism", "dim mismatch", "variance above sigma^2",
            "no alpha", "zero alpha", "no epsilon", "zero epsilon", "zero chunk",
            "negative chunk", "no workers", "empty mu grid",
            "nan in mu grid", "inf in mu grid", "inf epsilon",
            "epsilon under cross-check", "epsilon under pool", "epsilon under size-check",
            "no seed", "negative seed", "fractional seed", "fractional replications",
            "fractional chunk", "fractional workers"])
    def test_bad_input_rejected(self, canonical, canonical_alpha, change):
        sc = _scenario(canonical, "cross-check", recommended_strategy(canonical),
                       alpha=canonical_alpha, reps=10)
        with pytest.raises(InvalidParam):
            replace(sc, **change)


    @pytest.mark.parametrize("alpha", [math.inf, 1e300, 2.0**510, math.nan, 0.0, -1.0],
                             ids=["inf", "1e300", "2**510", "nan", "0", "-1"])
    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_alpha_outside_its_domain_rejected(self, canonical, mechanism, alpha):
        # alpha = inf used to run, and nash_deviation_sweep raised only from
        # its closed-form column after all of its MC; 1e300 ended in a bare
        # OverflowError from alpha**2
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        with pytest.raises(InvalidParam, match="alpha"):
            _scenario(canonical, mechanism, recommended_strategy(canonical, mechanism),
                      alpha=alpha, epsilon=eps, reps=10)

    @pytest.mark.parametrize("mechanism", simulation.MECHANISMS)
    def test_solved_alpha_accepted_under_every_mechanism(self, canonical, canonical_alpha,
                                                         mechanism):
        # the benchmark passes its solved alpha to every mechanism
        eps = 0.5 if mechanism == "corrupt-deploy" else None
        sc = _scenario(canonical, mechanism, recommended_strategy(canonical, mechanism),
                       alpha=canonical_alpha, epsilon=eps, reps=100)
        assert math.isfinite(run_replications(sc).total)

    @pytest.mark.parametrize("agents,epsilon", [
        (9, 0.003), (9, 1e-7), (9, 1e-12), (9, 1e-310), (100, 0.0049),
    ], ids=["m9-k167", "m9-k5e6", "m9-k5e11", "m9-subnormal", "m100-k103"])
    def test_epsilon_too_small_for_beta_rejected(self, agents, epsilon):
        # beta^2 is not a positive float there; a run used to end mid-way in an
        # OverflowError from beta_sq_published
        p = params_for(agents)
        with pytest.raises(InvalidParam, match="epsilon"):
            _scenario(p, "corrupt-deploy", recommended_strategy(p, "corrupt-deploy"),
                      epsilon=epsilon, reps=10)

    @pytest.mark.parametrize("agents,epsilon", [(9, 0.00336), (100, 0.00495)],
                             ids=["m9-k149", "m100-k102"])
    def test_smallest_epsilon_with_a_float_beta_accepted(self, agents, epsilon):
        # the last k at which beta^2 is a float, for each m
        assert mech.k_eps(epsilon) == (149 if agents == 9 else 102)
        p = params_for(agents)
        _scenario(p, "corrupt-deploy", recommended_strategy(p, "corrupt-deploy"),
                  epsilon=epsilon, reps=10)


def _scenario_with(name):
    def make(value):
        p = params_for(9)
        return replace(_scenario(p, "pool", recommended_strategy(p, "pool"), reps=10),
                       **{name: value})
    return make


# every count, seed and size goes through params._check_int: the field named
# in the error, its lowest accepted value, and a call that takes it
INTEGER_SITES = {
    "ProblemParams.agents": ("agents", 2, lambda v: ProblemParams(1.0, 1 / 900, v)),
    "ProblemParams.dim": ("dim", 1, lambda v: ProblemParams(1.0, 1 / 900, 9, v)),
    "cost_for_n_star.agents": ("agents", 2, lambda v: cost_for_n_star(1.0, 10, v)),
    "cost_for_n_star.n_star": ("n_star", 1, lambda v: cost_for_n_star(1.0, v, 9)),
    "cost_for_n_star.dim": ("dim", 1, lambda v: cost_for_n_star(1.0, 10, 9, v)),
    "Strategy.n": ("n", 0, lambda v: Strategy(v, est.Identity(), est.PlainMeanAll())),
    **{f"Scenario.{name}": (name, low, _scenario_with(name)) for name, low in
       (("master_seed", 0), ("replications", 1), ("chunk_size", 1), ("workers", 1))},
    "Subset.k": ("subset size", 0, est.Subset),
    "FabricateFitGaussian.n_fake": ("n_fake", 0, est.FabricateFitGaussian),
}


class TestIntegerInputs:
    @pytest.mark.parametrize("site", INTEGER_SITES)
    @pytest.mark.parametrize("bad", [True, 2.5, "3", None], ids=["True", "2.5", "'3'", "low - 1"])
    def test_rejected(self, site, bad):
        # a bool used to pass as 0 or 1: replications=True scored one round,
        # and chunk_size=True failed inside numpy's standard_normal
        name, low, make = INTEGER_SITES[site]
        with pytest.raises(InvalidParam, match=name):
            make(low - 1 if bad is None else bad)

    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_lowest_accepted(self, site):
        _, low, make = INTEGER_SITES[site]
        make(low)
        make(np.int64(low))


class TestStrategy:
    @pytest.mark.parametrize("n", [-1, -3, 5.5, 10.0, "4", None],
                             ids=["negative focal n", "negative menu n", "fractional n",
                                  "float n", "str n", "no n"])
    def test_invalid_n_rejected(self, n):
        # a menu row with n = -3 used to score a total with a negative cost,
        # and n = 5.5 was scored as 5.5 Gaussian points by the engine while
        # the reference raised TypeError
        with pytest.raises(InvalidParam, match="n must be an integer"):
            Strategy(n, est.Identity(), est.PlainMeanAll())

    @pytest.mark.parametrize("run", [run_replications, run_replications_reference])
    def test_negative_subset_rejected(self, canonical, canonical_alpha, run):
        # Subset(-1) used to score 0.03934 in the engine but 0.03876 in the
        # reference, which played X[..., :-1], the same as Subset(9); it is
        # now rejected when it is made, before either path can run it
        with pytest.raises(InvalidParam, match="subset size"):
            foc = Strategy(canonical.n_star, est.Subset(-1), est.RecommendedWeighted())
            run(_scenario(canonical, "cross-check", foc, alpha=canonical_alpha, reps=2_000))


    @pytest.mark.parametrize("rule", [est.Shift(math.inf), est.SubmitConstant(math.inf),
                                      est.Scale(-1.0), est.FabricateFitGaussian(0)], ids=repr)
    def test_kept_rules_score_finite_risks(self, canonical, canonical_alpha, rule):
        # an infinite shift or constant makes eta^2 = +inf, which weighs the
        # corrupted allocation 0; Scale(-1) negates; n_fake = 0 submits nothing
        foc = Strategy(canonical.n_star, rule, est.RecommendedWeighted())
        sc = _scenario(canonical, "cross-check", foc, alpha=canonical_alpha, reps=4_000)
        fast, ref = run_replications(sc), run_replications_reference(sc)
        assert math.isfinite(fast.total) and math.isfinite(ref.total)
        assert abs(fast.total - ref.total) < 4 * math.hypot(fast.std_error, ref.std_error)


class TestMenu:
    def test_default_menu_shape(self, canonical):
        menu = default_menu(canonical, est.RecommendedWeighted())
        assert len(menu) == 11
        labels = [s.label for s in menu]
        assert len(set(labels)) == len(labels)
        assert any(isinstance(s.submission, est.Empty) for s in menu)
        assert any(isinstance(s.estimator, est.CleanOnlyMean) for s in menu)


_FAMILIES = [("gaussian", 1.0), ("scaled_rademacher", 1.0), ("uniform_box", math.sqrt(3.0))]


class TestRelations:
    # exact relations between two runs on the same seed, which need no oracle

    @pytest.mark.parametrize("family,scale", _FAMILIES)
    @pytest.mark.parametrize("agents", [2, 3, 4])
    def test_cross_check_with_few_agents_is_pooling(self, agents, family, scale):
        # cross-check with m <= 4 hands over the whole pool, on the engine
        # and on the reference path alike
        p = params_for(agents)
        sweeps, refs = [], []
        for mechanism in ("pool", "cross-check"):
            sc = _scenario(p, mechanism, recommended_strategy(p, mechanism), reps=2_000,
                           family=family, scale=scale, mu_grid=(0.0, 5.0))
            sweeps.append(repr(nash_deviation_sweep(sc)))
            refs.append(repr([run_replications_reference(replace(sc, focal=foc)) for foc in
                              (sc.focal, Strategy(p.n_star, est.Scale(0.5), est.PlainMeanAll()))]))
        assert sweeps[0] == sweeps[1]
        assert refs[0] == refs[1]

    @pytest.mark.parametrize("family,scale", _FAMILIES[::2])
    @pytest.mark.parametrize("mechanism", ["cross-check", "corrupt-deploy", "size-check"])
    def test_menu_order_does_not_matter(self, mechanism, family, scale):
        # the focal running sums are drawn at the sorted counts the rows read,
        # whatever the menu order. Each fabrication row draws its points in
        # menu order, so the relation needs at most one, as the default menu has
        p = params_for(9)
        alpha = solve_alpha(p).alpha if mechanism == "cross-check" else None
        eps = 0.1 if mechanism == "corrupt-deploy" else None
        sc = _scenario(p, mechanism, recommended_strategy(p, mechanism), alpha=alpha,
                       epsilon=eps, reps=20_000, family=family, scale=scale,
                       mu_grid=(0.0, 5.0, -50.0))
        menu = [s for s in default_menu(p, sc.focal.estimator) if simulation._submits_data(s)
                or mechanism != "corrupt-deploy"]
        assert sum(isinstance(s.submission, est.FabricateFitGaussian) for s in menu) == 1
        shuffled = [menu[i] for i in np.random.default_rng(0).permutation(len(menu))]
        assert shuffled != menu
        by_label = [{r.strategy.label: repr(r.penalty) for r in nash_deviation_sweep(sc, m)}
                    for m in (menu, shuffled)]
        assert by_label[0] == by_label[1]

    @pytest.mark.parametrize("family,scale", _FAMILIES)
    @pytest.mark.parametrize("mechanism,epsilon", [
        ("cross-check", None), ("pool", None), ("size-check", None),
        ("corrupt-deploy", 0.5), ("corrupt-deploy", 0.1)])
    def test_sigma_scaling(self, mechanism, epsilon, family, scale):
        # sigma, the data and the mu grid scaled by lam, with n* = 10 at each
        # sigma, scale every round's error by lam on the same draws, so every
        # per-mu MSE of the default sweep scales by lam^2: the menu's shift is
        # in units of sigma, and corrupt-deploy's eta^2 = beta^2 delta^{2k}
        # scales by lam^2, since beta^2 goes as sigma^{2 - 2k} at fixed n*
        def sweep(lam):
            p = params_for(9, sigma=lam)
            alpha = solve_alpha(p).alpha if mechanism == "cross-check" else None
            sc = _scenario(p, mechanism, recommended_strategy(p, mechanism), alpha=alpha,
                           epsilon=epsilon, reps=4_000, family=family, scale=scale * lam,
                           mu_grid=tuple(lam * mu for mu in simulation.DEFAULT_MU_GRID_SCALE))
            return [(r.strategy.label, [mse / lam**2 for _, mse, _ in r.penalty.per_mu])
                    for r in nash_deviation_sweep(sc)]

        unit = sweep(1.0)
        for lam in (0.5, 3.0):
            scaled = sweep(lam)
            assert [label for label, _ in scaled] == [label for label, _ in unit]
            for (label, a), (_, b) in zip(scaled, unit):
                assert all(math.isclose(x, y, rel_tol=1e-12) for x, y in zip(a, b, strict=True)), \
                    (lam, label, a, b)
