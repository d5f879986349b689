"""End-to-end verification suite.

Each test covers one headline claim and prints a single pass/fail line
(run with ``pytest -s`` to see them inline)."""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from meanshare import estimators as est
from meanshare import mechanisms as mech
from meanshare.alphasolve import c_m, g_of_alpha, solve_alpha
from meanshare.analytics import (
    e_of_m,
    gauss_int_I,
    mechpk_exploit_risk,
    mechpk_recommended_penalty,
    penalty_at_nstar,
    penalty_closed_form,
    pos_mechany,
    pos_mechpk,
    pos_smallm,
    rinf_max_risk,
    sizecheck_penalty,
)
from meanshare.params import DistributionSpec, ProblemParams, spawn_stream
from meanshare.simulation import (
    Scenario,
    Strategy,
    _chunk_sq_errors,
    nash_deviation_sweep,
    recommended_strategy,
    run_replications,
    highdim_nic_check,
)

from conftest import params_for
from paper_forms import bayes_risk_Rl, gauss_int_J

M_GRID = (5, 9, 20, 21, 100, 500)


def reported(label):
    """Print one '<label>: PASS|FAIL' line per check."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
            return out
        return wrapper
    return deco


def _gaussian_scenario(p, mechanism, focal, alpha=None, epsilon=None,
                       reps=100_000, seed=20260826, mu_grid=(0.0,)):
    spec = DistributionSpec("gaussian", np.zeros(p.dim), p.sigma, p.sigma**2)
    return Scenario(params=p, mechanism=mechanism, focal=focal,
                    distribution=spec, replications=reps, master_seed=seed,
                    mu_grid=mu_grid, alpha=alpha, epsilon=epsilon, workers=4)


@reported("criterion 01 (corruption level exists in the bracket)")
def test_c01_alpha_existence_and_bracket():
    t0 = time.monotonic()
    for m in M_GRID:
        p = params_for(m)
        sol = solve_alpha(p)
        assert abs(g_of_alpha(sol.alpha, p)) < 1e-9
        ratio = sol.alpha / math.sqrt(p.n_star)
        assert 1.0 < ratio < 1.0 + c_m(m) / m
    assert time.monotonic() - t0 < 1.0


@reported("criterion 02 (root-function sign scan and closed form)")
def test_c02_g_scan_and_closed_form():
    # At the lower bracket end the function itself is negative; the claimed
    # closed form -128/((m-2) m^{5/2}) is the value of its sharp upper
    # bound there, so the function lies at or below it (and is far from
    # that expression for every m).
    t0 = time.monotonic()
    for m in range(5, 501):
        p = params_for(m)
        ns = p.n_star
        assert g_of_alpha((1 + c_m(m) / m) * math.sqrt(ns), p) > 0
        assert g_of_alpha(math.sqrt(ns), p) < 0
        closed = -128.0 / ((m - 2) * m**2.5)
        assert g_of_alpha(math.sqrt(ns), p) <= closed
    assert time.monotonic() - t0 < 5.0


@reported("criterion 03 (excess-penalty ratio below 5/m)")
def test_c03_e_of_m_bound():
    t0 = time.monotonic()
    for m in range(5, 501):
        p = params_for(m)
        sol = solve_alpha(p)
        assert e_of_m(m, sol.a_m) < 5.0 / m
    assert time.monotonic() - t0 < 5.0


@reported("criterion 04 (price of stability in (1, 2); small-m value)")
def test_c04_pos():
    for m in M_GRID:
        p = params_for(m)
        alpha = solve_alpha(p).alpha
        pos = pos_mechany(p, alpha)
        assert 1.0 < pos < 2.0
        ident = m * penalty_at_nstar(p, alpha) / (
            2 * p.sigma * math.sqrt(p.cost * m * p.dim))
        assert pos == pytest.approx(ident, abs=1e-9)
    p4 = params_for(4)
    pos4 = pos_smallm(p4)
    assert pos4 == pytest.approx((4 + 1) / (2 * math.sqrt(4)), rel=1e-12)
    assert pos4 <= 1.25


@reported("criterion 05 (participation beats working alone)")
def test_c05_ir():
    for m in M_GRID:
        p = params_for(m)
        alpha = solve_alpha(p).alpha
        assert penalty_at_nstar(p, alpha) < 2 * p.sigma * math.sqrt(p.cost)
    canon = ProblemParams(1.0, 1.0 / 900.0, 9, 1)
    assert penalty_at_nstar(canon, solve_alpha(canon).alpha) < 0.066667


@reported("criterion 06 (recommended count is a best response)")
def test_c06_nic():
    t0 = time.monotonic()
    p = ProblemParams(1.0, 1.0 / 900.0, 9, 1)
    alpha = solve_alpha(p).alpha
    ns = p.n_star

    # (a) analytic: the penalty curve is minimized at n* on the integer
    # grid and its derivative there vanishes
    p_star = penalty_closed_form(ns, p, alpha)
    for n in range(1, 4 * ns + 1):
        assert penalty_closed_form(n, p, alpha) >= p_star - 1e-12
    h = 1e-2
    fd = (penalty_closed_form(ns + h, p, alpha)
          - penalty_closed_form(ns - h, p, alpha)) / (2 * h)
    assert abs(fd) / p_star < 1e-6

    # (b) empirical: no deviation-menu entry beats the recommended profile
    # by more than 3 combined standard errors
    sc = _gaussian_scenario(p, "cross-check", recommended_strategy(p),
                            alpha=alpha, reps=200_000,
                            mu_grid=(0.0, 5.0, -5.0, 50.0, -50.0))
    rows = nash_deviation_sweep(sc)
    assert not any(r.profitable for r in rows)
    assert time.monotonic() - t0 < 120.0


@reported("criterion 07 (simulation matches the closed-form risk)")
def test_c07_mc_vs_closed_form():
    t0 = time.monotonic()
    p = ProblemParams(1.0, 1.0 / 900.0, 9, 1)
    alpha = solve_alpha(p).alpha
    sc = _gaussian_scenario(p, "cross-check", recommended_strategy(p),
                            alpha=alpha, reps=1_000_000)
    pen = run_replications(sc)
    closed_risk = penalty_at_nstar(p, alpha) - p.cost * p.n_star
    assert abs(pen.mean_sq_error - closed_risk) <= 3 * pen.std_error
    assert time.monotonic() - t0 < 60.0


@reported("criterion 08 (corrupt-and-deploy penalty, PoS, and exploit)")
def test_c08_corrupt_deploy():
    p = ProblemParams(1.0, 1.0 / 900.0, 9, 1)
    for eps in (0.5, 0.25, 0.1):
        k = mech.k_eps(eps)
        foc = recommended_strategy(p, "corrupt-deploy", eps)
        pen = run_replications(_gaussian_scenario(
            p, "corrupt-deploy", foc, epsilon=eps, reps=1_000_000))
        expect = mechpk_recommended_penalty(p, eps)
        assert expect == pytest.approx(
            (2 + 1.0 / k) * p.sigma * math.sqrt(p.cost) / math.sqrt(p.agents),
            rel=1e-12)
        assert abs(pen.total - expect) < 3 * pen.std_error
        assert pos_mechpk(eps) == pytest.approx(1 + 1.0 / (2 * k), rel=1e-12)
        assert pos_mechpk(eps) <= 1 + eps

        deployed_cf, exploit_cf = mechpk_exploit_risk(p, eps)
        tau_sq = (1.0 / k) * p.agents / (p.agents - 1) * p.sigma**2
        exploit_strategy = Strategy(p.n_star, est.Identity(),
                                    est.FixedWeighted(tau_sq))
        exploit = run_replications(_gaussian_scenario(
            p, "corrupt-deploy", exploit_strategy, epsilon=eps,
            reps=1_000_000))
        assert abs(pen.mean_sq_error - deployed_cf) < 3 * pen.std_error
        assert abs(exploit.mean_sq_error - exploit_cf) < 3 * exploit.std_error

        # one-sided: the exploit is strictly better than the deployed mean.
        # The gap is small relative to either run's own noise, so we pair
        # the two estimators on common random numbers and test the mean of
        # the per-replication difference of squared errors.
        sc_dep = _gaussian_scenario(p, "corrupt-deploy",
                                    recommended_strategy(p, "corrupt-deploy", eps),
                                    epsilon=eps, reps=1_000_000)
        reps, chunk = sc_dep.replications, sc_dep.chunk_size
        s1 = s2 = 0.0
        for ci in range((reps + chunk - 1) // chunk):
            b = min(chunk, reps - ci * chunk)
            rows = [(sc_dep.focal, (0.0,)), (exploit_strategy, (0.0,))]
            sq_dep, sq_exp = _chunk_sq_errors(sc_dep, rows, b,
                                              spawn_stream(sc_dep.master_seed, 0, 0, ci))
            d = sq_dep - sq_exp
            s1 += float(d.sum())
            s2 += float((d * d).sum())
        gap = s1 / reps
        gap_se = math.sqrt(max(s2 / reps - gap * gap, 0.0) / reps)
        assert gap > 3 * gap_se
        assert abs(gap - (deployed_cf - exploit_cf)) < 3 * gap_se


@reported("criterion 09 (size-check pooling: optimum, PoS = 1, exploit)")
def test_c09_size_check():
    p = ProblemParams(1.0, 1.0 / 900.0, 9, 1)
    ns = p.n_star
    p_star = sizecheck_penalty(ns, p)
    for n in range(1, 4 * ns + 1):
        if n != ns:
            assert sizecheck_penalty(n, p) > p_star
    social = p.agents * p_star
    assert social == pytest.approx(
        2 * p.sigma * math.sqrt(p.cost * p.agents), abs=1e-12)

    foc = recommended_strategy(p, "size-check")
    sc = _gaussian_scenario(p, "size-check", foc, reps=100_000)
    menu = [Strategy(1, est.FabricateFitGaussian(ns), est.PlainMeanAll(),
                     "fabricate")]
    rows = nash_deviation_sweep(sc, menu)
    assert rows[1].profitable


@reported("criterion 10 (Gaussian integral identities)")
def test_c10_gaussian_integrals():
    phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    for L in (0.1, 1.0, 10.0, 100.0):
        i_quad, _ = quad(lambda x: phi(x) / (L + x * x), -40, 40,
                         limit=300, epsabs=1e-13)
        j_quad, _ = quad(lambda x: phi(x) / (L + x * x) ** 2,
                         -40, 40, limit=300, epsabs=1e-13)
        assert gauss_int_I(L) == pytest.approx(i_quad, abs=1e-8)
        assert gauss_int_J(L) == pytest.approx(j_quad, abs=1e-8)
    assert gauss_int_J(1.0) == pytest.approx(0.5, abs=1e-8)


@reported("criterion 11 (bounded-variance high-dimensional check)")
def test_c11_highdim():
    t0 = time.monotonic()
    p = ProblemParams(1.0, 1.0 / 300.0, 9, 3)
    assert p.n_star == 10
    alpha = solve_alpha(p).alpha
    spec = DistributionSpec("uniform_box", np.zeros(3),
                            p.sigma * math.sqrt(3.0), p.sigma**2)
    sc = Scenario(params=p, mechanism="cross-check",
                  focal=Strategy(p.n_star, est.Identity(), est.PlainMeanAll()),
                  distribution=spec, replications=200_000,
                  master_seed=20260826, alpha=alpha, workers=4)
    res = highdim_nic_check(sc)
    assert res["ok"], (res["ratio"], res["bound"])
    assert res["pos_proxy"] < 2 + 10.0 / 9.0
    assert time.monotonic() - t0 < 180.0


@reported("criterion 12 (property suite)")
def test_c12_properties():
    p = ProblemParams(1.0, 1.0 / 900.0, 9, 1)
    alpha = solve_alpha(p).alpha
    ns = p.n_star

    # Bayes risk under a Gaussian prior never exceeds the maximum risk and
    # converges to it as the prior flattens
    r_inf = rinf_max_risk(ns, p, alpha)
    for ell in (0.5, 1.0, 10.0, 1000.0):
        assert bayes_risk_Rl(ell, ns, p, alpha) <= r_inf + 1e-12
    ratio = bayes_risk_Rl(1000.0, ns, p, alpha) / r_inf
    assert 0.999 <= ratio <= 1.0

    # Hardy-Littlewood shift inequality: for even f increasing away from
    # zero, shifting the Gaussian weight cannot decrease the integral
    phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    for M in (1.0, 10.0):
        f = lambda x: min(x * x, M)
        centered, _ = quad(lambda x: f(x) * phi(x), -30, 30, limit=200)
        for a in (-2.0, -0.5, 0.5, 2.0):
            shifted, _ = quad(lambda x: f(x - a) * phi(x), -30, 30, limit=200)
            assert centered <= shifted + 1e-12

    # exact per-replication location/scale equivariance of the weighted
    # estimator, and shift invariance of the corruption variance
    stream = spawn_stream(99)
    subs = [stream.standard_normal((ns, 1)) for _ in range(p.agents)]
    stream, shifted_stream = spawn_stream(99, 500), spawn_stream(99, 500)
    allocs = [mech.mech_cross_check_corrupt(subs, i, p, alpha, stream) for i in range(p.agents)]
    shifted_allocs = [mech.mech_cross_check_corrupt([s + 3.25 for s in subs], i, p, alpha,
                                                    shifted_stream) for i in range(p.agents)]
    for a, b in zip(allocs, shifted_allocs):
        np.testing.assert_allclose(b.eta_sq, a.eta_sq, rtol=1e-9)
    X = subs[0]
    v = est.estimate(est.RecommendedWeighted(), X, allocs[0], p.sigma)
    v_shift = est.estimate(est.RecommendedWeighted(), X + 3.25, shifted_allocs[0],
                           p.sigma)
    np.testing.assert_allclose(v_shift, v + 3.25, rtol=0, atol=1e-9)
    scaled_alloc = mech.Allocation(2.0 * allocs[0].clean,
                                   2.0 * allocs[0].corrupted,
                                   4.0 * allocs[0].eta_sq)
    v_scale = est.estimate(est.RecommendedWeighted(), 2.0 * X, scaled_alloc,
                           2.0 * p.sigma)
    np.testing.assert_allclose(v_scale, 2.0 * v, rtol=1e-9)

    # byte-exact determinism under parallel execution
    foc = recommended_strategy(p)
    base = _gaussian_scenario(p, "cross-check", foc, alpha=alpha, reps=100_000)
    a = run_replications(replace(base, workers=1))
    b = run_replications(replace(base, workers=4))
    assert a == b
