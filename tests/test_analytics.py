import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import params_for
from meanshare import analytics as an
from meanshare.alphasolve import solve_alpha
from meanshare.params import InvalidParam, ProblemParams
from paper_forms import _mobius_mean, bayes_risk_Rl, gauss_int_J

SQRT2PI = math.sqrt(2 * math.pi)


def phi(x):
    return math.exp(-0.5 * x * x) / SQRT2PI


def std_normal_quad(f):
    """E[f(x)] for x ~ N(0,1) and even f, by adaptive quadrature on [0, inf)."""
    val, _ = quad(lambda x: 2.0 * f(x) * phi(x), 0.0, math.inf,
                  epsabs=0.0, epsrel=1e-13, limit=500)
    return val


ORACLE_MS = [5, 9, 21, 100, 500]
ORACLE_DIMS = [1, 3]


def oracle_ns(p):
    ns = p.n_star
    return (0.5, 1, 5, ns - 1e-2, ns + 1e-2, 40)


def oracle_alphas(p):
    return (0.0, solve_alpha(p).alpha, 3 * math.sqrt(p.n_star))


def derivative_at_nstar_mpmath(p, alpha):
    """The paper's p'(n*) in mpmath, at a precision that covers the
    cancellation of its leading terms, about 2 log10(z) + log10(m) digits
    with z = sqrt(m n*)/(2 sqrt(2) alpha)."""
    m, ns = p.agents, p.n_star
    z = math.sqrt(m * ns) / (2 * math.sqrt(2) * alpha)
    with mpmath.workdps(40 + int(2 * max(0.0, math.log10(z)) + math.log10(m))):
        a, rt = mpmath.mpf(alpha), mpmath.sqrt(m * ns)
        z = rt / (2 * mpmath.sqrt(2) * a)
        pref = -mpmath.mpf(p.sigma) ** 2 / (64 * (a**2 / (m - 2)) * (a / rt) * m * ns)
        inner = ((4 * a / rt) * (4 * a**2 * m / ((m - 2) * ns) - 1)
                 - mpmath.exp(z * z) * mpmath.erfc(z) * (4 * a**2 * (m + 1) / (m * ns) - 1)
                 * mpmath.sqrt(2 * mpmath.pi))
        return float(p.dim * pref * inner + mpmath.mpf(p.cost))


def test_import_does_not_load_scipy_integrate():
    # the package evaluates every expectation in closed form; importing
    # scipy.integrate would only add start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import meanshare, sys; assert 'scipy.integrate' not in sys.modules"],
                   env=env, check=True)


class TestBaselines:
    def test_canonical_values(self, canonical):
        b = an.baseline_penalties(canonical)
        assert b["p_min_ir"] == pytest.approx(1 / 15)
        assert b["global_min_social"] == pytest.approx(0.2)
        assert b["pool_ne_social"] == pytest.approx(1 / 3)
        assert b["free_rider_penalty"] == pytest.approx(0.0125)

    def test_dim_scaling(self):
        p1 = ProblemParams(1.0, 1 / 900, 9, 1)
        p3 = ProblemParams(1.0, 3 / 900, 9, 3)
        b1, b3 = an.baseline_penalties(p1), an.baseline_penalties(p3)
        for k in b1:
            assert b3[k] == pytest.approx(b1[k] * 3.0)  # sqrt(c d) with c = 3c1, d = 3


class TestGaussIntegrals:
    @pytest.mark.parametrize("L", [0.1, 1.0, 10.0, 100.0])
    def test_I_vs_quadrature(self, L):
        ref, _ = quad(lambda x: phi(x) / (L + x * x), -12, 12, epsabs=1e-13)
        assert an.gauss_int_I(L) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("L", [0.1, 1.0, 10.0, 100.0])
    def test_J_vs_quadrature(self, L):
        ref, _ = quad(lambda x: phi(x) / (L + x * x) ** 2, -12, 12, epsabs=1e-13)
        assert gauss_int_J(L) == pytest.approx(ref, abs=1e-8)

    def test_J_at_one_is_half(self):
        assert gauss_int_J(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_large_L_limit(self):
        assert an.gauss_int_I(1e8) * 1e8 == pytest.approx(1.0, rel=1e-6)

    def test_nonpositive_rejected(self):
        with pytest.raises(an.NonpositiveL):
            an.gauss_int_I(0.0)
        with pytest.raises(an.NonpositiveL):
            gauss_int_J(-1.0)


class TestPenalty:
    def test_ordering(self, canonical, canonical_alpha):
        p5 = an.penalty_closed_form(5, canonical, canonical_alpha)
        p10 = an.penalty_closed_form(10, canonical, canonical_alpha)
        p20 = an.penalty_closed_form(20, canonical, canonical_alpha)
        assert p10 < p5 and p10 < p20

    def test_individually_rational(self, canonical, canonical_alpha):
        assert an.penalty_at_nstar(canonical, canonical_alpha) < 2 * math.sqrt(1 / 900)

    def test_closed_form_vs_quadrature(self, canonical, canonical_alpha):
        assert an.penalty_at_nstar(canonical, canonical_alpha) == pytest.approx(
            an.penalty_closed_form(10, canonical, canonical_alpha), abs=1e-9
        )

    def test_simplified_form(self):
        # the paper's reduced p(n*), with no special function:
        # 2 sigma sqrt(c d / m) times the price of stability
        for d in (1, 3):
            for m in (5, 6, 9, 50, 500):
                p = params_for(m, dim=d)
                a = solve_alpha(p).alpha
                simplified = 2 * p.sigma * math.sqrt(p.cost * d / m) * an.pos_mechany(p, a)
                assert simplified == pytest.approx(an.penalty_at_nstar(p, a), rel=1e-12), (m, d)

    def test_derivative_zero_at_solution(self, canonical, canonical_alpha):
        assert abs(an.penalty_derivative_at_nstar(canonical, canonical_alpha)) < 1e-9

    @pytest.mark.parametrize("m,n_star,d", [(5, 1, 1), (9, 10, 1), (100, 7, 3), (500, 10, 2)])
    def test_derivative_over_whole_alpha_range(self, m, n_star, d):
        # the form in alpha used to return exactly c from 1e-100 to 1e-8 and
        # from 3e102 to 9.3e102, be 3 % off at 1e-7, give 9e183 at 1e-101,
        # ZeroDivisionError below about 1e-104 and NaN from 9.4e102 up
        # (m = 9, n* = 10)
        p = params_for(m, n_star, dim=d)
        limit = p.cost - d * p.sigma**2 / (m * n_star) ** 2
        alphas = [2.0**k for k in range(-1074, 510, 8)] + [1e-8, 1e-7, 1e-6, 5e102, 2.0**510 * (1 - 2**-52)]
        for alpha in alphas:
            got = an.penalty_derivative_at_nstar(p, alpha)
            assert math.isfinite(got), alpha
            # mpmath's erfc gives out far past z = 1e12, where the small-alpha
            # limit is exact to rounding
            small = math.sqrt(m * n_star) / (2 * math.sqrt(2) * alpha) > 1e12
            want = limit if small else derivative_at_nstar_mpmath(p, alpha)
            assert abs(got - want) <= 5e-13 * (p.cost + abs(want - p.cost)), (alpha, got, want)
        assert an.penalty_derivative_at_nstar(p, 2.0**509) == pytest.approx(
            p.cost - d * p.sigma**2 / (4 * n_star**2), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, 1e200])
    def test_nonpositive_alpha_rejected_at_nstar(self, canonical, alpha):
        # 1e200 used to raise a bare OverflowError from alpha**2; the closed
        # forms share the solver's range (0, 2**510)
        with pytest.raises(InvalidParam, match="alpha"):
            an.penalty_at_nstar(canonical, alpha)
        with pytest.raises(InvalidParam, match="alpha"):
            an.penalty_derivative_at_nstar(canonical, alpha)

    def test_infinite_corruption_limit(self, canonical):
        # enormous alpha: the corrupted data carries no information
        risk = an.rinf_max_risk(10, canonical, 1e8)
        assert risk == pytest.approx(1.0 / 20, rel=1e-4)

    def test_zero_alpha_is_pooled_mean(self, canonical):
        assert an.rinf_max_risk(10, canonical, 0.0) == pytest.approx(1.0 / 90)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, 1e200])
    def test_alpha_outside_range_rejected(self, canonical, alpha):
        # NaN used to give a NaN risk, inf a NonpositiveL from deep inside,
        # and 1e200 a bare OverflowError from alpha**2
        with pytest.raises(InvalidParam, match="alpha"):
            an.rinf_max_risk(10, canonical, alpha)
        with pytest.raises(InvalidParam, match="alpha"):
            an.penalty_closed_form(10, canonical, alpha)

    def test_risk_monotone_in_n(self, canonical, canonical_alpha):
        risks = [an.rinf_max_risk(n, canonical, canonical_alpha) for n in (1, 5, 10, 20, 40)]
        assert all(a > b for a, b in zip(risks, risks[1:]))

    def test_convexity_midpoints(self, canonical, canonical_alpha):
        ns = np.arange(1, 41)
        pv = np.array([an.penalty_closed_form(float(n), canonical, canonical_alpha) for n in ns])
        risks = np.array([an.rinf_max_risk(float(n), canonical, canonical_alpha) for n in ns])
        assert np.allclose(pv, risks + canonical.cost * ns)
        for i in range(len(ns) - 2):
            assert pv[i + 1] <= 0.5 * (pv[i] + pv[i + 2]) + 1e-10

    @pytest.mark.parametrize("d", ORACLE_DIMS)
    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_risk_vs_quadrature(self, m, d):
        # the quadrature of the defining integrand is the oracle for the
        # closed form
        p = params_for(m, dim=d)
        s2, ns = p.sigma**2, p.n_star
        for alpha in oracle_alphas(p):
            for n in oracle_ns(p):
                def l_of_x(x):
                    v = s2 + alpha**2 * (s2 / n + s2 / ns) * x * x
                    return 1.0 / ((m - 2) * ns / v + (n + ns) / s2)

                ref = d * std_normal_quad(l_of_x)
                assert an.rinf_max_risk(n, p, alpha) == pytest.approx(ref, rel=1e-10), (alpha, n)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("d", ORACLE_DIMS)
    def test_reduced_form_vs_mobius_mean(self, d, sigma):
        # the reduced closed form against the Moebius-function mean it was
        # reduced from, over the whole alpha range: where that mean is
        # finite they agree to 1e-12; at either end of the range, where its
        # B b overflows or its M/(B b) does and it returns NaN or raises,
        # the reduced form stays between its two limits d sigma^2/N and
        # d sigma^2/u
        alphas = [0.0, *np.geomspace(1e-300, 2.0**509.9, 61).tolist(),
                  *np.geomspace(0.1, 100.0, 25).tolist()]
        ms = [*range(5, 41), *range(41, 500, 19), 500]
        worst, compared = 0.0, 0
        for m in ms:
            p = params_for(m, sigma=sigma, dim=d)
            s2, ns = sigma**2, p.n_star
            for n in (0.5, *range(1, 4 * ns + 1)):
                lo, hi = d * s2 / ((m - 1) * ns + n), d * s2 / (n + ns)
                for alpha in alphas:
                    got = an.rinf_max_risk(n, p, alpha)
                    assert lo * (1 - 1e-13) <= got <= hi * (1 + 1e-13), (m, n, alpha, got)
                    try:
                        ref = d * _mobius_mean((m - 2) * ns, alpha**2 * s2 * (1 / n + 1 / ns),
                                               (n + ns) / s2, s2)
                    except an.NonpositiveL:
                        continue
                    if math.isfinite(ref):
                        worst = max(worst, abs(got - ref) / ref)
                        compared += 1
        assert worst <= 1e-12 and compared > 0.9 * len(ms) * len(alphas) * 30

    def test_reduced_form_at_the_ends_of_the_alpha_range(self, canonical):
        # alpha^2 (n + n*)^2 overflows from alpha about 1e153 and alpha^2
        # underflows below about 1e-162; the risk is still its limit there
        ns, top = canonical.n_star, math.nextafter(2.0**510, 0.0)
        for n in (0.5, 1, ns, 4 * ns):
            assert an.rinf_max_risk(n, canonical, top) == pytest.approx(1 / (n + ns), rel=1e-12)
            for alpha in (5e-324, 1e-200, 1e-160):
                assert an.rinf_max_risk(n, canonical, alpha) == pytest.approx(
                    1 / (8 * ns + n), rel=1e-15)

    @pytest.mark.parametrize("n", [0, -1, -0.5])
    def test_nonpositive_n_rejected(self, canonical, canonical_alpha, n):
        with pytest.raises(ValueError, match="n_i"):
            an.rinf_max_risk(n, canonical, canonical_alpha)
        with pytest.raises(ValueError, match="n_i"):
            an.penalty_closed_form(n, canonical, canonical_alpha)
        with pytest.raises(ValueError, match="n_i"):
            bayes_risk_Rl(1.0, n, canonical, canonical_alpha)

    def test_no_overflow_large_m(self):
        p = params_for(10_000)
        sol = solve_alpha(p)
        v = an.penalty_at_nstar(p, sol.alpha)
        assert math.isfinite(v)
        assert abs(an.penalty_derivative_at_nstar(p, sol.alpha)) < 1e-9


class TestPos:
    def test_hypothetical_a1(self):
        # A = 1, m = 9 plugged into the reduced formula
        p = params_for(9)
        alpha = math.sqrt(p.n_star)
        assert an.pos_mechany(p, alpha) == pytest.approx(0.5 * (81 / 31 + 1))

    def test_mechpk(self):
        assert an.pos_mechpk(0.25) == pytest.approx(1.25)
        assert an.pos_mechpk(0.5) == pytest.approx(1.5)
        assert an.pos_mechpk(0.1) == pytest.approx(1.1)

    def test_mechpk_infinite_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            an.pos_mechpk(math.inf)

    def test_small_m(self):
        p = ProblemParams(1.0, 1 / 64, 4, 1)
        assert an.pos_smallm(p) == pytest.approx(1.25)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, 1e200])
    def test_alpha_outside_range_rejected(self, canonical, alpha):
        # NaN and inf used to give a NaN price of stability, and 1e200 a bare
        # OverflowError from alpha**2
        with pytest.raises(InvalidParam, match="alpha"):
            an.pos_mechany(canonical, alpha)

    @pytest.mark.parametrize("m", [5, 9, 20, 21, 100, 500])
    def test_identity_and_range(self, m):
        p = params_for(m)
        alpha = solve_alpha(p).alpha
        pos = an.pos_mechany(p, alpha)
        ident = m * an.penalty_at_nstar(p, alpha) / (2 * p.sigma * math.sqrt(p.cost * m))
        assert pos == pytest.approx(ident, abs=1e-9)
        assert 1.0 < pos < 2.0


class TestBayesRisk:
    def test_increases_to_limit(self, canonical, canonical_alpha):
        rinf = an.rinf_max_risk(10, canonical, canonical_alpha)
        values = [bayes_risk_Rl(ell, 10, canonical, canonical_alpha)
                  for ell in (1.0, 10.0, 100.0)]
        assert all(v <= rinf for v in values)
        assert values[0] < values[1] < values[2]

    def test_convergence(self, canonical, canonical_alpha):
        rinf = an.rinf_max_risk(10, canonical, canonical_alpha)
        r1000 = bayes_risk_Rl(1000.0, 10, canonical, canonical_alpha)
        assert 0.999 * rinf <= r1000 <= rinf

    def test_prior_collapse(self, canonical, canonical_alpha):
        assert bayes_risk_Rl(1e-4, 10, canonical, canonical_alpha) < 1e-7

    @pytest.mark.parametrize("d", ORACLE_DIMS)
    @pytest.mark.parametrize("m", ORACLE_MS)
    def test_vs_quadrature(self, m, d):
        p = params_for(m, dim=d)
        s2, ns = p.sigma**2, p.n_star
        for ell in (1e-4, 1.0, 10.0, 1000.0):
            for alpha in oracle_alphas(p):
                for n in oracle_ns(p):
                    sig_tilde_sq = s2 / ns + 1.0 / (n / s2 + 1.0 / ell**2)

                    def f(e):
                        return 1.0 / ((m - 2) * ns / (s2 + alpha**2 * sig_tilde_sq * e * e)
                                      + (n + ns) / s2 + 1.0 / ell**2)

                    ref = std_normal_quad(f)
                    assert bayes_risk_Rl(ell, n, p, alpha) == pytest.approx(ref, rel=1e-10), \
                        (ell, alpha, n)


class TestHighdim:
    def test_e_of_m_at_one(self):
        assert an.e_of_m(9, 1.0) == pytest.approx(4 * (0 + 1 - 4) * 9 / (13 * (6 * 9 + 2)))
        assert an.e_of_m(9, 1.0) == pytest.approx(-108 / (13 * 56))
        assert an.e_of_m(9, 1.0) < 5 / 9

    @pytest.mark.parametrize("m", [5, 9, 20, 21, 100, 500])
    def test_bound_at_solved_ratio(self, m):
        p = params_for(m)
        sol = solve_alpha(p)
        assert an.e_of_m(m, sol.a_m) < 5.0 / m

    def test_dim_scaling_of_bound(self, canonical, canonical_alpha):
        # same sigma, cost, m, and ratio A: the bound scales as sqrt(d)
        p4 = ProblemParams(1.0, 1 / 900, 9, 4)
        assert p4.n_star == 20
        a_ratio = canonical_alpha / math.sqrt(canonical.n_star)
        alpha4 = a_ratio * math.sqrt(p4.n_star)
        assert an.highdim_penalty_bound(p4, alpha4) == pytest.approx(
            math.sqrt(4) * an.highdim_penalty_bound(canonical, canonical_alpha), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, 1e200])
    def test_alpha_outside_range_rejected(self, canonical, alpha):
        # NaN and inf used to give a NaN or inf bound, and 1e200 a bare
        # OverflowError from alpha**2
        with pytest.raises(InvalidParam, match="alpha"):
            an.highdim_penalty_bound(canonical, alpha)

    def test_zero_alpha_is_the_uncorrupted_limit(self, canonical):
        # with alpha = 0 the corrupted pool is clean: m/(2 + m - 2) + 1 = 2
        assert an.highdim_penalty_bound(canonical, 0.0) == pytest.approx(
            2 * canonical.sigma * math.sqrt(canonical.cost / canonical.agents), rel=1e-12)

    def test_bound_above_penalty(self, canonical, canonical_alpha):
        assert an.highdim_penalty_bound(canonical, canonical_alpha) > an.penalty_at_nstar(
            canonical, canonical_alpha
        )


class TestMechpkRisks:
    def test_canonical_values(self, canonical):
        deployed, exploit = an.mechpk_exploit_risk(canonical, 0.5)
        assert deployed == pytest.approx(2 / 90)
        assert exploit == pytest.approx(17 / 810)
        assert exploit < deployed

    def test_large_k_limit(self, canonical):
        deployed, exploit = an.mechpk_exploit_risk(canonical, 1e-4)
        pooled = 1.0 / 90
        assert deployed == pytest.approx(pooled, rel=1e-3)
        assert exploit == pytest.approx(pooled, rel=1e-3)

    def test_recommended_penalty(self, canonical):
        assert an.mechpk_recommended_penalty(canonical, 0.5) == pytest.approx(1 / 30)


class TestSizecheckAndSmallM:
    def test_minimized_at_nstar(self, canonical):
        vals = {n: an.sizecheck_penalty(n, canonical) for n in range(1, 41)}
        assert min(vals, key=vals.get) == 10

    @pytest.mark.parametrize("n", [-1, -0.5])
    def test_negative_n_rejected(self, canonical, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            an.sizecheck_penalty(n, canonical)

    def test_equilibrium_social_penalty(self, canonical):
        # PoS = 1: m agents at n* reach the global optimum 2 sigma sqrt(cm)
        social = 9 * an.sizecheck_penalty(10, canonical)
        assert social == pytest.approx(0.2, abs=1e-12)

    def test_smallm_participation(self):
        # the m <= 4 pooling penalty (1 + 1/m) sigma sqrt(c d) beats standing alone
        p = ProblemParams(1.0, 1 / 64, 4, 1)
        participating = (1 + 1 / p.agents) * p.sigma * math.sqrt(p.cost * p.dim)
        assert participating == pytest.approx(0.15625)
        assert participating < 2 * 1.0 * math.sqrt(1 / 64)


class TestHardyLittlewoodShift:
    @pytest.mark.parametrize("a", [-2.0, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("M", [1.0, 10.0])
    def test_shift_inequality(self, a, M):
        # even, increasing f against a centered Gaussian: shifting f away
        # from the mode cannot decrease the integral
        def f(x):
            return min(x * x, M)

        centered, _ = quad(lambda x: f(x) * phi(x), -30, 30, limit=200)
        shifted, _ = quad(lambda x: f(x - a) * phi(x), -30, 30, limit=200)
        assert centered <= shifted + 1e-12
