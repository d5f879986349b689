import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import params_for
from meanshare import alphasolve
from meanshare.alphasolve import bracket, c_m, g_of_alpha, solve_alpha
from meanshare.params import InvalidParam, ProblemParams
from paper_forms import erfc_lb, erfc_ub, g_bounds


def erfc_oracle(x: float) -> float:
    return float(mpmath.erfc(x))


class TestErfcBounds:
    def test_lb_value(self):
        # e^{-1} (1 - 1/2) / sqrt(pi), to high precision
        expect = float(mpmath.exp(-1) * mpmath.mpf(0.5) / mpmath.sqrt(mpmath.pi))
        assert erfc_lb(1.0) == pytest.approx(expect, abs=1e-12)
        assert erfc_lb(1.0) == pytest.approx(0.1037769, abs=1e-6)

    def test_ub_value(self):
        expect = float(mpmath.exp(-1) * mpmath.mpf(1.25) / mpmath.sqrt(mpmath.pi))
        assert erfc_ub(1.0) == pytest.approx(expect, abs=1e-12)
        assert erfc_ub(1.0) == pytest.approx(0.2594422, abs=1e-6)

    def test_sandwich_at_3(self):
        ref = erfc_oracle(3.0)
        assert ref == pytest.approx(2.209e-5, rel=1e-3)
        assert erfc_lb(3.0) <= ref <= erfc_ub(3.0)

    def test_sandwich_log_grid(self):
        for x in np.geomspace(0.3, 20.0, 60):
            ref = erfc_oracle(float(x))
            assert erfc_lb(float(x)) <= ref <= erfc_ub(float(x))


class TestGOfAlpha:
    def test_negative_at_bracket_lo(self, canonical):
        assert g_of_alpha(math.sqrt(canonical.n_star), canonical) < 0

    def test_positive_at_bracket_hi(self, canonical):
        hi = (1 + 20 / 9) * math.sqrt(canonical.n_star)
        assert g_of_alpha(hi, canonical) > 0

    def test_upper_bound_closed_form(self, canonical):
        # the -128/((m-2) m^{5/2}) value is the G upper bound at sqrt(n*),
        # and G lies below it there for every m
        lo = math.sqrt(canonical.n_star)
        _, ub = g_bounds(lo, canonical)
        expect = -128.0 / (7 * 9**2.5)
        assert ub == pytest.approx(expect, rel=1e-10)
        assert g_of_alpha(lo, canonical) <= ub
        for m in range(5, 501):
            p = params_for(m)
            assert g_of_alpha(math.sqrt(p.n_star), p) <= -128.0 / ((m - 2) * m**2.5), m

    def test_matches_unscaled_formula(self, canonical):
        # moderate alpha: direct exp * erfc product is representable and must agree
        a = 1.3 * math.sqrt(canonical.n_star)
        m, ns = 9, 10
        t1 = ((m - 4) / (m - 2) * 4 * a**2 / ns - 1) * 4 * a / math.sqrt(m * ns)
        z = math.sqrt(m * ns) / (2 * math.sqrt(2) * a)
        t2 = (4 * (m + 1) * a**2 / (m * ns) - 1) * math.sqrt(2 * math.pi) * math.exp(z * z) * erfc_oracle(z)
        assert g_of_alpha(a, canonical) == pytest.approx(t1 - t2, rel=1e-12)

    def test_small_m_rejected(self):
        p = ProblemParams(1.0, 1 / 64, 4, 1)
        with pytest.raises(ValueError):
            g_of_alpha(1.0, p)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, -0.01, math.nan, math.inf, 1e200])
    def test_nonpositive_alpha_rejected(self, canonical, alpha):
        # G is defined for alpha > 0; outside it the formula returns a wrong
        # number (-1.0), divides by zero (0.0) or overflows math.exp (-0.01);
        # from 2**510 on its two terms overflow to inf, and inf - inf is NaN
        with pytest.raises(InvalidParam):
            g_of_alpha(alpha, canonical)

    @pytest.mark.parametrize("alpha", [
        np.array([3.5, 4.0]), np.array([3.5, -1.0]), np.array(3.5), [3.5], "3.5", None, 3.5 + 0j,
    ], ids=["array", "array-with-bad-entry", "0-d-array", "list", "str", "None", "complex"])
    def test_non_scalar_alpha_rejected(self, canonical, monkeypatch, alpha):
        # G takes one real alpha; anything else is refused before G is evaluated
        monkeypatch.setattr(alphasolve, "_g", lambda a, m: pytest.fail("G was evaluated"))
        with pytest.raises(TypeError, match="real scalar"):
            g_of_alpha(alpha, canonical)

    @pytest.mark.parametrize("alpha", [3.5, 3, np.float64(3.5), np.float32(3.5), np.int64(3)],
                             ids=repr)
    def test_real_scalar_alpha_gives_a_float(self, canonical, alpha):
        g = g_of_alpha(alpha, canonical)
        assert type(g) is float and g == g_of_alpha(float(alpha), canonical)

    def test_no_nan_below_alpha_limit(self):
        # the accepted range ends where the two terms of G could both
        # overflow; inside it G is finite or, for huge alpha, +inf
        for m, n_star in itertools.product((5, 9, 500), (1, 10)):
            p = params_for(m, n_star=n_star)
            grid = np.geomspace(1e-300, np.nextafter(2.0**510, 0), 2001)
            g = np.array([g_of_alpha(a, p) for a in grid.tolist()])
            assert not np.isnan(g).any()
            assert np.all(g[grid > 1e105] == math.inf)
            assert math.isfinite(g_of_alpha(1e-300, p))
            assert g_of_alpha(float(grid[-1]), p) == math.inf


class TestGBounds:
    @pytest.mark.parametrize("m,factor", [(9, 1.05), (50, 1.2)])
    def test_sandwich(self, m, factor):
        p = params_for(m)
        a = factor * math.sqrt(p.n_star)
        lb, ub = g_bounds(a, p)
        assert lb <= g_of_alpha(a, p) <= ub

    @pytest.mark.parametrize("m", [5, 9, 20, 21, 100])
    def test_sandwich_on_bracket_grid(self, m):
        p = params_for(m)
        lo, hi = bracket(p)
        grid = np.linspace(lo * 1.0001, hi, 25)
        lb, ub = g_bounds(grid, p)
        g = np.array([g_of_alpha(a, p) for a in grid.tolist()])
        assert np.all(lb <= g + 1e-12)
        assert np.all(g <= ub + 1e-12)


class TestSolveAlpha:
    def test_canonical(self, canonical):
        sol = solve_alpha(canonical)
        assert 1.0 < sol.a_m < 1 + 20 / 9
        assert abs(sol.residual) < 1e-9
        assert sol.bracket_lo < sol.alpha < sol.bracket_hi

    def test_large_m(self):
        p = ProblemParams(1.0, 4 / 90000, 900, 1)
        assert p.n_star == 5
        sol = solve_alpha(p)
        assert 1.0 < sol.a_m < 1 + 5 / 900

    @pytest.mark.parametrize("m", [5, 7, 9, 20, 21, 50, 100, 250, 500])
    def test_bracket_signs(self, m):
        p = params_for(m)
        lo, hi = bracket(p)
        assert g_of_alpha(lo, p) < 0
        assert g_of_alpha(hi, p) > 0
        assert c_m(m) == (20.0 if m <= 20 else 5.0)

    def test_params_from_constructor_solve(self, canonical):
        # n* is derived when the params are made: no validation step first
        assert solve_alpha(ProblemParams(1.0, 1 / 900, 9, 1)) == solve_alpha(canonical)

    def test_no_warnings_canonical(self, canonical):
        assert solve_alpha(canonical).warnings == ()


def alpha_oracle(m: int, n_star: int) -> float:
    """Root of G on the proven bracket in 30-digit mpmath arithmetic."""
    with mpmath.workdps(30):
        mn = mpmath.mpf(m * n_star)

        def G(a):
            return ((4 * a**2 / n_star * mpmath.mpf(m - 4) / (m - 2) - 1) * 4 * a / mpmath.sqrt(mn)
                    - (4 * (m + 1) * a**2 / mn - 1) * mpmath.sqrt(2 * mpmath.pi)
                    * mpmath.exp(mn / (8 * a**2)) * mpmath.erfc(mpmath.sqrt(mn) / (2 * mpmath.sqrt(2) * a)))

        lo = mpmath.sqrt(n_star)
        hi = (1 + mpmath.mpf(c_m(m)) / m) * lo
        return float(mpmath.findroot(G, (lo, hi), solver="anderson"))


def test_roots_without_scipy():
    # the package's own erfcx: with scipy blocked, the CLI imports and
    # solve_alpha still finds each root within tol
    ms = (5, 6, 9, 500)
    code = ("import sys; sys.modules['scipy'] = None; import meanshare.cli\n"
            "from meanshare.alphasolve import solve_alpha\n"
            "from meanshare.params import ProblemParams, cost_for_n_star\n"
            f"for m in {ms!r}:\n"
            "    p = ProblemParams(1.0, cost_for_n_star(1.0, 10, m), m)\n"
            "    print(repr(solve_alpha(p).alpha))\n")
    src = str(Path(alphasolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert len(out) == len(ms)
    for m, root in zip(ms, out):
        assert abs(float(root) - alpha_oracle(m, 10)) <= 1e-12 * math.sqrt(10), m


class TestITP:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("m", [5, 6, 9, 20, 21, 100, 500])
    def test_root_within_tol_of_mpmath(self, m, d):
        p = params_for(m, dim=d)
        sol = solve_alpha(p)
        assert abs(sol.alpha - alpha_oracle(m, p.n_star)) <= 1e-12 * math.sqrt(p.n_star)

    def test_iterations_within_itp_bound(self):
        # m = 6 spends the whole budget: G dips mid-bracket and ITP falls
        # back to bisection, whose rounded midpoints can leave the bracket a
        # fraction of an ulp wider than 2 tol; the solve runs in A, so this
        # holds at every n*
        for n_star in (1, 10, 37):
            counts = []
            for m in range(5, 501):
                p = params_for(m, n_star=n_star)
                lo, hi = bracket(p)
                sol = solve_alpha(p)
                bound = math.ceil(math.log2((hi - lo) / (2e-12 * lo))) + 1
                assert 1 <= sol.iterations <= bound, (m, n_star)
                counts.append(sol.iterations)
            assert np.median(counts) <= 10

    @pytest.mark.parametrize("n_star", [1, 37])
    def test_full_budget_root_within_tol(self, n_star):
        # the cases that end on the step budget, not on the bracket width
        p = params_for(6, n_star=n_star)
        sol = solve_alpha(p)
        assert abs(sol.alpha - alpha_oracle(6, n_star)) <= 1e-12 * math.sqrt(n_star)


class TestRootMemo:
    """The root in A = alpha/sqrt(n*) is a constant of m, solved once per m."""

    # (sigma, d, n*) triples that share each m
    CASES = [(1.0, 1, 1), (0.5, 3, 10), (2.0, 2, 37), (3.0, 5, 4)]

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        alphasolve._solve_a.cache_clear()
        yield
        alphasolve._solve_a.cache_clear()

    @pytest.fixture
    def g_calls(self, monkeypatch):
        calls = []
        g = alphasolve._g

        def counted(a, m):
            calls.append(m)
            return g(a, m)

        monkeypatch.setattr(alphasolve, "_g", counted)
        return calls

    @pytest.mark.parametrize("m", [5, 6, 9, 21, 500])
    def test_solve_depends_on_m_only(self, m):
        sols = []
        for sigma, d, n_star in self.CASES:
            sol = solve_alpha(params_for(m, n_star=n_star, sigma=sigma, dim=d))
            assert abs(sol.alpha - alpha_oracle(m, n_star)) <= 1e-12 * math.sqrt(n_star), (m, n_star)
            sols.append(sol)
        for sol in sols[1:]:
            assert (sol.a_m, sol.iterations, sol.warnings) == (sols[0].a_m, sols[0].iterations,
                                                               sols[0].warnings)

    def test_second_solve_at_m_evaluates_g_for_its_residual_only(self, g_calls):
        (s1, d1, n1), (s2, d2, n2) = self.CASES[:2]
        first = solve_alpha(params_for(9, n_star=n1, sigma=s1, dim=d1))
        # two bracket ends, the ITP steps, the 64 points of the sign scan and
        # the residual
        assert len(g_calls) == first.iterations + 67
        g_calls.clear()
        solve_alpha(params_for(9, n_star=n2, sigma=s2, dim=d2))
        assert len(g_calls) == 1
        info = alphasolve._solve_a.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("m", [5, 6, 9, 100])
    def test_cold_and_warm_solves_equal(self, m):
        p = params_for(m, n_star=37, sigma=2.0, dim=3)
        cold = solve_alpha(p)
        warm = solve_alpha(p)
        alphasolve._solve_a.cache_clear()
        assert cold == warm == solve_alpha(p)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_small_m_rejected_and_not_cached(self, m):
        with pytest.raises(ValueError):
            solve_alpha(params_for(m))
        info = alphasolve._solve_a.cache_info()
        assert (info.currsize, info.misses, info.hits) == (0, 0, 0)

    def test_scan_fits_the_cache(self):
        # a 5..500 scan at d = 1 and then d = 3 solves each m once
        for d in (1, 3):
            for m in range(5, 501):
                solve_alpha(params_for(m, dim=d))
        info = alphasolve._solve_a.cache_info()
        assert (info.misses, info.hits, info.currsize) == (496, 496, 496)
