"""The corruption-level equation G(alpha) = 0 and its bracketed solution.

G is the transcendental function that fixes the corruption modulator
alpha for the cross-check mechanism with m >= 5 agents. Writing
n* = sigma/sqrt(c_eff * m) (the recommended per-agent sample count,
with c_eff = c/d in d dimensions), G depends only on (alpha, m, n*):

    G(a) = (4a^2/n* * (m-4)/(m-2) - 1) * 4a/sqrt(m n*)
           - (4(m+1)a^2/(m n*) - 1) * sqrt(2 pi) * e^{m n*/(8 a^2)}
             * erfc(sqrt(m n*)/(2 sqrt(2) a))

The exp * erfc product is evaluated with the scaled kernel
erfcx(z) = e^{z^2} erfc(z), which is exact here because the exponent
m n*/(8 a^2) equals z^2; the raw exponential would overflow for large m.

The root is bracketed in (sqrt(n*), (1 + C_m/m) sqrt(n*)) with C_m = 20
for m <= 20 and C_m = 5 for m > 20, and located by plain bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from .params import ProblemParams

__all__ = [
    "NonpositiveX",
    "NoSignChange",
    "MaxIterations",
    "AlphaSolution",
    "erfc_lb",
    "erfc_ub",
    "g_of_alpha",
    "g_bounds",
    "g_ub_at_bracket_lo",
    "bracket",
    "c_m",
    "solve_alpha",
]


class NonpositiveX(ValueError):
    pass


class NoSignChange(RuntimeError):
    """No sign change at the bracket endpoints; regime outside the proven interval."""


class MaxIterations(RuntimeError):
    pass


# bisection steps before solve_alpha raises MaxIterations
_MAX_ITER = 200


def _scaled_erfc_lb(z):
    # e^{z^2} * erfc_lb(z): the two-term asymptotic series
    return (1 / z - 1 / (2 * z**3)) / math.sqrt(math.pi)


def _scaled_erfc_ub(z):
    # e^{z^2} * erfc_ub(z): the three-term asymptotic series
    return (1 / z - 1 / (2 * z**3) + 3 / (4 * z**5)) / math.sqrt(math.pi)


def erfc_lb(x):
    """Two-term asymptotic lower bound on erfc(x), valid for x > 0."""
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise NonpositiveX("erfc_lb needs x > 0")
    return np.exp(-x * x) * _scaled_erfc_lb(x)


def erfc_ub(x):
    """Three-term asymptotic upper bound on erfc(x), valid for x > 0."""
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise NonpositiveX("erfc_ub needs x > 0")
    return np.exp(-x * x) * _scaled_erfc_ub(x)


def c_m(m: int) -> float:
    """Bracket-width constant: 20 for m <= 20, 5 for m > 20."""
    return 20.0 if m <= 20 else 5.0


def _check_regime(p: ProblemParams):
    if p.agents <= 4:
        raise ValueError("no corruption level is defined for m <= 4 (pooling regime); "
                         "it needs 5 or more agents")
    if p.n_star <= 0:
        raise ValueError("params must be validated first (n_star missing)")


def _g_terms(alpha, m: int, ns: float):
    alpha = np.asarray(alpha, float)
    mn = m * ns
    t1 = (4 * alpha**2 / ns * (m - 4) / (m - 2) - 1) * 4 * alpha / math.sqrt(mn)
    coef = 4 * (m + 1) * alpha**2 / mn - 1
    z = math.sqrt(mn) / (2 * math.sqrt(2)) / alpha
    return t1, coef, z


def g_of_alpha(alpha, p: ProblemParams) -> float:
    """Evaluate G(alpha). Accepts scalars or arrays of alpha values."""
    _check_regime(p)
    t1, coef, z = _g_terms(alpha, p.agents, p.n_star)
    val = t1 - coef * math.sqrt(2 * math.pi) * erfcx(z)
    return float(val) if np.ndim(alpha) == 0 else val


def g_bounds(alpha, p: ProblemParams):
    """(lower, upper) bounds on G from the asymptotic erfc expansion.

    The coefficient on the erfc term is positive for alpha >= sqrt(n*),
    so the erfc upper bound gives the G lower bound and vice versa.
    """
    _check_regime(p)
    t1, coef, z = _g_terms(alpha, p.agents, p.n_star)
    s = math.sqrt(2 * math.pi)
    g_lb = t1 - coef * s * _scaled_erfc_ub(z)
    g_ub = t1 - coef * s * _scaled_erfc_lb(z)
    if np.ndim(alpha) == 0:
        return float(g_lb), float(g_ub)
    return g_lb, g_ub


def g_ub_at_bracket_lo(m: int) -> float:
    """Closed form of the G upper bound at alpha = sqrt(n*): -128/((m-2) m^{5/2}).

    This is the quantity that proves G(sqrt(n*)) < 0; the exact G value at
    sqrt(n*) lies strictly below it.
    """
    return -128.0 / ((m - 2) * m**2.5)


def bracket(p: ProblemParams) -> tuple[float, float]:
    """Proven root bracket (sqrt(n*), (1 + C_m/m) sqrt(n*))."""
    _check_regime(p)
    lo = math.sqrt(p.n_star)
    return lo, (1 + c_m(p.agents) / p.agents) * lo


@dataclass(frozen=True)
class AlphaSolution:
    alpha: float
    a_m: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    warnings: tuple[str, ...] = field(default=())


def solve_alpha(p: ProblemParams, tol: float | None = None) -> AlphaSolution:
    """Bisect G on the proven bracket and return the located root.

    tol defaults to 1e-12 * sqrt(n*). A 64-point grid scan over the bracket
    reports (as a warning, not an error) any extra sign changes, since
    uniqueness of the root is not guaranteed.
    """
    _check_regime(p)
    lo, hi = bracket(p)
    if tol is None:
        tol = 1e-12 * lo
    if tol <= 0:
        raise ValueError("tol must be positive")

    g_lo = g_of_alpha(lo, p)
    g_hi = g_of_alpha(hi, p)
    if g_lo == 0.0:
        root = lo
    elif g_hi == 0.0:
        root = hi
    elif g_lo * g_hi > 0:
        raise NoSignChange(
            f"G has the same sign at both bracket endpoints (G({lo})={g_lo}, G({hi})={g_hi})"
        )
    else:
        a, b = lo, hi
        fa = g_lo
        root = None
        for _ in range(_MAX_ITER):
            mid = 0.5 * (a + b)
            fm = g_of_alpha(mid, p)
            if fm == 0.0 or (b - a) / 2 <= tol:
                root = mid
                break
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        if root is None:
            raise MaxIterations(f"bisection did not converge in {_MAX_ITER} iterations")

    warnings = []
    grid = np.linspace(lo, hi, 64)
    signs = np.sign(g_of_alpha(grid, p))
    n_changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    if n_changes > 1:
        warnings.append(f"{n_changes} sign changes detected on the bracket; returning the bisection root")

    return AlphaSolution(
        alpha=float(root),
        a_m=float(root / lo),
        bracket_lo=lo,
        bracket_hi=hi,
        residual=g_of_alpha(float(root), p),
        warnings=tuple(warnings),
    )
