"""The corruption-level equation G(alpha) = 0 and its bracketed solution.

G is the transcendental function that fixes the corruption modulator
alpha for the cross-check mechanism with m >= 5 agents. Writing
n* = sigma sqrt(d)/sqrt(c m) for the recommended per-agent sample count
in d dimensions, G depends only on (alpha, m, n*):

    G(a) = (4a^2/n* * (m-4)/(m-2) - 1) * 4a/sqrt(m n*)
           - (4(m+1)a^2/(m n*) - 1) * sqrt(2 pi) * e^{m n*/(8 a^2)}
             * erfc(sqrt(m n*)/(2 sqrt(2) a))

The exp * erfc product is evaluated with the scaled kernel
erfcx(z) = e^{z^2} erfc(z), which is exact here because the exponent
m n*/(8 a^2) equals z^2; the raw exponential would overflow for large m.
The kernel is :func:`meanshare.params.erfcx`, mapped over the sign
scan's grid by :func:`meanshare.params.erfcx_array`: e^{z^2} erfc(z)
through ``math`` below z = 8, and a 12-term continued fraction from 8 on,
with relative error below 4e-15. On the bracket z is at most sqrt(m/8),
its value at alpha = sqrt(n*), so it stays below 8 for m < 512.

The root is bracketed in (sqrt(n*), (1 + C_m/m) sqrt(n*)) with C_m = 20
for m <= 20 and C_m = 5 for m > 20. At the low end the asymptotic bound
erfc(x) >= e^{-x^2} (1/x - 1/(2x^3))/sqrt(pi) gives
G(sqrt(n*)) <= -128/((m-2) m^{5/2}) < 0. The root is located by the ITP
method (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
47(1), 2020). ITP keeps the bracket and bisection's worst-case step count, and
converges superlinearly on a smooth simple root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import InvalidParam, ProblemParams, erfcx, erfcx_array

__all__ = [
    "NoSignChange",
    "AlphaSolution",
    "g_of_alpha",
    "bracket",
    "c_m",
    "solve_alpha",
]


class NoSignChange(RuntimeError):
    """No sign change at the bracket endpoints; regime outside the proven interval."""


# ITP constants: truncation delta = (_ITP_K1 / initial width) * width^2, and
# _ITP_N0 steps of slack over bisection's count
_ITP_K1 = 0.2
_ITP_N0 = 1


_SQRT_2PI = math.sqrt(2 * math.pi)
# g_of_alpha's upper limit: below it alpha^2 <= 2**1020, so the erfcx term,
# whose coefficient is at most 4.8 alpha^2, stays finite
_ALPHA_MAX = 2.0**510


def c_m(m: int) -> float:
    """Bracket-width constant: 20 for m <= 20, 5 for m > 20."""
    return 20.0 if m <= 20 else 5.0


def _check_regime(p: ProblemParams):
    if p.agents <= 4:
        raise ValueError("no corruption level is defined for m <= 4 (pooling regime); "
                         "it needs 5 or more agents")


def g_of_alpha(alpha, p: ProblemParams) -> float:
    """Evaluate G(alpha). Accepts scalars or arrays of alpha values.

    A float (the root finder's case) stays a float through ``math`` and
    ``erfcx``, with no array conversion. Raises :class:`InvalidParam` for
    an alpha outside (0, 2**510), NaN and inf included: G is defined for
    alpha > 0, and from 2**510 on both of its terms can overflow to inf,
    whose difference is NaN. Below 2**510 G is finite or, where its alpha^3
    growth overflows, +inf.
    """
    _check_regime(p)
    if isinstance(alpha, float):
        if not 0 < alpha < _ALPHA_MAX:
            raise InvalidParam(f"G is defined here for 0 < alpha < 2**510, got {alpha}")
    else:
        alpha = np.asarray(alpha, float)
        if alpha.size and not (0 < alpha.min() and alpha.max() < _ALPHA_MAX):
            raise InvalidParam(f"G is defined here for 0 < alpha < 2**510, got {alpha}")
    # plain arithmetic, so a float stays a float and an array an array; the
    # scalar coefficients are folded first so that an array alpha takes few
    # array operations
    m, ns = p.agents, p.n_star
    mn = m * ns
    rmn = math.sqrt(mn)
    a2 = alpha * alpha
    t1 = (4 * (m - 4) / ((m - 2) * ns) * a2 - 1) * (4 / rmn * alpha)
    coef = 4 * (m + 1) / mn * a2 - 1
    z = rmn / (2 * math.sqrt(2)) / alpha
    if isinstance(z, np.ndarray):
        return t1 - coef * _SQRT_2PI * erfcx_array(z)
    return float(t1 - coef * _SQRT_2PI * erfcx(z))


def bracket(p: ProblemParams) -> tuple[float, float]:
    """Proven root bracket (sqrt(n*), (1 + C_m/m) sqrt(n*))."""
    _check_regime(p)
    lo = math.sqrt(p.n_star)
    return lo, (1 + c_m(p.agents) / p.agents) * lo


@dataclass(frozen=True)
class AlphaSolution:
    """The located root. ``iterations`` counts the evaluations of G the
    root finder made inside the bracket (the two endpoint evaluations, the
    residual and the sign scan are not counted)."""

    alpha: float
    a_m: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    warnings: tuple[str, ...] = field(default=())


def solve_alpha(p: ProblemParams) -> AlphaSolution:
    """Locate the root of G on the proven bracket with ITP steps.

    Each step evaluates G once and keeps a bracket with a sign change, to a
    tolerance tol = 1e-12 * sqrt(n*). ITP stops once the bracket is at most
    2 tol wide or after n_max = ceil(log2((hi - lo) / (2 tol))) + 1 steps,
    one more than bisection, whichever comes first; on a smooth simple root
    it takes far fewer. The root is the midpoint of the final bracket. In
    exact arithmetic n_max steps shrink the bracket to 2 tol; in floating
    point the rounded midpoints can leave it wider by less than one unit in
    the last place of the root, so the root lies within tol of a sign
    change up to that rounding. A 64-point grid scan over the bracket
    reports (as a warning, not an error) any extra sign changes, since
    uniqueness of the root is not guaranteed.
    """
    _check_regime(p)
    lo, hi = bracket(p)
    tol = 1e-12 * lo

    g_lo = g_of_alpha(lo, p)
    g_hi = g_of_alpha(hi, p)
    steps = 0
    if g_lo == 0.0:
        root = lo
    elif g_hi == 0.0:
        root = hi
    elif g_lo * g_hi > 0:
        raise NoSignChange(
            f"G has the same sign at both bracket endpoints (G({lo})={g_lo}, G({hi})={g_hi})"
        )
    else:
        a, b, fa, fb = lo, hi, g_lo, g_hi
        # step budget of the minmax guarantee
        n_max = math.ceil(math.log2((b - a) / (2 * tol))) + _ITP_N0
        k1 = _ITP_K1 / (b - a)
        while b - a > 2 * tol and steps < n_max:
            mid = 0.5 * (a + b)
            # interpolate: the regula falsi point
            xf = (b * fa - a * fb) / (fa - fb)
            # truncate: move it towards the midpoint by delta
            side = math.copysign(1.0, mid - xf)
            delta = k1 * (b - a) ** 2
            xt = xf + side * delta if delta <= abs(mid - xf) else mid
            # project: stay within r of the midpoint, which keeps the budget
            r = max(math.ldexp(tol, n_max - steps) - 0.5 * (b - a), 0.0)
            x = xt if abs(xt - mid) <= r else mid - side * r
            fx = g_of_alpha(x, p)
            steps += 1
            if fx == 0.0:
                a = b = x
            elif (fx < 0) == (fa < 0):
                a, fa = x, fx
            else:
                b, fb = x, fx
        root = 0.5 * (a + b)

    warnings = []
    # np.linspace(lo, hi, 64), built without its Python-level overhead
    grid = np.arange(64) * ((hi - lo) / 63) + lo
    grid[-1] = hi
    signs = np.sign(g_of_alpha(grid, p))
    n_changes = np.count_nonzero(signs[:-1] * signs[1:] < 0)
    if n_changes > 1:
        warnings.append(f"{n_changes} sign changes detected on the bracket; returning the ITP root")

    return AlphaSolution(
        alpha=float(root),
        a_m=float(root / lo),
        bracket_lo=lo,
        bracket_hi=hi,
        residual=g_of_alpha(float(root), p),
        iterations=steps,
        warnings=tuple(warnings),
    )
