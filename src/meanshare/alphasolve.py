"""The corruption-level equation G(alpha) = 0 and its bracketed solution.

G is the transcendental function that fixes the corruption modulator
alpha for the cross-check mechanism with m >= 5 agents. Writing
n* = sigma sqrt(d)/sqrt(c m) for the recommended per-agent sample count
in d dimensions and A = alpha/sqrt(n*), G depends only on (A, m):

    G(A, m) = (4A^2 (m-4)/(m-2) - 1) * 4A/sqrt(m)
              - (4(m+1)A^2/m - 1) * sqrt(2 pi) * e^{m/(8 A^2)}
                * erfc(sqrt(m)/(2 sqrt(2) A))

The exp * erfc product is evaluated with the scaled kernel
erfcx(z) = e^{z^2} erfc(z), which is exact here because the exponent
m/(8 A^2) equals z^2; the raw exponential would overflow for large m.
The kernel is :func:`meanshare.params.erfcx`: e^{z^2} erfc(z) through
``math`` below z = 8, and a 12-term continued fraction from 8 on, with
relative error below 4e-15. On the bracket z is at most sqrt(m/8), its
value at A = 1, so it stays below 8 for m < 512. G is evaluated one
float at a time, the sign scan's 64 points included.

The root is bracketed in A in (1, 1 + C_m/m) with C_m = 20 for m <= 20
and C_m = 5 for m > 20, that is alpha in (sqrt(n*), (1 + C_m/m) sqrt(n*)).
At the low end the asymptotic bound
erfc(x) >= e^{-x^2} (1/x - 1/(2x^3))/sqrt(pi) gives
G(1, m) <= -128/((m-2) m^{5/2}) < 0. The root is located in A by the ITP
method (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
47(1), 2020). ITP keeps the bracket and bisection's worst-case step count, and
converges superlinearly on a smooth simple root. Since the root in A is a
constant of m, it is solved once per m in each process and memoized;
``_solve_a.cache_clear()`` forgets it, which anyone who replaces ``_g``
(say, with a mutant) must call first.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .params import InvalidParam, ProblemParams, erfcx

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
# the upper limit of every alpha: below it alpha^2 <= 2**1020, so G's erfcx
# term, whose coefficient is at most 4.8 alpha^2, and the closed forms'
# alpha^2 stay finite
_ALPHA_MAX = 2.0**510


def _check_alpha(alpha: float) -> None:
    """Raise :class:`InvalidParam` unless 0 < alpha < 2**510, the one alpha
    domain of the package (NaN and inf are outside it)."""
    if not 0 < alpha < _ALPHA_MAX:
        raise InvalidParam(f"alpha must be in (0, 2**510), got {alpha}")


def c_m(m: int) -> float:
    """Bracket-width constant: 20 for m <= 20, 5 for m > 20."""
    return 20.0 if m <= 20 else 5.0


def _check_regime(p: ProblemParams):
    if p.agents <= 4:
        raise ValueError("no corruption level is defined for m <= 4 (pooling regime); "
                         "it needs 5 or more agents")


def _g(a: float, m: int) -> float:
    """G(A, m) of a float A, the package's one formula for G."""
    a2 = a * a
    t1 = (4 * (m - 4) / (m - 2) * a2 - 1) * (4 / math.sqrt(m) * a)
    coef = 4 * (m + 1) / m * a2 - 1
    return t1 - coef * _SQRT_2PI * erfcx(math.sqrt(m) / (2 * math.sqrt(2)) / a)


def g_of_alpha(alpha: float, p: ProblemParams) -> float:
    """Evaluate G(alpha) of a real scalar alpha as G(alpha/sqrt(n*), m).

    Raises :class:`TypeError` for anything but a real scalar (an array
    included), and :class:`InvalidParam` for an alpha outside (0, 2**510),
    NaN and inf included: G is defined for alpha > 0, and from 2**510 on
    both of its terms can overflow to inf, whose difference is NaN. Below
    2**510 G is finite or, where its alpha^3 growth overflows, +inf.
    """
    _check_regime(p)
    if not isinstance(alpha, numbers.Real):
        raise TypeError(f"alpha must be a real scalar, got {type(alpha).__name__}")
    alpha = float(alpha)
    _check_alpha(alpha)
    return _g(alpha / math.sqrt(p.n_star), p.agents)


def bracket(p: ProblemParams) -> tuple[float, float]:
    """Proven root bracket (sqrt(n*), (1 + C_m/m) sqrt(n*))."""
    _check_regime(p)
    lo = math.sqrt(p.n_star)
    return lo, (1 + c_m(p.agents) / p.agents) * lo


@dataclass(frozen=True)
class AlphaSolution:
    """The located root. ``iterations`` counts the evaluations of G the
    root finder made inside the bracket (the two endpoint evaluations, the
    residual and the sign scan are not counted). ``a_m``, ``iterations``
    and ``warnings`` are those of the solve in A for this m, shared by
    every sigma, d and n*; ``residual`` is G at this ``alpha`` and these
    params."""

    alpha: float
    a_m: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    warnings: tuple[str, ...] = field(default=())


# 512 holds every m of a 5..500 scan: a smaller LRU would miss on every call of a sequential scan
@functools.lru_cache(maxsize=512)
def _solve_a(m: int) -> tuple[float, int, tuple[str, ...]]:
    """The root A of G(., m) on (1, 1 + C_m/m), its ITP step count and the sign scan's warnings."""
    lo, hi = 1.0, 1 + c_m(m) / m
    tol = 1e-12

    g_lo, g_hi = _g(lo, m), _g(hi, m)
    steps = 0
    if g_lo == 0.0:
        root = lo
    elif g_hi == 0.0:
        root = hi
    elif g_lo * g_hi > 0:
        raise NoSignChange(
            f"G has the same sign at both bracket ends in A (G({lo})={g_lo}, G({hi})={g_hi})"
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
            fx = _g(x, m)
            steps += 1
            if fx == 0.0:
                a = b = x
            elif (fx < 0) == (fa < 0):
                a, fa = x, fx
            else:
                b, fb = x, fx
        root = 0.5 * (a + b)

    warnings = []
    signs = np.sign([_g(a, m) for a in np.linspace(lo, hi, 64).tolist()])
    n_changes = np.count_nonzero(signs[:-1] * signs[1:] < 0)
    if n_changes > 1:
        warnings.append(f"{n_changes} sign changes detected on the bracket; returning the ITP root")
    return root, steps, tuple(warnings)


def solve_alpha(p: ProblemParams) -> AlphaSolution:
    """Locate the root of G on the proven bracket with ITP steps.

    The root is found in A = alpha/sqrt(n*), where G depends on m alone,
    and returned as alpha = A sqrt(n*); it is solved once per m in each
    process and memoized. Each step evaluates G once and keeps a bracket
    with a sign change, to a tolerance tol = 1e-12 in A, which is
    1e-12 * sqrt(n*) in alpha. ITP stops once the bracket is at most
    2 tol wide or after n_max = ceil(log2((hi - lo) / (2 tol))) + 1 steps,
    one more than bisection, whichever comes first; on a smooth simple root
    it takes far fewer. The root is the midpoint of the final bracket. In
    exact arithmetic n_max steps shrink the bracket to 2 tol; in floating
    point the rounded midpoints can leave it wider by less than one unit in
    the last place of the root, so the root lies within tol of a sign
    change up to that rounding. A 64-point grid scan over the bracket
    reports (as a warning, not an error) any extra sign changes, since
    uniqueness of the root is not guaranteed. ``iterations`` and ``warnings``
    are those of the solve for this m; code that replaces ``_g`` must call
    ``_solve_a.cache_clear()``, or earlier roots are returned.
    """
    lo, hi = bracket(p)
    a_m, steps, warnings = _solve_a(p.agents)
    alpha = a_m * lo
    return AlphaSolution(alpha=alpha, a_m=a_m, bracket_lo=lo, bracket_hi=hi,
                         residual=g_of_alpha(alpha, p), iterations=steps, warnings=warnings)
