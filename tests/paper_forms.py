"""Closed forms from the paper's lemmas that the package does not compute.

Each is a witness for a step of a proof: the asymptotic erfc bounds behind
the root bracket of G, the Gaussian integral J, the Gaussian central
moments, and the Bayes risk whose limit gives minimaxity. The tests compare
them with the package's own paths; nothing in ``meanshare`` imports this
module.
"""

import math

import numpy as np

from meanshare.analytics import NonpositiveL, _mobius_mean
from meanshare.params import InvalidParam, ProblemParams, double_factorial, erfcx


def _scaled_erfc_lb(z):
    # e^{z^2} * erfc_lb(z): the two-term asymptotic series
    return (1 / z - 1 / (2 * z**3)) / math.sqrt(math.pi)


def _scaled_erfc_ub(z):
    # e^{z^2} * erfc_ub(z): the three-term asymptotic series
    return (1 / z - 1 / (2 * z**3) + 3 / (4 * z**5)) / math.sqrt(math.pi)


def erfc_lb(x):
    """Two-term asymptotic lower bound on erfc(x), valid for x > 0."""
    x = np.asarray(x, float)
    return np.exp(-x * x) * _scaled_erfc_lb(x)


def erfc_ub(x):
    """Three-term asymptotic upper bound on erfc(x), valid for x > 0."""
    x = np.asarray(x, float)
    return np.exp(-x * x) * _scaled_erfc_ub(x)


def g_bounds(alpha, p: ProblemParams):
    """(lower, upper) bounds on G from the asymptotic erfc expansion.

    The coefficient on the erfc term is positive for alpha >= sqrt(n*),
    so the erfc upper bound gives the G lower bound and vice versa.
    """
    m, ns = p.agents, p.n_star
    a = np.asarray(alpha, float)
    rmn = math.sqrt(m * ns)
    t1 = (4 * a**2 / ns * (m - 4) / (m - 2) - 1) * 4 * a / rmn
    coef = (4 * (m + 1) * a**2 / (m * ns) - 1) * math.sqrt(2 * math.pi)
    z = rmn / (2 * math.sqrt(2) * a)
    g_lb = t1 - coef * _scaled_erfc_ub(z)
    g_ub = t1 - coef * _scaled_erfc_lb(z)
    if np.ndim(alpha) == 0:
        return float(g_lb), float(g_ub)
    return g_lb, g_ub


def gauss_int_J(L: float) -> float:
    """E[1/(L + x^2)^2] for x ~ N(0,1)."""
    if L <= 0:
        raise NonpositiveL("L must be positive")
    return (math.sqrt(math.pi) / (2 * math.sqrt(2) * L**1.5)) * (1 - L) * erfcx(
        math.sqrt(L / 2)
    ) + 1 / (2 * L)


def bayes_risk_Rl(ell: float, n_i: int, p: ProblemParams, alpha: float) -> float:
    """Bayes risk under a centered Gaussian prior with variance ell^2
    (one-dimensional form), for an agent collecting and submitting n_i
    points against an n*-collecting field. Increases to the maximum risk
    as ell grows."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    if n_i <= 0:
        raise ValueError("n_i must be positive")
    s2, ns = p.sigma**2, p.n_star
    sig_tilde_sq = s2 / ns + 1.0 / (n_i / s2 + 1.0 / ell**2)
    B = (n_i + ns) / s2 + 1.0 / ell**2
    return _mobius_mean((p.agents - 2) * ns, alpha**2 * sig_tilde_sq, B, s2)


def normal_central_moment(p: int, sigma: float) -> float:
    """E[(X - mu)^p] for X ~ N(mu, sigma^2): 0 for odd p, sigma^p (p-1)!! for even p."""
    if p < 0:
        raise InvalidParam("moment order must be nonnegative")
    if p % 2 == 1:
        return 0.0
    return sigma**p * double_factorial(p - 1)
