"""Closed-form penalty analytics.

Everything here is deterministic: baseline penalties, the equilibrium
penalty function p(n) and its closed-form value/derivative at n*, the
Gaussian integral identity behind those closed forms, price-of-stability
formulas, and the bounded-variance high-dimensional bounds.

Exponential-times-erfc products are always evaluated through the scaled
kernel erfcx(z) = e^{z^2} erfc(z); the raw product overflows for large
agent counts. The kernel is :func:`meanshare.params.erfcx`: e^{z^2}
erfc(z) through ``math`` below z = 8, and a 12-term continued fraction
from 8 on, with relative error below 4e-15.

The risk of the recommended estimator, :func:`rinf_max_risk`, is a
standard-normal expectation of a Moebius function of x^2, which reduces to
the Gaussian integral E[1/(L + x^2)] = :func:`gauss_int_I`. sigma cancels
from L, and the product L I(L) that the risk reads is sqrt(pi) z erfcx(z)
with z = sqrt(L/2), so p(n) is one erfcx call and a few float operations;
nothing here integrates numerically.
"""

from __future__ import annotations

import math

from .alphasolve import _check_alpha, _check_regime
from .mechanisms import k_eps
from .params import ProblemParams, erfcx

__all__ = [
    "NonpositiveL",
    "baseline_penalties",
    "gauss_int_I",
    "penalty_closed_form",
    "rinf_max_risk",
    "penalty_at_nstar",
    "penalty_derivative_at_nstar",
    "pos_mechany",
    "pos_mechpk",
    "pos_smallm",
    "highdim_penalty_bound",
    "e_of_m",
    "mechpk_exploit_risk",
    "mechpk_recommended_penalty",
    "sizecheck_penalty",
]

_SQRT2PI = math.sqrt(2 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


class NonpositiveL(ValueError):
    pass


def baseline_penalties(p: ProblemParams) -> dict[str, float]:
    """Reference penalties (all carry the sqrt(d) scaling):

    - p_min_ir: best standalone penalty 2 sigma sqrt(c d); participation
      must not exceed it.
    - global_min_social: unconstrained social optimum 2 sigma sqrt(c m d).
    - pool_ne_social: social penalty at the naive-pooling equilibrium,
      sigma sqrt(c d) (m + 1).
    - free_rider_penalty: a zero-collection agent's penalty under naive
      pooling against n*-collecting peers, sigma sqrt(m c d)/(m - 1).
    """
    s, c, m, d = p.sigma, p.cost, p.agents, p.dim
    return {
        "p_min_ir": 2 * s * math.sqrt(c * d),
        "global_min_social": 2 * s * math.sqrt(c * m * d),
        "pool_ne_social": s * math.sqrt(c * d) * (m + 1),
        "free_rider_penalty": s * math.sqrt(m * c * d) / (m - 1),
    }


def gauss_int_I(L: float) -> float:
    """E[1/(L + x^2)] for x ~ N(0,1): sqrt(pi/(2L)) e^{L/2} erfc(sqrt(L/2))."""
    if L <= 0:
        raise NonpositiveL("L must be positive")
    return math.sqrt(math.pi / (2 * L)) * erfcx(math.sqrt(L / 2))


def rinf_max_risk(n_i: float, p: ProblemParams, alpha: float) -> float:
    """Maximum risk (per problem, i.e. summed over dimensions) of the
    recommended estimator when collecting n_i > 0 points against an
    n*-collecting field: d * E_x[ l(n_i, x) ], where
    l(n_i, x) = 1/((m-2) n* / v + (n_i + n*)/sigma^2) and
    v = sigma^2 + alpha^2 sigma^2 (1/n_i + 1/n*) x^2. alpha = 0 is the
    uncorrupted limit; any other alpha outside (0, 2**510), NaN included,
    raises :class:`InvalidParam`.

    With u = n_i + n*, N = (m-1) n* + n_i and K = alpha^2 u^2/(n_i n*), the
    mean is sigma^2/u (1 - (m-2) n*/K I(L)) with L = N/K, and sigma cancels
    from L. Since K L = N, the risk is

        d sigma^2/u (1 - (m-2) n*/N sqrt(pi) z erfcx(z)),  z = sqrt(L/2),

    as L I(L) = sqrt(pi) z erfcx(z). It tends to d sigma^2/N (alpha = 0) as
    z grows and to d sigma^2/u as z falls to 0.

    K is never formed: z = sqrt(N n_i n*/2)/(u alpha), a product of counts
    over u alpha, which is finite and nonzero for every accepted alpha.
    alpha^2 u^2 overflows from alpha about 1e153, and a K formed whole
    overflows to inf near the top of the alpha range and underflows to 0
    near its bottom, where L = N/K is then 0 or inf. So the risk is finite
    for every accepted alpha. z is +inf only where alpha is 0 or so small
    that the quotient overflows, and there L I(L) is its limit 1; erfcx
    keeps its own branch at z = 8."""
    _check_regime(p)
    if n_i <= 0:
        raise ValueError("n_i must be positive")
    if alpha != 0:
        _check_alpha(alpha)
    m, ns, u = p.agents, p.n_star, n_i + p.n_star
    big_n = (m - 1) * ns + n_i
    z = math.sqrt(0.5 * big_n * n_i * ns) / (u * alpha) if alpha else math.inf
    l_i = 1.0 if z == math.inf else _SQRT_PI * z * erfcx(z)  # L I(L)
    return p.dim * p.sigma * p.sigma / u * (1.0 - (m - 2) * ns / big_n * l_i)


def penalty_closed_form(n_i: float, p: ProblemParams, alpha: float) -> float:
    """Equilibrium-field penalty p(n_i) = risk + c n_i, in closed form."""
    return rinf_max_risk(n_i, p, alpha) + p.cost * n_i


def penalty_at_nstar(p: ProblemParams, alpha: float) -> float:
    """Closed form of p(n*), via the scaled-erfc kernel. It divides by alpha,
    so alpha = 0 is rejected with the rest of what lies outside (0, 2**510)."""
    _check_alpha(alpha)
    m, ns, s2 = p.agents, p.n_star, p.sigma**2
    r = math.sqrt(alpha**2 / (m * ns))
    z = 1.0 / (2 * math.sqrt(2) * r)
    risk_1d = r * s2 * (2 * m * _SQRT2PI * r - (m - 2) * math.pi * erfcx(z)) / (4 * _SQRT2PI * alpha**2)
    return p.dim * risk_1d + p.cost * ns


def penalty_derivative_at_nstar(p: ProblemParams, alpha: float) -> float:
    """Closed form of p'(n*); zero when alpha solves the corruption-level
    equation (first-order condition of the recommended sample count).

    In u = alpha/sqrt(m n*) and z = 1/(2 sqrt(2) u), where no term grows
    with alpha, it is c - d sigma^2/(m n*)^2 ((m + 2) - (m - 2) x)/4 with
    x = H (1 - 4 (m + 1) u^2) and H = 2 z^2 (1 - sqrt(pi) z erfcx(z)).
    From z = 8 on, where H's two terms cancel, H = 1/(tau_1 tau_2) from
    erfcx's continued fraction scaled by z: tau_13 = 1 and
    tau_k = 1 + 4 k u^2/tau_{k+1}. Against mpmath the error is below 5e-13
    of c + |p'(n*) - c| for alpha in (0, 2**510), largest just below z = 8.
    """
    _check_alpha(alpha)
    m, ns = p.agents, p.n_star
    u2 = alpha * alpha / (m * ns)
    if u2 > 1 / 512:  # z < 8
        z = 1.0 / math.sqrt(8 * u2)
        x = (1.0 - _SQRT_PI * z * erfcx(z)) * (1.0 / (4 * u2) - (m + 1))
    else:
        tau = 1.0
        for k in range(12, 1, -1):
            tau = 1.0 + 4 * k * u2 / tau
        x = (1.0 - 4 * (m + 1) * u2) / ((1.0 + 4 * u2 / tau) * tau)
    return p.cost - p.dim * p.sigma**2 / (m * ns) ** 2 * ((m + 2) - (m - 2) * x) / 4


def pos_mechany(p: ProblemParams, alpha: float) -> float:
    """Price of stability of the cross-check mechanism (m >= 5); < 2.
    alpha = 0 is the uncorrupted limit; any other alpha outside (0, 2**510),
    NaN too, raises :class:`InvalidParam`."""
    if alpha != 0:
        _check_alpha(alpha)
    m, ns = p.agents, p.n_star
    a2 = alpha**2 / ns
    return 0.5 * ((10 * a2 - 1) / (4 * a2 * (m + 1) / m - 1) + 1)


def pos_mechpk(epsilon: float) -> float:
    """Price of stability of corrupt-and-deploy: 1 + 1/(2 k) <= 1 + epsilon."""
    return 1.0 + 1.0 / (2 * k_eps(epsilon))


def pos_smallm(p: ProblemParams) -> float:
    """Price of stability of the m <= 4 pooling branch: (m+1)/(2 sqrt(m))."""
    m = p.agents
    return (m + 1) / (2 * math.sqrt(m))


def highdim_penalty_bound(p: ProblemParams, alpha: float) -> float:
    """Upper bound on the recommended-profile penalty when only the
    per-dimension variance (not Gaussianity) is assumed. alpha = 0 is the
    uncorrupted limit; any other alpha outside (0, 2**510), NaN too, raises
    :class:`InvalidParam`."""
    if alpha != 0:
        _check_alpha(alpha)
    m, ns = p.agents, p.n_star
    a2 = alpha**2 / ns
    return p.sigma * math.sqrt(p.cost * p.dim / m) * (m / (2 + (m - 2) / (1 + 2 * a2)) + 1)


def e_of_m(m: int, a_m: float) -> float:
    """Approximate-equilibrium slack E(m) at the solved ratio A_m; < 5/m."""
    A2 = a_m**2
    num = 4 * A2 * ((A2 - 1) * m + 1 - 4 * A2) * m
    den = (4 * A2 + m) * ((7 * A2 - 1) * m + 2 * A2)
    return num / den


def mechpk_recommended_penalty(p: ProblemParams, epsilon: float) -> float:
    """Expected penalty at the recommended profile of corrupt-and-deploy:
    (2 + 1/k) sigma sqrt(c)/sqrt(m), exact for Gaussian data."""
    k = k_eps(epsilon)
    return (2 + 1.0 / k) * p.sigma * math.sqrt(p.cost) / math.sqrt(p.agents)


def mechpk_exploit_risk(p: ProblemParams, epsilon: float) -> tuple[float, float]:
    """(deployed_risk, exploit_risk) for corrupt-and-deploy at the
    recommended profile: the deployed sample mean's risk and the risk of
    the inverse-variance weighted average an agent could compute instead.
    The exploit is strictly better, which is why the deployed-estimate
    design does not extend to unrestricted estimators."""
    k = k_eps(epsilon)
    m, ns, s2 = p.agents, p.n_star, p.sigma**2
    deployed = (1 + 1.0 / k) * s2 / (m * ns)
    r = (1.0 / k) * m / (m - 1)
    exploit = (1 + r) / (m + r) * s2 / ns
    assert exploit < deployed
    return deployed, exploit


def sizecheck_penalty(n: int, p: ProblemParams) -> float:
    """Penalty of an agent collecting n honest points under size-checked
    pooling, everyone else at n*: pooled-mean risk when the check passes,
    own-data risk otherwise."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    m, ns, s2 = p.agents, p.n_star, p.sigma**2
    if n >= ns:
        return p.dim * s2 / (n + (m - 1) * ns) + p.cost * n
    if n == 0:
        return math.inf
    return p.dim * s2 / n + p.cost * n
