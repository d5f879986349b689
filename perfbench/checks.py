"""Reference values and output checks, computed apart from the MC engine.

Nothing here calls meanshare. The reference numbers come from the paper's
formulas, from this module's own quadrature, and from an mpmath root of
G, so a fault in the package cannot hide behind an identical fault in its
reference.

Statistical thresholds. A run makes at most MAX_ROUNDS rounds of at most
MAX_STAT_CHECKS_PER_ROUND statistical checks each. The whole run may fail
on a correct program with probability at most RUN_FALSE_ALARM, split
evenly over every tail of every check (Bonferroni). The budget is 1e-5
rather than 1e-4 so that the Gaussian tail used for studentized checks may
be off by a factor 10 (squared errors are skewed) and the run still fails
with probability below 1e-4.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

RUN_FALSE_ALARM = 1e-5
MAX_ROUNDS = 32
MAX_STAT_CHECKS_PER_ROUND = 64
TAIL_P = RUN_FALSE_ALARM / (2 * MAX_ROUNDS * MAX_STAT_CHECKS_PER_ROUND)
Z = NormalDist().inv_cdf(1.0 - TAIL_P)  # about 5.85

# Exact-arithmetic tolerances: the package's quadrature asks for 1e-12,
# this module's quadrature reaches about 1e-14.
REL_EXACT = 1e-9


# ---------------------------------------------------------------------------
# the paper's formulas
# ---------------------------------------------------------------------------


def n_star_cost(sigma: float, n_star: int, m: int, d: int) -> float:
    """Per-sample cost that makes n* the recommended count (m >= 5)."""
    return sigma**2 * d / (n_star**2 * m)


def bracket(m: int, n_star: int) -> tuple[float, float]:
    """The proven root bracket (sqrt(n*), (1 + C_m/m) sqrt(n*))."""
    c = 20.0 if m <= 20 else 5.0
    lo = math.sqrt(n_star)
    return lo, (1.0 + c / m) * lo


def pool_risk(sigma: float, n: int, m: int, n_star: int) -> float:
    """Risk of the plain mean of n own points and the others' (m-1) n* points."""
    return sigma**2 / (n + (m - 1) * n_star)


def k_eps(epsilon: float) -> int:
    return math.ceil(1.0 / (2.0 * epsilon))


def odd_double_factorial(k: int) -> int:
    """(2j-1)!! for k = 2j-1 >= -1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def corrupt_deploy_penalty(sigma: float, cost: float, m: int, epsilon: float) -> float:
    """(2 + 1/k) sigma sqrt(c/m)."""
    return (2.0 + 1.0 / k_eps(epsilon)) * sigma * math.sqrt(cost / m)


def exploit_tau_sq(sigma: float, m: int, epsilon: float) -> float:
    return (1.0 / k_eps(epsilon)) * m / (m - 1) * sigma**2


def exploit_risk(sigma: float, m: int, n_star: int, epsilon: float) -> float:
    """(1 + r)/(m + r) sigma^2/n*, r = (1/k) m/(m - 1)."""
    r = (1.0 / k_eps(epsilon)) * m / (m - 1)
    return (1.0 + r) / (m + r) * sigma**2 / n_star


def highdim_bound(sigma: float, cost: float, m: int, d: int, n_star: int,
                  alpha: float) -> float:
    """sigma sqrt(c d/m) (m/(2 + (m-2)/(1 + 2 alpha^2/n*)) + 1)."""
    a2 = alpha**2 / n_star
    return sigma * math.sqrt(cost * d / m) * (m / (2.0 + (m - 2) / (1.0 + 2.0 * a2)) + 1.0)


def corrupt_deploy_moments(sigma: float, cost: float, m: int, n_star: int,
                           epsilon: float, weighted_tau_sq: float | None):
    """(E[e^2], E[e^4]) of the 1-d estimation error under corrupt-and-deploy,
    every agent submitting n* honest Gaussian points.

    Given the discrepancy delta ~ N(0, s^2) between the focal mean and the
    pool mean, the error is Gaussian with mean c1 delta and variance
    r0 + r1 delta^(2k); both moments follow from Gaussian moments of delta.
    ``weighted_tau_sq`` None is the deployed mean, otherwise the
    fixed-weight exploit estimator.
    """
    k = k_eps(epsilon)
    n, K, s2 = n_star, (m - 1) * n_star, sigma**2
    total = n + K
    beta_sq = (total**2 * (m - 1) ** (k - 1)
               / (k * odd_double_factorial(2 * k - 1) * sigma**k
                  * cost ** ((k - 2) / 2) * m ** (1.5 * k)))
    var_delta = s2 / n + s2 / K
    if weighted_tau_sq is None:
        c1 = 0.0
        r0 = s2 / total
        r1 = K * beta_sq / total**2
    else:
        wx, wc = 1.0 / s2, 1.0 / (s2 + weighted_tau_sq)
        D = n * wx + K * wc
        cov = s2 * (wx - wc)
        var_a = n * wx**2 * s2 + K * wc**2 * s2
        c1 = cov / var_delta / D
        r0 = (var_a - cov**2 / var_delta) / D**2
        r1 = wc**2 * K * beta_sq / D**2

    def mom(j):  # E[delta^(2j)]
        return odd_double_factorial(2 * j - 1) * var_delta**j

    e2 = c1**2 * mom(1) + r0 + r1 * mom(k)
    e4 = (c1**4 * mom(2) + 6 * c1**2 * (r0 * mom(1) + r1 * mom(k + 1))
          + 3 * (r0**2 + 2 * r0 * r1 * mom(k) + r1**2 * mom(2 * k)))
    return e2, e4


# ---------------------------------------------------------------------------
# the penalty p(n) by quadrature, and the corruption level by mpmath
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(256)
_THETA = _NODES * (math.pi / 2)
_W = _WEIGHTS * (math.pi / 2)


def _substitution(n, m: int, n_star: int, alpha: float):
    """Nodes x and weights w with sum(w g(x)) = E[g(x)], x ~ N(0, 1), for the
    integrands below.

    Gauss-Legendre after x = sqrt(L) tan(theta), where +-i sqrt(L) are the
    poles of l(n, x); the substitution cancels them, so 256 nodes reach
    1e-14. n may be an array; the nodes run along a new last axis.
    """
    n = np.asarray(n, float)[..., None]
    b = alpha**2 * (1.0 / n + 1.0 / n_star)
    scale = np.sqrt((1.0 + (m - 2) * n_star / (n + n_star)) / b)
    x = scale * np.tan(_THETA)
    w = _W * scale / np.cos(_THETA) ** 2 * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    return n, x, w


def _l_moments(n, m: int, n_star: int, sigma: float, alpha: float):
    """(E_x[l], E_x[l^2]) with l(x) = 1/((m-2) n*/(s^2 + a^2 (s^2/n + s^2/n*) x^2)
    + (n + n*)/s^2), x ~ N(0, 1)."""
    n, x, w = _substitution(n, m, n_star, alpha)
    s2 = sigma**2
    ell = 1.0 / ((m - 2) * n_star / (s2 + alpha**2 * (s2 / n + s2 / n_star) * x * x)
                 + (n + n_star) / s2)
    return (w * ell).sum(axis=-1), (w * ell * ell).sum(axis=-1)


def penalty_ref(n, m: int, n_star: int, sigma: float, cost: float,
                alpha: float, d: int = 1):
    """p(n) = d E_x[l(n, x)] + c n, elementwise over an array n."""
    return d * _l_moments(n, m, n_star, sigma, alpha)[0] + cost * np.asarray(n, float)


def cross_check_moments(n: float, m: int, n_star: int, sigma: float,
                        alpha: float) -> tuple[float, float]:
    """(E[e^2], E[e^4]) of the 1-d error of the recommended estimator: given
    the discrepancy the error is N(0, l), so E[e^4] = 3 E[l^2]."""
    e1, e2 = _l_moments(n, m, n_star, sigma, alpha)
    return float(e1), 3.0 * float(e2)


def penalty_derivative_ref(n: float, m: int, n_star: int, sigma: float,
                           cost: float, alpha: float, d: int = 1) -> float:
    """p'(n) by the same quadrature, differentiating under the integral."""
    n, x, w = _substitution(n, m, n_star, alpha)
    s2 = sigma**2
    v = s2 + alpha**2 * (s2 / n + s2 / n_star) * x * x
    A = (m - 2) * n_star / v + (n + n_star) / s2
    dA = (m - 2) * n_star * alpha**2 * s2 * x * x / (n * n * v * v) + 1.0 / s2
    return d * float((w * -dA / (A * A)).sum()) + cost


def alpha_mpmath(m: int, n_star: int, dps: int = 30) -> float:
    """Root of the paper's G on the proven bracket, in mpmath arithmetic:

    G(a) = (4a^2/n* (m-4)/(m-2) - 1) 4a/sqrt(m n*)
           - (4(m+1)a^2/(m n*) - 1) sqrt(2 pi) e^{m n*/(8 a^2)} erfc(sqrt(m n*)/(2 sqrt(2) a))
    """
    import mpmath

    with mpmath.workdps(dps):
        mn = mpmath.mpf(m * n_star)

        def G(a):
            return ((4 * a**2 / n_star * mpmath.mpf(m - 4) / (m - 2) - 1) * 4 * a / mpmath.sqrt(mn)
                    - (4 * (m + 1) * a**2 / mn - 1) * mpmath.sqrt(2 * mpmath.pi)
                    * mpmath.exp(mn / (8 * a**2)) * mpmath.erfc(mpmath.sqrt(mn) / (2 * mpmath.sqrt(2) * a)))

        lo, hi = bracket(m, n_star)
        if not (G(mpmath.mpf(lo)) < 0 < G(mpmath.mpf(hi))):
            raise ArithmeticError(f"G has no sign change on the bracket at m={m}")
        root = mpmath.findroot(G, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        if not lo < root < hi:
            raise ArithmeticError(f"mpmath root {root} left the bracket at m={m}")
        return float(root)


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


class Checker:
    """Collects failed checks of one round. Statistical checks are counted
    against the Bonferroni budget above."""

    def __init__(self):
        self.failures: list[str] = []
        self.stat_checks = 0

    def _fail(self, name: str, detail: str):
        self.failures.append(f"{name}: {detail}")

    def true(self, name: str, cond: bool, detail: str = ""):
        if not cond:
            self._fail(name, detail or "property does not hold")

    def close(self, name: str, got: float, ref: float, rel: float = REL_EXACT):
        if not (abs(got - ref) <= rel * abs(ref)):
            self._fail(name, f"{got!r} vs reference {ref!r} (rel tol {rel})")

    def _count(self):
        self.stat_checks += 1
        if self.stat_checks > MAX_STAT_CHECKS_PER_ROUND:
            raise RuntimeError("more statistical checks in a round than the budget allows")

    def mean_matches(self, name: str, mean: float, se: float, n: int, ref: float,
                     second_moment: float | None = None):
        """Two-sided: an MC mean of n nonnegative draws against its exact
        expectation ref.

        Upper side: studentized, (mean - ref)/se <= Z. For right-skewed data
        a high studentized value is rarer than under the Gaussian, because
        the large draws that lift the mean also lift se.
        Lower side: when E[Y^2] is known, the one-sided bound for
        nonnegative variables, P(ref - mean >= t) <= exp(-n t^2/(2 E[Y^2])),
        which holds for any tail; otherwise studentized like the upper side.
        """
        self._count()
        if not (se > 0 and math.isfinite(mean)):
            self._fail(name, f"mean {mean!r} with standard error {se!r}")
            return
        z = (mean - ref) / se
        if z > Z:
            self._fail(name, f"MC {mean!r} above reference {ref!r} by {z:.2f} SE (> {Z:.2f})")
        if second_moment is None:
            if z < -Z:
                self._fail(name, f"MC {mean!r} below reference {ref!r} by {-z:.2f} SE (> {Z:.2f})")
        else:
            t = math.sqrt(2.0 * second_moment * math.log(1.0 / TAIL_P) / n)
            if ref - mean > t:
                self._fail(name, f"MC {mean!r} below reference {ref!r} by more than {t!r}")

    def not_better(self, name: str, base: float, base_se: float, dev: float, dev_se: float):
        """A deviation's total must not beat the recommended total by more
        than Z combined standard errors."""
        self._count()
        gap = base - dev
        if gap > Z * math.hypot(base_se, dev_se):
            self._fail(name, f"deviation {dev!r} beats recommended {base!r} by "
                             f"{gap / math.hypot(base_se, dev_se):.2f} SE")

    def better(self, name: str, base: float, base_se: float, dev: float, dev_se: float):
        """A deviation the paper proves profitable must beat the recommended
        total by more than Z combined standard errors."""
        self._count()
        gap = base - dev
        if not gap > Z * math.hypot(base_se, dev_se):
            self._fail(name, f"deviation {dev!r} does not beat {base!r} by {Z:.2f} SE")
