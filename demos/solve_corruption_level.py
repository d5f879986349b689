"""Solve the corruption-level equation across a range of agent counts.

The cross-check mechanism corrupts the data it returns with variance
eta_i^2 = alpha^2 * (submission mean - cross-check mean)^2. The modulator
alpha is the root of a one-dimensional equation above sqrt(n*); this
script solves it for several collaboration sizes and shows that the ratio
alpha / sqrt(n*) stays inside its proven bracket.
"""

import math

from meanshare.alphasolve import c_m, g_of_alpha, solve_alpha
from meanshare.params import ProblemParams


def params_with_nstar(m: int, n_star: int = 10, sigma: float = 1.0) -> ProblemParams:
    """Pick the per-sample cost so the recommended count is exactly n_star."""
    cost = sigma**2 / (n_star**2 * m)
    return ProblemParams(sigma, cost, m, 1)


def main():
    print(f"{'m':>5} {'n*':>4} {'alpha':>12} {'alpha/sqrt(n*)':>15} "
          f"{'bracket hi':>11} {'residual':>10}")
    for m in (5, 7, 9, 12, 20, 21, 50, 100, 500):
        p = params_with_nstar(m)
        sol = solve_alpha(p)
        hi = 1 + c_m(m) / m
        print(f"{m:>5} {p.n_star:>4} {sol.alpha:>12.8f} {sol.a_m:>15.10f} "
              f"{hi:>11.4f} {sol.residual:>10.1e}")
        assert 1.0 < sol.a_m < hi
        assert abs(g_of_alpha(sol.alpha, p)) < 1e-9

    print()
    print("The ratio approaches 1 as the collaboration grows: with many")
    print("agents only a whisper of corruption is needed to keep everyone")
    print("collecting their full share.")
    p = params_with_nstar(900, n_star=5)
    sol = solve_alpha(p)
    print(f"m=900: alpha/sqrt(n*) = {sol.a_m:.6f} "
          f"(bound {1 + 5.0 / 900:.6f})")


if __name__ == "__main__":
    main()
