"""Plot-ready tour of an agent's penalty as a function of her sample count.

Everyone else collects the recommended n* points and submits honestly.
The focal agent's penalty (maximum risk + collection cost) is available in
closed form; this script tabulates it, confirms the minimum sits exactly
at n*, and puts the headline guarantees side by side:

- individual rationality: participating beats the best standalone penalty,
- price of stability: the social penalty is within a factor < 2 of the
  unconstrained optimum.
"""

import math

from meanshare.alphasolve import solve_alpha
from meanshare.analytics import (
    baseline_penalties,
    penalty_closed_form,
    penalty_derivative_at_nstar,
    pos_mechany,
)
from meanshare.params import ProblemParams


def main():
    p = ProblemParams(sigma=1.0, cost=1.0 / 900.0, agents=9, dim=1)
    alpha = solve_alpha(p).alpha
    ns = p.n_star
    print(f"sigma={p.sigma}, cost=1/900, m={p.agents}  ->  n* = {ns}, "
          f"alpha = {alpha:.6f}\n")

    print(f"{'n':>4} {'penalty':>12} {'vs n*':>10}")
    p_star = penalty_closed_form(ns, p, alpha)
    for n in (1, 2, 5, 8, 9, 10, 11, 12, 15, 20, 30, 40):
        pen = penalty_closed_form(n, p, alpha)
        marker = "  <- minimum" if n == ns else ""
        print(f"{n:>4} {pen:>12.8f} {pen - p_star:>+10.2e}{marker}")

    d = penalty_derivative_at_nstar(p, alpha)
    print(f"\nderivative at n*: {d:+.2e}  (stationary, as designed)")

    base = baseline_penalties(p)
    print(f"\npenalty at n*          : {p_star:.6f}")
    print(f"best standalone penalty: {base['p_min_ir']:.6f}  "
          f"(participating is {base['p_min_ir'] / p_star:.2f}x cheaper)")
    print(f"social penalty at n*   : {p.agents * p_star:.6f}")
    print(f"unconstrained optimum  : {base['global_min_social']:.6f}")
    print(f"price of stability     : {pos_mechany(p, alpha):.4f}  (< 2)")
    print(f"naive-pooling social   : {base['pool_ne_social']:.6f}  "
          f"(PoA {base['pool_ne_social'] / base['global_min_social']:.2f} -> "
          f"sqrt(m)/2 as m grows)")


if __name__ == "__main__":
    main()
