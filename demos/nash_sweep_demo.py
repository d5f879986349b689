"""Monte-Carlo deviation sweep: is honest collection a best response?

One focal agent tries every entry in a menu of deviations (collect less,
scale, shift, fabricate, submit nothing, swap estimators...) while the
other eight agents follow the recommended profile under the
cross-check-and-corrupt mechanism. No entry should beat the recommended
strategy by more than 3 combined standard errors.
"""

import numpy as np

from meanshare.alphasolve import solve_alpha
from meanshare.params import DistributionSpec, ProblemParams
from meanshare.simulation import Scenario, nash_deviation_sweep, recommended_strategy

REPLICATIONS = 100_000
SEED = 20260826


def main():
    p = ProblemParams(sigma=1.0, cost=1.0 / 900.0, agents=9, dim=1)
    alpha = solve_alpha(p).alpha
    spec = DistributionSpec("gaussian", np.zeros(1), p.sigma, p.sigma**2)
    sc = Scenario(params=p, mechanism="cross-check",
                  focal=recommended_strategy(p), distribution=spec,
                  replications=REPLICATIONS, master_seed=SEED,
                  mu_grid=(0.0, 5.0, -5.0, 50.0, -50.0), alpha=alpha,
                  workers=4)

    rows = nash_deviation_sweep(sc)
    print(f"{REPLICATIONS:,} replications per (strategy, mean) cell\n")
    print(f"{'strategy':<24} {'n':>3} {'penalty':>10} {'+/-':>9} "
          f"{'closed form':>12} {'profitable?':>12}")
    for r in rows:
        cf = f"{r.closed_form:.6f}" if r.closed_form is not None else "-"
        flag = "YES (!)" if r.profitable else "no"
        print(f"{r.strategy.label:<24} {r.strategy.n:>3} "
              f"{r.penalty.total:>10.6f} {3 * r.penalty.std_error:>9.6f} "
              f"{cf:>12} {flag:>12}")

    assert not any(r.profitable for r in rows)
    print("\nNo deviation is profitable: the recommended profile is a Nash")
    print("equilibrium within Monte-Carlo resolution. Submitting nothing or")
    print("garbage only hurts the deviator, because the mechanism hands her")
    print("back data corrupted in proportion to her submission's distance")
    print("from the cross-check mean.")


if __name__ == "__main__":
    main()
