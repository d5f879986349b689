"""The corrupt-and-deploy variant: near-optimal, but only if agents cannot
choose their own estimator.

Instead of returning data, this mechanism deploys the pooled sample mean
after adding noise scaled by a high power of the submission discrepancy.
Its equilibrium penalty is (2 + 1/k) sigma sqrt(c/m) with k = ceil(1/(2 eps)),
so the price of stability 1 + 1/(2k) can be pushed as close to 1 as
desired. The catch: an agent who keeps her raw data can combine it with the
deployed release through an inverse-variance weighting and do strictly
better -- which is why the main mechanism corrupts data instead.
"""

import math

import numpy as np

from meanshare import estimators as est
from meanshare.analytics import (
    mechpk_exploit_risk,
    mechpk_recommended_penalty,
    pos_mechpk,
)
from meanshare.mechanisms import k_eps
from meanshare.params import DistributionSpec, ProblemParams
from meanshare.simulation import Scenario, Strategy, recommended_strategy, run_replications

REPLICATIONS = 400_000
SEED = 20260826


def main():
    p = ProblemParams(sigma=1.0, cost=1.0 / 900.0, agents=9, dim=1)
    spec = DistributionSpec("gaussian", np.zeros(1), p.sigma, p.sigma**2)

    print(f"{'eps':>5} {'k':>2} {'PoS':>6} {'penalty (MC)':>13} "
          f"{'closed form':>12}")
    for eps in (0.5, 0.25, 0.1):
        k = k_eps(eps)
        sc = Scenario(params=p, mechanism="corrupt-deploy",
                      focal=recommended_strategy(p, "corrupt-deploy", eps),
                      distribution=spec, replications=REPLICATIONS,
                      master_seed=SEED, epsilon=eps, workers=4)
        pen = run_replications(sc)
        cf = mechpk_recommended_penalty(p, eps)
        print(f"{eps:>5} {k:>2} {pos_mechpk(eps):>6.3f} "
              f"{pen.total:>10.6f}+-{3 * pen.std_error:.6f} {cf:>12.6f}")

    eps = 0.5
    k = k_eps(eps)
    deployed_cf, exploit_cf = mechpk_exploit_risk(p, eps)
    tau_sq = (1.0 / k) * p.agents / (p.agents - 1) * p.sigma**2
    sc = Scenario(params=p, mechanism="corrupt-deploy",
                  focal=Strategy(p.n_star, est.Identity(),
                                 est.FixedWeighted(tau_sq), "exploit"),
                  distribution=spec, replications=REPLICATIONS,
                  master_seed=SEED, epsilon=eps, workers=4)
    pen = run_replications(sc)
    print(f"\nexploit at eps={eps}: risk {pen.mean_sq_error:.6f} "
          f"+- {3 * pen.std_error:.6f}")
    print(f"closed forms: exploit {exploit_cf:.6f} "
          f"(= 17/810 = {17 / 810:.6f}) < deployed {deployed_cf:.6f}")
    print("\nKeeping raw data and down-weighting the noisy release beats the")
    print("deployed mean, so the guarantee breaks once estimators are free.")


if __name__ == "__main__":
    main()
