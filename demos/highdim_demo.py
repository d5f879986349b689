"""Beyond Gaussian data: the bounded-variance, multi-dimensional setting.

The cross-check mechanism extends to d dimensions and arbitrary
variance-bounded distributions by corrupting each coordinate and having
agents use a fixed weighting constant tau^2 = 2 alpha^2 sigma^2 / n*
instead of the realized corruption level. The equilibrium becomes
approximate -- the recommended profile is within a factor 1 + 5/m of the
best response -- and the social penalty stays within 2 + 10/m of optimal.

Here d = 3 and the data are uniform on a box (variance exactly sigma^2
per coordinate), so nothing in the run is Gaussian except the corruption.
"""

import math

import numpy as np

from meanshare import estimators as est
from meanshare.alphasolve import solve_alpha
from meanshare.analytics import e_of_m, highdim_penalty_bound
from meanshare.params import DistributionSpec, ProblemParams
from meanshare.simulation import Scenario, Strategy, highdim_nic_check

REPLICATIONS = 100_000
SEED = 20260826


def main():
    p = ProblemParams(sigma=1.0, cost=1.0 / 300.0, agents=9, dim=3)
    sol = solve_alpha(p)
    print(f"d={p.dim}, m={p.agents}, cost=1/300  ->  n* = {p.n_star}, "
          f"alpha = {sol.alpha:.6f}")
    print(f"penalty bound: {highdim_penalty_bound(p, sol.alpha):.6f} "
          f"(scales with sqrt(d))")
    print(f"excess-penalty ratio E(m) = {e_of_m(p.agents, sol.a_m):+.6f} "
          f"< 5/m = {5 / p.agents:.4f}\n")

    spec = DistributionSpec("uniform_box", np.zeros(3),
                            p.sigma * math.sqrt(3.0), p.sigma**2)
    sc = Scenario(params=p, mechanism="cross-check",
                  focal=Strategy(p.n_star, est.Identity(), est.PlainMeanAll()),
                  distribution=spec, replications=REPLICATIONS,
                  master_seed=SEED, alpha=sol.alpha, workers=4)
    res = highdim_nic_check(sc)

    print(f"{'strategy':<22} {'penalty':>10} {'+/-':>9}")
    for r in res["rows"]:
        print(f"{r.strategy.label:<22} {r.penalty.total:>10.6f} {3 * r.penalty.std_error:>9.6f}")
    print(f"{'recommended':<22} {res['recommended']:>10.6f}")

    print(f"\nrecommended / best deviation = {res['ratio']:.4f} "
          f"<= 1 + 5/m = {res['bound']:.4f}  ({'ok' if res['ok'] else 'VIOLATED'})")
    print(f"PoS proxy = {res['pos_proxy']:.4f} < 2 + 10/m = "
          f"{res['pos_bound']:.4f}  ({'ok' if res['pos_ok'] else 'VIOLATED'})")


if __name__ == "__main__":
    main()
