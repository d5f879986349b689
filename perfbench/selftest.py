"""Tests of the benchmark's own reference values and checks.

    python3 perfbench/selftest.py

Each check must pass on right values and reject a known-wrong one: a
closed form off by 2 %, a root off in the ninth digit, an MC mean off by
more than the check's resolution at the workload's standard error, a
deviation made profitable. Not collected by the package's pytest suite.
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import Checker  # noqa: E402


def _fails(fn, *args, **kwargs) -> bool:
    chk = Checker()
    getattr(chk, fn)(*args, **kwargs)
    return bool(chk.failures)


class ReferenceValues(unittest.TestCase):
    def test_quadrature_matches_mpmath(self):
        import mpmath

        for m, n in ((5, 1), (9, 5), (9, 10), (100, 40), (500, 2)):
            alpha = checks.alpha_mpmath(m, 10)
            with mpmath.workdps(30):
                b = alpha**2 * (1 / mpmath.mpf(n) + mpmath.mpf(1) / 10)
                f = lambda x: (1 / ((m - 2) * 10 / (1 + b * x * x) + (n + 10))
                               * mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi))
                exact = float(mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))
            got = float(checks.penalty_ref(n, m, 10, 1.0, 0.0, alpha))
            self.assertLess(abs(got - exact) / exact, 1e-13, (m, n))

    def test_alpha_matches_the_documented_canonical_value(self):
        self.assertAlmostEqual(checks.alpha_mpmath(9, 10), 5.4264, places=4)

    def test_first_order_condition_pins_alpha(self):
        m, ns = 9, 10
        c = checks.n_star_cost(1.0, ns, m, 1)
        alpha = checks.alpha_mpmath(m, ns)
        self.assertLessEqual(abs(checks.penalty_derivative_ref(ns, m, ns, 1.0, c, alpha)), 1e-6 * c)
        self.assertGreater(abs(checks.penalty_derivative_ref(ns, m, ns, 1.0, c, alpha * 1.001)), 1e-6 * c)

    def test_corrupt_deploy_moments_reproduce_the_closed_forms(self):
        m, ns = 9, 10
        c = checks.n_star_cost(1.0, ns, m, 1)
        for eps in (0.5, 0.25, 0.1):
            e2, e4 = checks.corrupt_deploy_moments(1.0, c, m, ns, eps, None)
            self.assertAlmostEqual(e2 + c * ns, checks.corrupt_deploy_penalty(1.0, c, m, eps), places=14)
            tau = checks.exploit_tau_sq(1.0, m, eps)
            e2, e4 = checks.corrupt_deploy_moments(1.0, c, m, ns, eps, tau)
            self.assertAlmostEqual(e2, checks.exploit_risk(1.0, m, ns, eps), places=14)
            self.assertGreater(e4, 3 * e2 * e2)

    def test_threshold_is_bonferroni_over_a_whole_run(self):
        self.assertAlmostEqual(checks.Z, 5.85, places=2)


class Checks(unittest.TestCase):
    def test_close_rejects_a_closed_form_off_by_two_percent(self):
        self.assertFalse(_fails("close", "", 0.0372602009 * (1 + 1e-13), 0.0372602009))
        self.assertTrue(_fails("close", "", 0.0372602009 * 1.02, 0.0372602009))
        self.assertTrue(_fails("close", "", 5.4264 * (1 + 1e-8), 5.4264))

    def test_mean_matches_on_gaussian_errors(self):
        # pool recommended profile at the canonical workload's size
        risk, reps = 1 / 90, 50_000
        rng = np.random.default_rng(7)
        for _ in range(20):
            sq = rng.normal(0.0, math.sqrt(risk), reps) ** 2
            mse, se = sq.mean(), sq.std() / math.sqrt(reps)
            for m4 in (None, 3 * risk**2):
                self.assertFalse(_fails("mean_matches", "", mse, se, reps, risk, m4))
                # resolution at this size: Z SE = 3.7 % above, 4.9 % below
                self.assertTrue(_fails("mean_matches", "", mse, se, reps, risk * 1.06, m4))
                self.assertTrue(_fails("mean_matches", "", mse, se, reps, risk * 0.94, m4))

    def test_lower_bound_holds_on_heavy_tailed_errors(self):
        # corrupt-and-deploy at eps = 0.1 (k = 5): the error given the
        # discrepancy delta is N(0, r0 + r1 delta^10); studentized checks
        # fail here far more often than the Gaussian tail says
        m, ns, reps = 9, 10, 50_000
        c = checks.n_star_cost(1.0, ns, m, 1)
        e2, e4 = checks.corrupt_deploy_moments(1.0, c, m, ns, 0.1, None)
        K = (m - 1) * ns
        var_delta = 1 / ns + 1 / K
        r0 = 1 / (ns + K)
        r1 = (e2 - r0) / (9 * 7 * 5 * 3 * var_delta**5)
        rng = np.random.default_rng(11)
        for _ in range(30):
            delta = rng.normal(0.0, math.sqrt(var_delta), reps)
            err = rng.standard_normal(reps) * np.sqrt(r0 + r1 * delta**10)
            sq = err**2
            mse, se = sq.mean(), sq.std() / math.sqrt(reps)
            self.assertFalse(_fails("mean_matches", "", mse, se, reps, e2, e4))
            self.assertTrue(_fails("mean_matches", "", mse, se, reps, e2 * 1.4, e4))

    def test_not_better_rejects_a_profitable_deviation(self):
        base, se = 0.03727, 2.4e-4
        self.assertFalse(_fails("not_better", "", base, se, base + 8 * se, se))
        self.assertFalse(_fails("not_better", "", base, se, base, se))
        self.assertTrue(_fails("not_better", "", base, se, base - 9 * se, se))

    def test_better_rejects_an_unprofitable_deviation(self):
        base, se = 0.0222, 1e-4
        self.assertFalse(_fails("better", "", base, se, base - 0.0087, se))
        self.assertTrue(_fails("better", "", base, se, base, se))


class WorkloadChecks(unittest.TestCase):
    """Each workload's check passes on the package's real outputs and fails
    when one output is made wrong."""

    @classmethod
    def setUpClass(cls):
        import workloads

        cls.w = workloads

    def _make(self, name, seed=3):
        from meanshare.alphasolve import solve_alpha

        p = self.w.setup_params(name)
        wl = self.w.WORKLOADS[name](seed, p, solve_alpha(p).alpha)
        wl.prepare()
        return wl

    def _run(self, wl, labels=None):
        return {label: op() for label, op in wl.ops(0) if labels is None or label in labels}

    def _failures(self, wl, outputs):
        chk = Checker()
        wl.check(0, outputs, chk)
        return chk.failures

    def test_analytic_scan(self):
        wl = self._make("analytic-scan")
        wl.M_RANGE = (5, 9, 21, 500)
        out = self._run(wl)
        self.assertEqual(self._failures(wl, out), [])
        key = "m=9 d=1"
        o = out[key]
        for bad in (
            {"sol": replace(o["sol"], alpha=o["sol"].alpha * (1 + 1e-8))},
            {"p_star": o["p_star"] * 1.02},
            {"grid": [g * (0.9 if i == 4 else 1.0) for i, g in enumerate(o["grid"])]},
            {"dp_star": 1e-3},
            {"e_of_m": 5.0 / 9},
            {"pos": 2.0},
        ):
            self.assertNotEqual(self._failures(wl, {key: {**o, **bad}}), [], bad.keys())

    def test_canonical_sweep(self):
        wl = self._make("canonical-sweep")
        out = self._run(wl)
        self.assertEqual(self._failures(wl, out), [])
        rc, text = out["nash-sweep cross-check"]
        rows = json.loads(text)
        rows[2]["total_penalty"] = rows[0]["total_penalty"] - 20 * rows[0]["std_error"]
        rows[2]["mse"] = rows[2]["total_penalty"] - wl.p.cost * rows[2]["n"]
        bad = {**out, "nash-sweep cross-check": (rc, json.dumps(rows))}
        self.assertTrue(any("NIC" in f for f in self._failures(wl, bad)))
        rows = json.loads(text)
        rows[0]["closed_form"] *= 1.02
        bad = {**out, "nash-sweep cross-check": (rc, json.dumps(rows))}
        self.assertTrue(any("p(10) column" in f for f in self._failures(wl, bad)))
        pen = out["pool free rider"]
        bad = {**out, "pool free rider": replace(pen, total=pen.total + 0.02)}
        self.assertTrue(any("free-riding" in f for f in self._failures(wl, bad)))
        pen = out["corrupt-deploy deployed eps=0.5"]
        bad = {**out, "corrupt-deploy deployed eps=0.5": replace(pen, mean_sq_error=pen.mean_sq_error * 1.1)}
        self.assertTrue(any("corrupt-deploy MC penalty" in f for f in self._failures(wl, bad)))

    def test_highdim_uniform(self):
        wl = self._make("highdim-uniform")
        out = self._run(wl)
        self.assertEqual(self._failures(wl, out), [])
        pen = out["recommended"]
        for factor in (1.06, 0.94):
            bad = {**out, "recommended": replace(pen, mean_sq_error=pen.mean_sq_error * factor)}
            self.assertTrue(any("equals its bound" in f for f in self._failures(wl, bad)), factor)

    def test_large_pool_determinism_check(self):
        wl = self._make("large-pool")
        chk = Checker()
        wl.check_once(chk)
        self.assertEqual(chk.failures, [])


class Tracing(unittest.TestCase):
    def test_spans_reach_every_lookup_and_their_parents(self):
        import workloads
        from meanshare import params, simulation as sim
        from tracing import Tracer

        wl = workloads.WORKLOADS["large-pool"](1, workloads.setup_params("large-pool"), 3.2)
        sc = wl._sc(wl._menu()[0], 3_000, 5, 2, 1_000)
        tracer = Tracer()
        tracer.install()
        self.assertIs(sim.spawn_stream, params.spawn_stream)
        self.assertIsNot(sim.spawn_stream.__wrapped__, sim.spawn_stream)
        sim.run_replications(sc)
        (mc,) = [s for s in tracer.spans if s[1] == "simulation.run_replications"]
        streams = [s for s in tracer.spans if s[1] == "params.spawn_stream"]
        self.assertEqual(len(streams), 3)
        self.assertTrue(all(s[4] == mc[0] for s in streams))
        self.assertEqual(mc[6]["reps"], 3_000)
        metrics = tracer.metrics(1, mc[3] - mc[2])
        self.assertEqual(metrics["params.spawn_stream.calls"][0], 3)
        self.assertGreater(metrics["simulation.run_replications.traced_peak_mb"][0], 0)
        self.assertLessEqual(tracer._self_times()[mc[0]], mc[3] - mc[2])


class FailedOperations(unittest.TestCase):
    def test_cli_exit_code_1_is_a_failed_operation(self):
        import workloads

        op = workloads._cli_op(["experiment", "nash-sweep", "--agents", "9", "--mechanism",
                                "corrupt-deploy", "--replications", "100"])
        with self.assertRaises(workloads.CliFailed):
            op()


if __name__ == "__main__":
    unittest.main()
