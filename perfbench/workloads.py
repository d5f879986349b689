"""The four workloads: their operations and the checks on their outputs.

A workload is built from the parameters and corruption level solved during
set-up. ``ops(rnd)`` lists round ``rnd``'s operations as (label, thunk)
pairs; the worker times each thunk and hands the outputs to
``check(rnd, outputs, chk)``, which runs outside the timed region. Every
round runs the same operations; only the MC seeds (and, in analytic-scan,
sigma) change from round to round, and they are drawn from ``--seed``.

Operations call the package through module attributes (``sim.run_replications``,
``cli.main``), so the traced mode sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import replace

import numpy as np

import checks
from checks import Checker
from meanshare import alphasolve, analytics, cli
from meanshare import estimators as est
from meanshare import simulation as sim
from meanshare.params import DistributionSpec, ProblemParams, validate_params

SIGMA = 1.0
N_STAR = 10

# (agents, dim) of the parameters solved during set-up
SETUP = {
    "canonical-sweep": (9, 1),
    "large-pool": (100, 1),
    "highdim-uniform": (9, 3),
    "analytic-scan": (5, 1),
}

# Replications per MC call. At these sizes the tightest NIC gap of the
# canonical sweep (n = 5) is about 8.8 standard errors, so the package's own
# 3-SE gate raises a false alarm with probability about 1e-9 per entry.
CANONICAL_CROSS_CHECK_REPS = 60_000
CANONICAL_SIZE_CHECK_REPS = 20_000
CANONICAL_LIBRARY_REPS = 50_000
CANONICAL_REFERENCE_REPS = 400
LARGE_POOL_REPS = 40_000
# 16 384 replications x 990 pool points x 8 bytes = 130 MB per chunk and
# worker, which keeps the peak near 0.6 GB on a shared machine; the
# package default (65 536) would need about 2 GB with two workers.
LARGE_POOL_CHUNK = 16_384
LARGE_POOL_WORKERS = 2
HIGHDIM_REPS = 30_000
EPSILONS = (0.5, 0.1)


def setup_params(workload: str) -> ProblemParams:
    m, d = SETUP[workload]
    return validate_params(ProblemParams(SIGMA, checks.n_star_cost(SIGMA, N_STAR, m, d), m, d))


def _round_seed(seed: int, rnd: int) -> int:
    return random.Random(f"{seed}:{rnd}").getrandbits(62)


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class CliFailed(RuntimeError):
    """The CLI rejected its arguments or hit an error (exit code 1)."""


def _cli_op(argv):
    def run():
        rc, out, err = _cli(argv)
        if rc == cli.EXIT_FLAGS:
            raise CliFailed(f"meanshare {' '.join(argv)}: {err.strip()}")
        return rc, out
    return run


def _rows(chk: Checker, label: str, output) -> list[dict] | None:
    if output is None:
        return None
    rc, out = output
    chk.true(f"{label} exit code", rc == 0, f"exit code {rc}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        chk.true(f"{label} output", False, f"not JSON: {e}")
        return None


def _gauss(p: ProblemParams) -> DistributionSpec:
    return DistributionSpec("gaussian", np.zeros(p.dim), p.sigma, p.sigma**2)


class Workload:
    name = ""

    def __init__(self, seed: int, params: ProblemParams, alpha: float):
        self.seed = seed
        self.p = params
        self.alpha = alpha

    def prepare(self):
        """Reference values needed by every round (untimed)."""

    def ops(self, rnd: int):
        raise NotImplementedError

    def check(self, rnd: int, outputs: dict, chk: Checker):
        raise NotImplementedError

    def check_once(self, chk: Checker):
        """Checks made once per run, after the rounds (untimed)."""


def _check_pen(chk, label, pen, reps, risk, second_moment=None):
    chk.mean_matches(label, pen.mean_sq_error, pen.std_error, reps, risk, second_moment)


class CanonicalSweep(Workload):
    """m = 9, n* = 10, d = 1, Gaussian data: the paper's canonical market."""

    name = "canonical-sweep"

    def prepare(self):
        p = self.p
        self.alpha_ref = checks.alpha_mpmath(p.agents, p.n_star)
        self.cc_moments = {n: checks.cross_check_moments(n, p.agents, p.n_star, p.sigma, self.alpha_ref)
                           for n in (5, 10, 20)}

    def _sc(self, mechanism, focal, reps, seed, epsilon=None):
        return sim.Scenario(params=self.p, mechanism=mechanism, focal=focal,
                            distribution=_gauss(self.p), replications=reps,
                            master_seed=seed, epsilon=epsilon, alpha=self.alpha)

    def ops(self, rnd):
        p, s = self.p, _round_seed(self.seed, rnd)
        common = ["experiment", "nash-sweep", "--agents", str(p.agents),
                  "--nstar", str(p.n_star), "--seed", str(s)]
        rec = sim.Strategy(p.n_star, est.Identity(), est.PlainMeanAll(), "recommended")
        free = sim.Strategy(0, est.Identity(), est.PlainMeanAll(), "free rider")
        out = [
            ("nash-sweep cross-check", _cli_op(
                common + ["--replications", str(CANONICAL_CROSS_CHECK_REPS)])),
            ("nash-sweep size-check", _cli_op(
                common + ["--mechanism", "size-check",
                          "--replications", str(CANONICAL_SIZE_CHECK_REPS)])),
            ("nash-sweep size-check unrestricted", _cli_op(
                common + ["--mechanism", "size-check", "--unrestricted",
                          "--replications", str(CANONICAL_SIZE_CHECK_REPS)])),
            ("pool recommended", lambda: sim.run_replications(
                self._sc("pool", rec, CANONICAL_LIBRARY_REPS, s + 1))),
            ("pool free rider", lambda: sim.run_replications(
                self._sc("pool", free, CANONICAL_LIBRARY_REPS, s + 2))),
        ]
        for i, eps in enumerate(EPSILONS):
            exploit = sim.Strategy(p.n_star, est.Identity(),
                                   est.FixedWeighted(checks.exploit_tau_sq(p.sigma, p.agents, eps)))
            out.append((f"corrupt-deploy deployed eps={eps}", lambda eps=eps, i=i: sim.run_replications(
                self._sc("corrupt-deploy", rec, CANONICAL_LIBRARY_REPS, s + 3 + i, eps))))
            out.append((f"corrupt-deploy exploit eps={eps}", lambda eps=eps, i=i, f=exploit: sim.run_replications(
                self._sc("corrupt-deploy", f, CANONICAL_LIBRARY_REPS, s + 5 + i, eps))))
        for mech in ("pool", "size-check", "corrupt-deploy", "cross-check"):
            eps = EPSILONS[0] if mech == "corrupt-deploy" else None
            out.append((f"reference {mech}", lambda mech=mech, eps=eps: sim.run_replications_reference(
                self._sc(mech, sim.recommended_strategy(p, mech, eps),
                         CANONICAL_REFERENCE_REPS, s + 7, eps))))
        return out

    def check(self, rnd, outputs, chk):
        p = self.p
        m, ns, sig, c = p.agents, p.n_star, p.sigma, p.cost
        pref = {n: checks.penalty_ref(n, m, ns, sig, c, self.alpha_ref) for n in (5, 10, 20)}
        gauss_m4 = lambda r: 3 * r * r  # E[e^4] of N(0, r)

        # cross-check sweep: closed forms, and no deviation beats the recommendation
        rows = _rows(chk, "cross-check sweep", outputs["nash-sweep cross-check"])
        if rows is not None:
            chk.true("cross-check sweep rows", len(rows) == 12, f"{len(rows)} rows")
            base = rows[0]
            reps = CANONICAL_CROSS_CHECK_REPS
            chk.true("cross-check individual rationality",
                     base["total_penalty"] < 2 * sig * math.sqrt(c * p.dim))
            for r in rows:
                chk.close(f"cross-check {r['strategy']} total = mse + c n",
                          r["total_penalty"], r["mse"] + c * r["n"], 1e-12)
                chk.true(f"cross-check {r['strategy']} not flagged", not r["profitable_deviation"])
                if r["strategy"] in ("recommended", "n=5", "n=20"):
                    n = r["n"]
                    e2, e4 = self.cc_moments[n]
                    chk.close(f"cross-check p({n}) column", r["closed_form"], float(pref[n]))
                    chk.mean_matches(f"cross-check MC risk n={n}", r["mse"], r["std_error"], reps, e2, e4)
                if r is not base:
                    chk.not_better(f"cross-check NIC vs {r['strategy']}", base["total_penalty"],
                                   base["std_error"], r["total_penalty"], r["std_error"])

        # size-check sweeps: pooled-mean risk, NIC when honest, fabrication profitable
        reps = CANONICAL_SIZE_CHECK_REPS
        rows = _rows(chk, "size-check sweep", outputs["nash-sweep size-check"])
        if rows is not None:
            chk.true("size-check sweep rows", [r["n"] for r in rows] == [ns, ns // 2, 2 * ns])
            for r in rows:
                n = r["n"]
                risk = checks.pool_risk(sig, n, m, ns) if n >= ns else sig**2 / n
                chk.mean_matches(f"size-check MC risk n={n}", r["mse"], r["std_error"], reps,
                                 risk, gauss_m4(risk))
                if r is not rows[0]:
                    chk.not_better(f"size-check NIC vs n={n}", rows[0]["total_penalty"],
                                   rows[0]["std_error"], r["total_penalty"], r["std_error"])
            restricted_base = rows[0]
        else:
            restricted_base = None
        rows = _rows(chk, "unrestricted size-check sweep", outputs["nash-sweep size-check unrestricted"])
        if rows is not None:
            base = rows[0]
            if restricted_base is not None:
                chk.true("size-check recommended row repeats", base == restricted_base)
            fab = [r for r in rows if r["strategy"].startswith("fabricate")]
            chk.true("size-check fabrication row", len(fab) == 1)
            for r in fab:
                chk.better("size-check fabrication is profitable", base["total_penalty"],
                           base["std_error"], r["total_penalty"], r["std_error"])
                chk.true("size-check fabrication flagged", r["profitable_deviation"])

        # pool: the recommended profile and the free rider
        lib = CANONICAL_LIBRARY_REPS
        rec, free = outputs["pool recommended"], outputs["pool free rider"]
        if rec is not None:
            r = checks.pool_risk(sig, ns, m, ns)
            _check_pen(chk, "pool MC risk, recommended", rec, lib, r, gauss_m4(r))
        if free is not None:
            r = checks.pool_risk(sig, 0, m, ns)
            _check_pen(chk, "pool MC risk, free rider", free, lib, r, gauss_m4(r))
        if rec is not None and free is not None:
            chk.better("pool free-riding is profitable", rec.total, rec.std_error,
                       free.total, free.std_error)

        # corrupt-and-deploy: the deployed mean's penalty and the exploit's risk
        for eps in EPSILONS:
            dep = outputs[f"corrupt-deploy deployed eps={eps}"]
            if dep is not None:
                e2, e4 = checks.corrupt_deploy_moments(sig, c, m, ns, eps, None)
                _check_pen(chk, f"corrupt-deploy MC penalty eps={eps}", dep, lib,
                           checks.corrupt_deploy_penalty(sig, c, m, eps) - c * ns, e4)
            xp = outputs[f"corrupt-deploy exploit eps={eps}"]
            if xp is not None:
                tau = checks.exploit_tau_sq(sig, m, eps)
                e2, e4 = checks.corrupt_deploy_moments(sig, c, m, ns, eps, tau)
                _check_pen(chk, f"corrupt-deploy MC exploit risk eps={eps}", xp, lib,
                           checks.exploit_risk(sig, m, ns, eps), e4)

        # object-level reference path
        reps = CANONICAL_REFERENCE_REPS
        for mech in ("pool", "size-check"):
            pen = outputs[f"reference {mech}"]
            if pen is not None:
                r = checks.pool_risk(sig, ns, m, ns)
                _check_pen(chk, f"reference {mech} risk", pen, reps, r, gauss_m4(r))
        pen = outputs["reference corrupt-deploy"]
        if pen is not None:
            e2, e4 = checks.corrupt_deploy_moments(sig, c, m, ns, EPSILONS[0], None)
            _check_pen(chk, "reference corrupt-deploy risk", pen, reps, e2, e4)
        pen = outputs["reference cross-check"]
        if pen is not None:
            e2, e4 = self.cc_moments[ns]
            _check_pen(chk, "reference cross-check risk", pen, reps, e2, e4)


class LargePool(Workload):
    """m = 100, n* = 10, d = 1, Gaussian data, two worker threads."""

    name = "large-pool"

    def prepare(self):
        p = self.p
        self.alpha_ref = checks.alpha_mpmath(p.agents, p.n_star)
        self.moments = {n: checks.cross_check_moments(n, p.agents, p.n_star, p.sigma, self.alpha_ref)
                        for n in (p.n_star // 2, p.n_star, 2 * p.n_star)}

    def _menu(self):
        ns = self.p.n_star
        w = est.RecommendedWeighted()
        return [
            sim.Strategy(ns, est.Identity(), w, "recommended"),
            sim.Strategy(ns // 2, est.Identity(), w, f"n={ns // 2}"),
            sim.Strategy(2 * ns, est.Identity(), w, f"n={2 * ns}"),
            sim.Strategy(1, est.FabricateFitGaussian(ns), w, f"fabricate {ns} from 1"),
            sim.Strategy(1, est.Empty(), w, "submit nothing"),
        ]

    def _sc(self, focal, reps, seed, workers, chunk):
        return sim.Scenario(params=self.p, mechanism="cross-check", focal=focal,
                            distribution=_gauss(self.p), replications=reps,
                            master_seed=seed, alpha=self.alpha,
                            chunk_size=chunk, workers=workers)

    def ops(self, rnd):
        s = _round_seed(self.seed, rnd)
        return [(f.label, lambda f=f: sim.run_replications(
            self._sc(f, LARGE_POOL_REPS, s, LARGE_POOL_WORKERS, LARGE_POOL_CHUNK)))
            for f in self._menu()]

    def check(self, rnd, outputs, chk):
        p = self.p
        base = outputs["recommended"]
        for f in self._menu():
            pen = outputs[f.label]
            if pen is None:
                continue
            if f.n in self.moments and isinstance(f.submission, est.Identity):
                e2, e4 = self.moments[f.n]
                _check_pen(chk, f"large-pool MC risk n={f.n}", pen, LARGE_POOL_REPS, e2, e4)
            if base is not None and f.label != "recommended":
                chk.not_better(f"large-pool NIC vs {f.label}", base.total, base.std_error,
                               pen.total, pen.std_error)
        if base is not None:
            chk.true("large-pool individual rationality",
                     base.total < 2 * p.sigma * math.sqrt(p.cost * p.dim))

    def check_once(self, chk):
        # the MC engine promises byte-identical results for any worker count
        sc = self._sc(self._menu()[0], 5_000, _round_seed(self.seed, -1), 1, 2_048)
        one = sim.run_replications(sc)
        two = sim.run_replications(replace(sc, workers=2))
        chk.true("large-pool workers=1 and workers=2 agree",
                 one == two and repr(one) == repr(two), f"{one!r} vs {two!r}")


class HighdimUniform(Workload):
    """m = 9, d = 3, uniform_box data with per-dimension variance at the cap."""

    name = "highdim-uniform"

    def _spec(self):
        p = self.p
        return DistributionSpec("uniform_box", np.zeros(p.dim), p.sigma * math.sqrt(3.0), p.sigma**2)

    def ops(self, rnd):
        p, s = self.p, _round_seed(self.seed, rnd)
        argv = ["experiment", "highdim-check", "--agents", str(p.agents), "--dim", str(p.dim),
                "--nstar", str(p.n_star), "--replications", str(HIGHDIM_REPS), "--seed", str(s)]
        # The CLI prints no standard error, so the round also runs the
        # recommended profile through the library with the CLI's own seed.
        tau_sq = 2 * self.alpha**2 * p.sigma**2 / p.n_star
        rec = sim.Strategy(p.n_star, est.Identity(), est.FixedWeighted(tau_sq), "recommended")
        sc = sim.Scenario(params=p, mechanism="cross-check", focal=rec, distribution=self._spec(),
                          replications=HIGHDIM_REPS, master_seed=s,
                          mu_grid=tuple(x * p.sigma for x in sim.DEFAULT_MU_GRID_SCALE),
                          alpha=self.alpha)
        return [("highdim-check", _cli_op(argv)),
                ("recommended", lambda: sim.run_replications(sc))]

    def check(self, rnd, outputs, chk):
        p = self.p
        m, d, c, sig = p.agents, p.dim, p.cost, p.sigma
        rows = _rows(chk, "highdim-check", outputs["highdim-check"])
        rec = outputs["recommended"]
        if rows is not None:
            (r,) = rows
            chk.true("highdim NIC within 1 + 5/m", r["ok"] and r["ratio"] <= 1 + 5.0 / m,
                     f"ratio {r['ratio']}")
            chk.close("highdim bound 1 + 5/m", r["bound"], 1 + 5.0 / m, 1e-15)
            chk.true("highdim PoS proxy below 2 + 10/m",
                     r["pos_ok"] and r["pos_proxy"] < 2 + 10.0 / m, f"{r['pos_proxy']}")
            if rec is not None:
                chk.close("highdim CLI and library agree", r["pos_proxy"],
                          m * rec.total / (2 * sig * math.sqrt(c * m * d)), 1e-12)
        if rec is not None:
            # attained with equality by the fixed-weight estimator at the
            # variance cap, so the check is two-sided
            bound = checks.highdim_bound(sig, c, m, d, p.n_star, self.alpha)
            _check_pen(chk, "highdim penalty equals its bound", rec, HIGHDIM_REPS, bound - c * p.n_star)


class AnalyticScan(Workload):
    """Every m from 5 to 500 for d = 1 and d = 3: solver and analytics only."""

    name = "analytic-scan"
    M_RANGE = range(5, 501)
    DIMS = (1, 3)

    def prepare(self):
        self.alpha_ref = {m: checks.alpha_mpmath(m, N_STAR) for m in self.M_RANGE}
        self.grid = np.arange(1, 4 * N_STAR + 1)

    def _sigma(self, rnd, d):
        return 2.0 ** random.Random(f"{self.seed}:{rnd}:{d}").uniform(-1.0, 1.0)

    def _op(self, m, d, sigma):
        def run():
            p = validate_params(ProblemParams(sigma, checks.n_star_cost(sigma, N_STAR, m, d), m, d))
            sol = alphasolve.solve_alpha(p)
            a = sol.alpha
            return {
                "params": p, "sol": sol,
                "g_lo": alphasolve.g_of_alpha(sol.bracket_lo, p),
                "g_hi": alphasolve.g_of_alpha(sol.bracket_hi, p),
                "e_of_m": analytics.e_of_m(m, sol.a_m),
                "pos": analytics.pos_mechany(p, a),
                "p_star": analytics.penalty_at_nstar(p, a),
                "dp_star": analytics.penalty_derivative_at_nstar(p, a),
                "grid": [analytics.penalty_closed_form(int(n), p, a) for n in self.grid],
            }
        return run

    def ops(self, rnd):
        return [(f"m={m} d={d}", self._op(m, d, self._sigma(rnd, d)))
                for d in self.DIMS for m in self.M_RANGE]

    def check(self, rnd, outputs, chk):
        for label, o in outputs.items():
            if o is None:
                continue
            p, sol = o["params"], o["sol"]
            m, d, sig, c, ns = p.agents, p.dim, p.sigma, p.cost, p.n_star
            a_ref = self.alpha_ref[m]
            chk.true(f"{label} n*", ns == N_STAR)
            chk.close(f"{label} alpha vs mpmath root", sol.alpha, a_ref)
            lo, hi = checks.bracket(m, ns)
            chk.close(f"{label} bracket low end", sol.bracket_lo, lo, 1e-15)
            chk.close(f"{label} bracket high end", sol.bracket_hi, hi, 1e-15)
            chk.true(f"{label} G < 0 at the low end", o["g_lo"] < 0, f"{o['g_lo']}")
            chk.true(f"{label} G > 0 at the high end", o["g_hi"] > 0, f"{o['g_hi']}")
            chk.true(f"{label} E(m) < 5/m", o["e_of_m"] < 5.0 / m, f"{o['e_of_m']}")
            chk.true(f"{label} 1 < PoS < 2", 1.0 < o["pos"] < 2.0, f"{o['pos']}")
            ref = checks.penalty_ref(self.grid, m, ns, sig, c, a_ref, d)
            p_star_ref = float(ref[ns - 1])
            chk.close(f"{label} PoS identity", o["pos"],
                      m * p_star_ref / (2 * sig * math.sqrt(c * m * d)))
            chk.close(f"{label} p(n*) closed form", o["p_star"], p_star_ref)
            grid = np.array(o["grid"])
            bad = np.flatnonzero(np.abs(grid - ref) > checks.REL_EXACT * ref)
            chk.true(f"{label} p(n) quadrature", bad.size == 0,
                     f"n={self.grid[bad].tolist()}: {grid[bad].tolist()} vs {ref[bad].tolist()}")
            chk.true(f"{label} p(n) >= p(n*)", bool(np.all(grid >= grid[ns - 1])),
                     f"n={self.grid[grid < grid[ns - 1]].tolist()}")
            chk.true(f"{label} |p'(n*)| <= 1e-6 c", abs(o["dp_star"]) <= 1e-6 * c, f"{o['dp_star']}")
            dref = checks.penalty_derivative_ref(ns, m, ns, sig, c, sol.alpha, d)
            chk.true(f"{label} |p'(n*)| <= 1e-6 c by quadrature", abs(dref) <= 1e-6 * c, f"{dref}")


WORKLOADS = {w.name: w for w in (CanonicalSweep, LargePool, HighdimUniform, AnalyticScan)}
