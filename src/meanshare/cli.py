"""Batch command-line front end.

Commands:

- ``solve-alpha``: solve the corruption-level equation for one parameter set.
- ``figures g-check | em-check``: sign/bound scans over a range of agent
  counts (plot-ready CSV).
- ``experiment nash-sweep | ir-check | pos-table | mc-vs-closed-form |
  highdim-check``: Monte-Carlo and analytic verification runs.

Exit codes: 0 all assertions passed; 1 bad flags; 2 no sign change in the
root bracket; 3 figure-scan violation; 4 statistical failure; 5 analytic
identity failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import estimators as est
from . import simulation as sim
from .alphasolve import NoSignChange, c_m, g_of_alpha, solve_alpha
from .analytics import (
    e_of_m,
    penalty_at_nstar,
    pos_mechany,
    pos_smallm,
)
from .params import DistributionSpec, ProblemParams, cost_for_n_star, validate_params

EXIT_OK = 0
EXIT_FLAGS = 1
EXIT_NO_SIGN_CHANGE = 2
EXIT_FIGURE_VIOLATION = 3
EXIT_STATISTICAL = 4
EXIT_IDENTITY = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_FLAGS)


def _rational(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a number or a/b rational: {text!r}") from e


def _m_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from e
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range")
    return lo, hi


def _mu_grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(rows: list[dict], fmt: str, out_path: str | None):
    """Write a homogeneous list of dicts as CSV (header + 17-digit floats)
    or as a JSON array."""
    if fmt == "json":
        # numpy scalars print as their Python values (a numpy.bool_ as true)
        text = json.dumps(rows, indent=2, default=lambda v: v.item()) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            w.writeheader()
            for r in rows:
                w.writerow({k: _fmt(v) for k, v in r.items()})
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _params_from(args, m: int | None = None) -> ProblemParams:
    agents = m if m is not None else args.agents
    cost = args.cost
    if cost is None:
        # default: cost chosen so the recommended sample count is args.nstar
        cost = cost_for_n_star(args.sigma, args.nstar, agents, args.dim)
    return validate_params(ProblemParams(args.sigma, cost, agents, args.dim))


def _add_common(p: _Parser):
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--cost", type=_rational, default=None,
                   help="cost per sample; accepts a/b rationals (default: chosen so n*=--nstar)")
    p.add_argument("--nstar", type=int, default=10,
                   help="target recommended sample count when --cost is omitted")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)


def _param_report(p: ProblemParams) -> dict:
    return {"sigma": p.sigma, "cost": p.cost, "agents": p.agents, "dim": p.dim,
            "n_star": p.n_star}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve_alpha(args) -> int:
    p = _params_from(args)
    sol = solve_alpha(p)
    row = {**_param_report(p), "alpha": sol.alpha, "a_m": sol.a_m,
           "bracket_lo": sol.bracket_lo, "bracket_hi": sol.bracket_hi,
           "residual": sol.residual, "warnings": ";".join(sol.warnings)}
    _emit([row], args.format, args.out)
    return EXIT_OK


def cmd_figures(args) -> int:
    lo, hi = args.m_range
    rows, ok = [], True
    for m in range(lo, hi + 1):
        p = _params_from(args, m=m)
        if args.which == "g-check":
            val = g_of_alpha((1 + c_m(m) / m) * math.sqrt(p.n_star), p)
            rows.append({"m": m, "g_at_bracket_hi": val})
            ok &= val > 0
        else:
            sol = solve_alpha(p)
            for w in sol.warnings:
                print(f"warning: m={m}: {w}", file=sys.stderr)
            e = e_of_m(m, sol.a_m)
            rows.append({"m": m, "e_of_m": e, "bound": 5.0 / m})
            ok &= e < 5.0 / m
    _emit(rows, args.format, args.out)
    if not ok:
        print("error: scan violated the claimed sign/bound", file=sys.stderr)
        return EXIT_FIGURE_VIOLATION
    return EXIT_OK


def _maybe_alpha(args, p: ProblemParams):
    if args.mechanism == "cross-check" and p.agents >= 5:
        return solve_alpha(p).alpha
    return None


def cmd_experiment(args) -> int:
    if args.which == "pos-table":
        lo, hi = args.m_range
        rows, ok_all = [], True
        for m in range(lo, hi + 1):
            p = _params_from(args, m=m)
            if m <= 4:
                pos = pos_smallm(p)
                rows.append({"m": m, "alpha": float("nan"), "pos": pos})
                ok_all &= pos <= 1.25
                continue
            sol = solve_alpha(p)
            pos = pos_mechany(p, sol.alpha)
            ident = m * penalty_at_nstar(p, sol.alpha) / (2 * p.sigma * math.sqrt(p.cost * m * p.dim))
            rows.append({"m": m, "alpha": sol.alpha, "pos": pos})
            if abs(pos - ident) > 1e-9:
                print(f"error: m={m}: PoS formula and penalty identity disagree "
                      f"({pos} vs {ident})", file=sys.stderr)
                return EXIT_IDENTITY
            ok_all &= 1.0 < pos < 2.0
        _emit(rows, args.format, args.out)
        return EXIT_OK if ok_all else EXIT_STATISTICAL

    p = _params_from(args)
    alpha = _maybe_alpha(args, p)
    sc = sim.Scenario(
        params=p, mechanism=args.mechanism,
        focal=sim.recommended_strategy(p, args.mechanism, args.epsilon),
        distribution=DistributionSpec("gaussian", np.zeros(p.dim), p.sigma, p.sigma**2),
        replications=args.replications, master_seed=args.seed,
        mu_grid=tuple(s * p.sigma for s in args.mu_grid),
        epsilon=args.epsilon, alpha=alpha,
    )

    if args.which == "ir-check":
        res = sim.ir_check(sc)
        _emit([{**_param_report(p), **res}], args.format, args.out)
        return EXIT_OK if res["ok"] else EXIT_STATISTICAL

    if args.which == "mc-vs-closed-form":
        if alpha is None:
            print("error: mc-vs-closed-form compares with the closed form of cross-check, "
                  "which is defined for 5 or more agents", file=sys.stderr)
            return EXIT_FLAGS
        pen = sim.run_replications(sc)
        closed = penalty_at_nstar(p, alpha) - p.cost * p.n_star
        gap = abs(pen.mean_sq_error - closed)
        ok = gap <= 3 * pen.std_error
        _emit([{**_param_report(p), "alpha": alpha, "empirical_mse": pen.mean_sq_error,
                "std_error": pen.std_error, "closed_form_risk": closed,
                "gap": gap, "ok": ok}], args.format, args.out)
        return EXIT_OK if ok else EXIT_STATISTICAL

    if args.which == "nash-sweep":
        menu = None
        if args.mechanism == "size-check" and not args.unrestricted:
            # restricted strategy space: honest submissions, varying counts
            ns = p.n_star
            menu = [sim.Strategy(n, est.Identity(), est.CleanOnlyMean(), f"n={n}")
                    for n in (max(ns // 2, 1), 2 * ns)]
        rows = sim.nash_deviation_sweep(sc, menu)
        out = [{"strategy": r.strategy.label, "n": r.strategy.n,
                "total_penalty": r.penalty.total, "mse": r.penalty.mean_sq_error,
                "std_error": r.penalty.std_error,
                "closed_form": r.closed_form if r.closed_form is not None else float("nan"),
                "profitable_deviation": r.profitable} for r in rows]
        _emit(out, args.format, args.out)
        exploited = any(r.profitable for r in rows)
        if args.mechanism == "size-check" and args.unrestricted:
            # the fabrication exploit is expected to be profitable here;
            # report it without failing
            return EXIT_OK
        return EXIT_STATISTICAL if exploited else EXIT_OK

    if args.which == "highdim-check":
        # variance-bounded uniform data under cross-check, whatever --mechanism says
        spec = DistributionSpec("uniform_box", np.zeros(p.dim),
                                p.sigma * math.sqrt(3.0), p.sigma**2)
        res = sim.highdim_nic_check(replace(
            sc, mechanism="cross-check", distribution=spec,
            alpha=alpha if alpha is not None else solve_alpha(p).alpha))
        _emit([{**_param_report(p), "ratio": res["ratio"], "bound": res["bound"],
                "ok": res["ok"], "pos_proxy": res["pos_proxy"],
                "pos_bound": res["pos_bound"], "pos_ok": res["pos_ok"],
                "best_deviation": res["best_label"]}], args.format, args.out)
        return EXIT_OK if (res["ok"] and res["pos_ok"]) else EXIT_STATISTICAL

    raise AssertionError(args.which)


def build_parser() -> _Parser:
    top = _Parser(prog="meanshare",
                  description="verify data-sharing mechanisms for collaborative mean estimation")
    subs = top.add_subparsers(dest="command", required=True)

    pa = subs.add_parser("solve-alpha", parents=[], help="solve the corruption-level equation")
    _add_common(pa)
    pa.add_argument("--agents", type=int, required=True)
    pa.set_defaults(func=cmd_solve_alpha)

    pf = subs.add_parser("figures", help="sign/bound scans over agent counts")
    pf.add_argument("which", choices=("g-check", "em-check"))
    pf.add_argument("--m-range", type=_m_range, required=True)
    _add_common(pf)
    pf.set_defaults(func=cmd_figures, format="csv")

    pe = subs.add_parser("experiment", help="verification experiments")
    pe.add_argument("which", choices=("nash-sweep", "ir-check", "pos-table",
                                      "mc-vs-closed-form", "highdim-check"))
    _add_common(pe)
    pe.add_argument("--agents", type=int, default=9)
    pe.add_argument("--epsilon", type=float, default=0.5)
    pe.add_argument("--m-range", type=_m_range, default=(5, 100))
    pe.add_argument("--replications", type=int, default=100_000)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--mu-grid", type=_mu_grid, default=sim.DEFAULT_MU_GRID_SCALE,
                    help="mean offsets in units of sigma for non-equivariant deviations")
    pe.add_argument("--mechanism", choices=sim.MECHANISMS, default="cross-check")
    pe.add_argument("--unrestricted", action="store_true",
                    help="allow fabricated submissions in the size-check sweep")
    pe.set_defaults(func=cmd_experiment)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoSignChange as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_SIGN_CHANGE
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
