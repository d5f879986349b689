"""Batch command-line front end.

Commands:

- ``solve-alpha``: solve the corruption-level equation for one parameter set.
- ``figures g-check | em-check``: sign/bound scans over a range of agent
  counts (plot-ready CSV).
- ``experiment nash-sweep | ir-check | pos-table | mc-vs-closed-form |
  highdim-check``: Monte-Carlo and analytic verification runs, each taking
  only the flags it reads (``_EXPERIMENTS``), after its name.

Exit codes: 0 all assertions passed; 1 bad flags; 2 no sign change in the
root bracket; 3 figure-scan violation; 4 statistical failure; 5 analytic
identity failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import estimators as est
from . import simulation as sim
from .alphasolve import NoSignChange, bracket, g_of_alpha, solve_alpha
from .analytics import (
    e_of_m,
    penalty_at_nstar,
    pos_mechany,
    pos_smallm,
)
from .params import DistributionSpec, ProblemParams, cost_for_n_star

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
    except (ValueError, ZeroDivisionError, OverflowError) as e:
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
    cost = args.cost if args.cost is not None else cost_for_n_star(
        args.sigma, 10 if args.nstar is None else args.nstar, agents, args.dim)
    return ProblemParams(args.sigma, cost, agents, args.dim)


def _add_common(p: _Parser):
    p.add_argument("--sigma", type=float, default=1.0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--cost", type=_rational, default=None,
                   help="cost per sample; accepts a/b rationals (default: chosen so n*=--nstar)")
    # default None, not 10: argparse ignores a conflicting flag given at its default value
    g.add_argument("--nstar", type=int, default=None,
                   help="target recommended sample count, instead of --cost (default: 10)")
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
           "residual": sol.residual, "iterations": sol.iterations,
           "warnings": ";".join(sol.warnings)}
    _emit([row], args.format, args.out)
    return EXIT_OK


def cmd_figures(args) -> int:
    lo, hi = args.m_range
    rows, ok = [], True
    for m in range(lo, hi + 1):
        p = _params_from(args, m=m)
        if args.which == "g-check":
            val = g_of_alpha(bracket(p)[1], p)
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

    # --epsilon and --unrestricted are each read by one mechanism only
    for flag, given, reader in (("--epsilon", args.epsilon is not None, "corrupt-deploy"),
                                ("--unrestricted", args.unrestricted, "size-check")):
        if given and args.mechanism != reader:
            raise ValueError(f"{flag} is read only by --mechanism {reader}")
    epsilon = 0.5 if args.epsilon is None and args.mechanism == "corrupt-deploy" else args.epsilon
    p = _params_from(args)
    alpha = solve_alpha(p).alpha if args.mechanism == "cross-check" and p.agents >= 5 else None
    sc = sim.Scenario(
        params=p, mechanism=args.mechanism,
        focal=sim.recommended_strategy(p, args.mechanism, epsilon),
        distribution=DistributionSpec("gaussian", np.zeros(p.dim), p.sigma, p.sigma**2),
        replications=args.replications, master_seed=args.seed,
        mu_grid=tuple(s * p.sigma for s in args.mu_grid), epsilon=epsilon, alpha=alpha,
    )

    if args.which == "ir-check":
        res = sim.ir_check(sc)
        _emit([{**_param_report(p), **res}], args.format, args.out)
        return EXIT_OK if res["ok"] else EXIT_STATISTICAL

    if args.which == "mc-vs-closed-form":
        if alpha is None:
            raise ValueError("mc-vs-closed-form compares with the closed form of cross-check, "
                             "which is defined for 5 or more agents")
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
            menu = [sim.Strategy(n, est.Identity(), est.CleanOnlyMean(), f"n={n}")
                    for n in (max(p.n_star // 2, 1), 2 * p.n_star)]
        rows = sim.nash_deviation_sweep(sc, menu)
        out = [{"strategy": r.strategy.label, "n": r.strategy.n,
                "total_penalty": r.penalty.total, "mse": r.penalty.mean_sq_error,
                "std_error": r.penalty.std_error,
                "closed_form": r.closed_form if r.closed_form is not None else float("nan"),
                "profitable_deviation": r.profitable} for r in rows]
        _emit(out, args.format, args.out)
        # unrestricted size-check: the fabrication exploit is expected to pay; report it
        expected = args.mechanism == "size-check" and args.unrestricted
        return EXIT_STATISTICAL if any(r.profitable for r in rows) and not expected else EXIT_OK

    if args.which == "highdim-check":
        # variance-bounded uniform data
        res = sim.highdim_nic_check(replace(sc, distribution=DistributionSpec(
            "uniform_box", np.zeros(p.dim), p.sigma * math.sqrt(3.0), p.sigma**2)))
        keys = ("ratio", "bound", "ok", "pos_proxy", "pos_bound", "pos_ok")
        _emit([{**_param_report(p), **{k: res[k] for k in keys},
                "best_deviation": res["best_label"]}], args.format, args.out)
        return EXIT_OK if (res["ok"] and res["pos_ok"]) else EXIT_STATISTICAL

    raise AssertionError(args.which)


_RUN = ("agents", "replications", "seed")
# experiment -> the flags it reads besides _add_common's
_EXPERIMENTS = {
    "nash-sweep": (*_RUN, "mechanism", "epsilon", "mu_grid", "unrestricted"),
    "ir-check": (*_RUN, "mechanism", "epsilon"),
    "pos-table": ("m_range",),
    "mc-vs-closed-form": _RUN,
    "highdim-check": (*_RUN, "mu_grid"),
}
# what cmd_experiment reads for a flag the experiment does not take
_NOT_TAKEN = {"mechanism": "cross-check", "epsilon": None, "mu_grid": (0.0,),
              "unrestricted": False}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: building it makes
    about 70 ``add_argument`` calls, each of which formats help text.
    Parsing does not change it, so every call shares it."""
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

    flags = {"agents": dict(type=int, default=9), "replications": dict(type=int, default=100_000),
             "seed": dict(type=int, default=0),
             "epsilon": dict(type=float, default=None, help="corrupt-deploy only (default: 0.5)"),
             "mechanism": dict(choices=sim.MECHANISMS, default="cross-check"),
             "m_range": dict(type=_m_range, default=(5, 100)),
             "mu_grid": dict(type=_mu_grid, default=sim.DEFAULT_MU_GRID_SCALE,
                             help="mean offsets in units of sigma for non-equivariant deviations"),
             "unrestricted": dict(action="store_true",
                                  help="size-check only: allow fabricated submissions")}
    xs = subs.add_parser("experiment", help="verification experiments").add_subparsers(
        dest="which", required=True)
    for which, taken in _EXPERIMENTS.items():
        px = xs.add_parser(which)
        _add_common(px)
        for dest in taken:
            px.add_argument("--" + dest.replace("_", "-"), **flags[dest])
        px.set_defaults(func=cmd_experiment,
                        **{k: v for k, v in _NOT_TAKEN.items() if k not in taken})

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
