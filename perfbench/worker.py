"""One workload run in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --probe

Set-up (importing meanshare with numpy and scipy, validating the
parameters, solving alpha) ends at ``t_ready``, a CLOCK_MONOTONIC reading
that run.py subtracts from the moment it started this process. ``--probe``
stops there. Otherwise the worker runs whole rounds of the workload's
operations until their summed time reaches ``--seconds`` (at most
checks.MAX_ROUNDS rounds), checks every round's outputs outside the timed
region, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _setup(workload: str):
    # workloads imports every meanshare module the operations use, and with
    # them numpy and scipy
    from meanshare import alphasolve
    from workloads import setup_params

    p = setup_params(workload)
    return p, alphasolve.solve_alpha(p).alpha


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    params, alpha = _setup(args.workload)
    t_ready = time.monotonic()
    if args.probe:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    import resource
    from statistics import median

    import meanshare
    from checks import MAX_ROUNDS, Checker
    from workloads import WORKLOADS

    if not Path(meanshare.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"meanshare imported from {meanshare.__file__}, not from {ROOT / 'src'}")

    wl = WORKLOADS[args.workload](args.seed, params, alpha)
    wl.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    failures: list[str] = []
    round_walls: list[float] = []
    for rnd in range(MAX_ROUNDS):
        if sum(round_walls) >= args.seconds:
            break
        outputs, wall = {}, 0.0
        for label, op in wl.ops(rnd):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as e:  # an operation that fails is counted, not fatal
                out = None
                failed += 1
                print(f"round {rnd} {label}: {type(e).__name__}: {e}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            wall += time.perf_counter() - t0
            outputs[label] = out
        round_walls.append(wall)
        chk = Checker()
        wl.check(rnd, outputs, chk)
        failures += [f"round {rnd} {f}" for f in chk.failures]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    per_layer = None
    if tracer is not None:
        per_layer = tracer.metrics(len(round_walls), median(round_walls))
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl.gz")
    chk = Checker()
    wl.check_once(chk)
    failures += chk.failures
    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)

    result = {
        "t_ready": t_ready,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "round_walls": round_walls,
        "wall_s": median(round_walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if per_layer is not None:
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
