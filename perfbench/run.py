"""Benchmark of meanshare: time, set-up and peak memory to a verified result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``. Each workload runs in a fresh worker process (worker.py). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics setup_s, wall_s and peak_rss_mb; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead, and the spans are
written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("canonical-sweep", "large-pool", "highdim-uniform", "analytic-scan")
# set-up is measured in this many extra fresh processes, plus the worker itself
SETUP_PROBES = 4
DEADLINE_S = 170.0


def _spawn(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker; return (monotonic start time, its JSON result)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "meanshare" / "__init__.py").is_file():
        print(f"error: no meanshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0, res = _spawn(["--workload", args.workload, "--probe"], remaining())
                setups.append(res["t_ready"] - t0)
        t0, res = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         remaining())
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(res["t_ready"] - t0)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    walls = " ".join(f"{w:.3f}" for w in res["round_walls"])
    print(f"{args.workload} seed {args.seed}: set-ups {' '.join(f'{s:.3f}' for s in setups)} s; "
          f"rounds {walls} s", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
