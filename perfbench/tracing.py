"""Spans around the package's public functions, for the traced mode.

``Tracer.install`` replaces each listed function by a wrapper at every
meanshare module that holds it under a name (``simulation.spawn_stream``
and ``params.spawn_stream`` are the same function looked up in two
places). Each call becomes a span: name, start, end, parent span, thread.
Spans stay in memory until ``write``.

A span opened in a worker thread with no open span of its own takes the
innermost open span of the main thread as parent: the MC engine's worker
threads work for the ``run_replications`` call that started them.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
import time
import tracemalloc
from statistics import median

TARGETS = [
    ("meanshare.simulation", "run_replications"),
    ("meanshare.simulation", "run_replications_reference"),
    ("meanshare.simulation", "nash_deviation_sweep"),
    ("meanshare.simulation", "highdim_nic_check"),
    ("meanshare.params", "spawn_stream"),
    ("meanshare.alphasolve", "solve_alpha"),
    ("meanshare.alphasolve", "g_of_alpha"),
    ("meanshare.analytics", "penalty_closed_form"),
    ("meanshare.analytics", "penalty_at_nstar"),
    ("meanshare.mechanisms", "mech_cross_check_corrupt"),
    ("meanshare.mechanisms", "mech_corrupt_deploy"),
    ("meanshare.mechanisms", "mech_pool"),
    ("meanshare.mechanisms", "mech_size_check"),
    ("meanshare.estimators", "apply_submission"),
    ("meanshare.estimators", "estimate"),
    ("meanshare.cli", "main"),
]

MECHANISMS = ("cross-check", "size-check", "pool", "corrupt-deploy")


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, attrs)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        tracer = self
        is_mc = name == "simulation.run_replications"
        is_ref = name == "simulation.run_replications_reference"

        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            attrs = None
            if is_mc or is_ref:
                sc = args[0] if args else kwargs["sc"]
                sim = sys.modules["meanshare.simulation"]
                mus = 1 if sim.is_translation_equivariant(sc.focal) else len(sc.mu_grid)
                attrs = {"mechanism": sc.mechanism, "reps": sc.replications * mus}
            if is_mc:
                tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_mc:
                    attrs["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                    tracemalloc.stop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), attrs))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target at every meanshare module that holds it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "meanshare" or k.startswith("meanshare."))]
        for module, name in TARGETS:
            orig = getattr(sys.modules[module], name)
            wrapped = self._wrap(_short(module, name), orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as f:
            for sid, name, t0, t1, parent, thread, attrs in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "thread": thread,
                                    "attrs": attrs}) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def _self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _, _ in self.spans:
            covered, end = 0.0, t0
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, end), min(b, t1)
                if b > a:
                    covered += b - a
                    end = b
            out[sid] = (t1 - t0) - covered
        return out

    def metrics(self, rounds: int, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per round where they are sums."""
        by_name: dict[str, list[tuple]] = {}
        for s in self.spans:
            by_name.setdefault(s[1], []).append(s)
        selfs = self._self_times()

        def durs(name):
            return [s[3] - s[2] for s in by_name.get(name, ())]

        def p50(name, scale):
            d = durs(name)
            return median(d) * scale if d else 0.0

        def rate(spans):
            busy = sum(s[3] - s[2] for s in spans)
            return sum(s[6]["reps"] for s in spans) / busy if busy > 0 else 0.0

        mc = by_name.get("simulation.run_replications", [])
        out = {
            "trace.wall_s": (traced_wall_s, "s"),
            "simulation.run_replications.busy_s": (sum(durs("simulation.run_replications")) / rounds, "s"),
            "simulation.run_replications.reps": (sum(s[6]["reps"] for s in mc) / rounds, "count"),
        }
        for mech in MECHANISMS:
            out[f"simulation.run_replications.{mech}.reps_per_s"] = (
                rate([s for s in mc if s[6]["mechanism"] == mech]), "reps/s")
        out["simulation.run_replications.traced_peak_mb"] = (
            max((s[6]["peak_mb"] for s in mc), default=0.0), "MB")
        out["simulation.run_replications_reference.reps_per_s"] = (
            rate(by_name.get("simulation.run_replications_reference", [])), "reps/s")
        for name in ("simulation.nash_deviation_sweep", "simulation.highdim_nic_check", "cli.main"):
            out[f"{name}.self_s"] = (
                sum(selfs[s[0]] for s in by_name.get(name, ())) / rounds, "s")
        out["params.spawn_stream.calls"] = (len(durs("params.spawn_stream")) / rounds, "count")
        out["params.spawn_stream.busy_s"] = (sum(durs("params.spawn_stream")) / rounds, "s")
        out["alphasolve.solve_alpha.calls"] = (len(durs("alphasolve.solve_alpha")) / rounds, "count")
        out["alphasolve.solve_alpha.ms_p50"] = (p50("alphasolve.solve_alpha", 1e3), "ms")
        out["alphasolve.g_of_alpha.calls"] = (len(durs("alphasolve.g_of_alpha")) / rounds, "count")
        out["analytics.penalty_closed_form.calls"] = (
            len(durs("analytics.penalty_closed_form")) / rounds, "count")
        out["analytics.penalty_closed_form.ms_p50"] = (p50("analytics.penalty_closed_form", 1e3), "ms")
        out["analytics.penalty_at_nstar.us_p50"] = (p50("analytics.penalty_at_nstar", 1e6), "us")
        for name in ("mechanisms.mech_cross_check_corrupt", "mechanisms.mech_corrupt_deploy",
                     "mechanisms.mech_pool", "mechanisms.mech_size_check",
                     "estimators.apply_submission", "estimators.estimate"):
            out[f"{name}.us_p50"] = (p50(name, 1e6), "us")
        return out
