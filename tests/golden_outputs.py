"""Golden outputs: fixed-seed results that an output-preserving change must
keep bit for bit.

Run ``PYTHONPATH=src python tests/golden_outputs.py`` to rewrite
``golden_outputs.json`` next to this file; ``test_golden_outputs.py``
recomputes every key and compares. Floats are stored as ``float.hex``.

- ``analytic``: :class:`alphasolve.AlphaSolution` for m = 5..500. No draw
  enters these, so they compare under any numpy version.
- ``draws``: every :func:`simulation.default_menu` sweep (each mechanism x
  family, d in {1, 3}, m in {4, 9}) and the reference path of each
  default-menu row. numpy may change its distribution methods between
  versions (NEP 19), so these compare only under the recorded ``numpy``
  version. A sweep's outputs are the same for any worker count: the test
  runs each at 1 and 2 workers against one stored value.

A change that moves outputs on purpose rewrites the file in the same
commit, and its diff is the record of which keys moved.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from dataclasses import replace

import numpy as np

from meanshare import simulation as sim
from meanshare.alphasolve import solve_alpha
from meanshare.params import DistributionSpec, ProblemParams, cost_for_n_star

PATH = pathlib.Path(__file__).with_name("golden_outputs.json")

SEED = 20231
FAMILIES = {"gaussian": 1.0, "uniform_box": math.sqrt(3.0), "scaled_rademacher": 1.0}
# a sweep's row 0 runs in three chunks, and its menu in two score blocks at d = 1
# and four at d = 3
SWEEP_REPS, SWEEP_CHUNK = 9_000, 4_000
REFERENCE_REPS = 300


def _hex(x):
    """A JSON-able, bit-exact form of an output."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        return x.hex()
    return [_hex(v) for v in x]


def _params(m: int, dim: int) -> ProblemParams:
    return ProblemParams(1.0, cost_for_n_star(1.0, 10, m, dim), m, dim)


def _scenario(mechanism: str, family: str, dim: int, m: int, reps: int,
              workers: int = 1) -> sim.Scenario:
    p = _params(m, dim)
    eps = 0.5 if mechanism == "corrupt-deploy" else None
    alpha = solve_alpha(p).alpha if mechanism == "cross-check" and m >= 5 else None
    spec = DistributionSpec(family, np.zeros(dim), FAMILIES[family], 1.0)
    return sim.Scenario(p, mechanism, sim.recommended_strategy(p, mechanism), spec, reps, SEED,
                        mu_grid=sim.DEFAULT_MU_GRID_SCALE, epsilon=eps, alpha=alpha,
                        chunk_size=SWEEP_CHUNK, workers=workers)


def _penalty(pen: sim.EmpiricalPenalty):
    return [pen.total, pen.std_error, [list(cell) for cell in pen.per_mu]]


def sweep_keys():
    """(key, mechanism, family, dim, m) of every fixture sweep."""
    return [(f"sweep {mech_name} {family} d={dim} m={m}", mech_name, family, dim, m)
            for mech_name in sim.MECHANISMS for family in FAMILIES
            for dim in (1, 3) for m in (4, 9)]


def sweep(mechanism: str, family: str, dim: int, m: int, workers: int):
    rows = sim.nash_deviation_sweep(_scenario(mechanism, family, dim, m, SWEEP_REPS, workers))
    return _hex([[r.strategy.label, *_penalty(r.penalty), r.closed_form, r.profitable]
                 for r in rows])


def reference_keys():
    """(key, mechanism, family, row label) of every fixture reference run:
    each default-menu row at d = 1, m = 9."""
    out = []
    for mech_name in sim.MECHANISMS:
        for family in FAMILIES:
            sc = _scenario(mech_name, family, 1, 9, REFERENCE_REPS)
            for s in sim.default_menu(sc.params, sc.focal.estimator):
                if mech_name == "corrupt-deploy" and not sim._submits_data(s):
                    continue  # corrupt-and-deploy rejects an empty submission
                out.append((f"reference {mech_name} {family} {s.label}", mech_name, family,
                            s.label))
    return out


def reference(mechanism: str, family: str, label: str):
    sc = _scenario(mechanism, family, 1, 9, REFERENCE_REPS)
    foc, = (s for s in sim.default_menu(sc.params, sc.focal.estimator) if s.label == label)
    return _hex(_penalty(sim.run_replications_reference(replace(sc, focal=foc))))


def alpha_keys():
    return [(f"alpha m={m}", m) for m in range(5, 501)]


def alpha(m: int):
    sol = solve_alpha(_params(m, 1))
    return _hex([sol.alpha, sol.a_m, sol.bracket_lo, sol.bracket_hi, sol.residual,
                 sol.iterations, list(sol.warnings)])


def compute() -> dict:
    draws = {}
    for key, *args in sweep_keys():
        draws[key] = sweep(*args, workers=1)
        if sweep(*args, workers=2) != draws[key]:
            sys.exit(f"{key}: 1 and 2 workers differ")
    for key, *args in reference_keys():
        draws[key] = reference(*args)
    return {"numpy": np.__version__,
            "analytic": {key: alpha(m) for key, m in alpha_keys()},
            "draws": draws}


def dump(doc: dict) -> str:
    """``doc`` as JSON with one line per key, so that a diff names the keys that moved."""
    parts = [f'"numpy": {json.dumps(doc["numpy"])}']
    for section in ("analytic", "draws"):
        items = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc[section].items())
        parts.append(f'"{section}": {{\n{items}\n}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    PATH.write_text(dump(compute()))
    print(f"wrote {PATH}")
