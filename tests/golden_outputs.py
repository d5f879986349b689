"""Golden outputs: fixed-seed results that an output-preserving change must
keep bit for bit.

Run ``PYTHONPATH=src python tests/golden_outputs.py`` to rewrite
``golden_outputs.json`` next to this file; ``test_golden_outputs.py``
recomputes every key and compares. Floats are stored as ``float.hex``.
With ``--compare [FIXTURE]`` the script writes nothing: it prints each key
whose recomputed value differs from the one in FIXTURE (by default the
committed file; ``git show <rev>:tests/golden_outputs.json`` gives an older
one), with the largest relative change of its floats, per row for a sweep,
so that a claim that a change moves outputs by rounding only is checked by
a script.

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
        for workers in (2, 4):
            if sweep(*args, workers=workers) != draws[key]:
                sys.exit(f"{key}: 1 and {workers} workers differ")
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


def _stored_float(x):
    """The float that a stored string holds (``float.hex``), or None."""
    try:
        return float.fromhex(x) if isinstance(x, str) else None
    except ValueError:
        return None


def _floats(old, new, path=()):
    """(path, old, new) of each float of two stored values of one shape;
    a leaf that is not a float, or a change of shape, yields None for both."""
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _floats(a, b, (*path, i))
    elif _stored_float(old) is not None and _stored_float(new) is not None:
        yield path, _stored_float(old), _stored_float(new)
    elif old != new:
        yield path, None, None


def relative_change(old, new) -> float:
    """|new - old| / |old|: 0 for equal values (NaN and inf included), inf
    for a change of shape or of a value that is not a float, or from 0."""
    if old is None:
        return math.inf
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _label(value, path):
    """The label of the sweep row that ``path`` enters, or None."""
    row = value[path[0]] if path and isinstance(value, list) else None
    if isinstance(row, list) and row and isinstance(row[0], str) and _stored_float(row[0]) is None:
        return row[0]
    return None


def compare(stored: dict, computed: dict) -> list[str]:
    """One line per moved key of ``computed`` against ``stored``: the largest
    relative change of its floats, and, for a key that holds labelled rows
    (a sweep), one indented line per moved row."""
    lines = []
    for section in ("analytic", "draws"):
        for key, new in computed[section].items():
            old = stored[section].get(key)
            if old == new:
                continue
            rows = {}
            for path, a, b in _floats(old, new):
                row = _label(old, path)
                rows[row] = max(rows.get(row, 0.0), relative_change(a, b))
            lines.append(f"{key}: largest relative change {max(rows.values()):.3g}")
            lines += [f"    {row}: {ch:.3g}" for row, ch in rows.items() if row is not None and ch]
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        against = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else PATH
        moved = compare(json.loads(against.read_text()), compute())
        print("\n".join(moved) if moved else "no key moved")
    else:
        PATH.write_text(dump(compute()))
        print(f"wrote {PATH}")
