"""Incentive-compatible data sharing for collaborative normal mean estimation.

Library layout:

- :mod:`meanshare.params` — problem parameters, datasets, sampling kernels.
- :mod:`meanshare.alphasolve` — the corruption-level equation G(alpha) = 0.
- :mod:`meanshare.estimators` — submission rules and mean estimators.
- :mod:`meanshare.mechanisms` — the four data-sharing mechanisms.
- :mod:`meanshare.analytics` — closed-form penalty and risk analytics.
- :mod:`meanshare.simulation` — Monte-Carlo equilibrium verification.
- :mod:`meanshare.cli` — batch command-line front end.
"""

from .alphasolve import AlphaSolution, g_of_alpha, solve_alpha
from .analytics import (
    baseline_penalties,
    penalty_at_nstar,
    penalty_closed_form,
    pos_mechany,
    pos_mechpk,
    pos_smallm,
)
from .params import (
    DistributionSpec,
    ProblemParams,
    double_factorial,
    spawn_stream,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemParams",
    "DistributionSpec",
    "double_factorial",
    "spawn_stream",
    "AlphaSolution",
    "g_of_alpha",
    "solve_alpha",
    "baseline_penalties",
    "penalty_closed_form",
    "penalty_at_nstar",
    "pos_mechany",
    "pos_mechpk",
    "pos_smallm",
    "__version__",
]
