"""Slotted online one-sided crossing minimization laboratory.

Library layout:

- :mod:`oscm.model` — instances, requests, and placement states as plain records.
- :mod:`oscm.crossings` — exact crossing counts and the pair taxonomy.
- :mod:`oscm.propagation` — the one layout engine, `ReplayBoard`, that games are played,
  replayed, audited and rendered on, and the propagation arrows and state auditors read
  off it.
- :mod:`oscm.algorithms` — online algorithms and the game loop.
- :mod:`oscm.offline` — the offline optimum: sorted-order closed form and exponential oracle.
- :mod:`oscm.adversaries` — adversarial request sources.
- :mod:`oscm.harness` — experiments, audits, sweeps, reports.
- :mod:`oscm.render` — deterministic SVG rendering.
"""

from .adversaries import Thm1Adversary, Thm2Adversary, endgame_fill, fig8_instance
from .algorithms import (
    ALGORITHMS,
    BARYCENTER,
    FIRST_FIT,
    GREEDY,
    OnlineAlgorithm,
    Trace,
    TraceStep,
    get_algorithm,
    play,
)
from .crossings import (
    PairCrossKind,
    PairKind,
    classify_pair,
    pair_crossings,
    total_crossings,
)
from .harness import (
    RatioReport,
    SweepResult,
    audit_trace,
    run_experiment,
    sweep,
)
from .model import (
    Assignment,
    Instance,
    PlacementState,
    RegularityClass,
    Request,
    apply,
    load_instance,
    make_request,
    random_two_regular,
    save_instance,
    validate_instance,
)
from .offline import OptResult, brute_force_opt, sorted_order_opt, sorted_order_value
from .propagation import arrows, audit_equator, audit_no_double_cross
from .render import render_svg

__version__ = "0.1.0"
