"""Autonomous weight reassignment: the vote autopilot.

Gifford's central knob — the per-file vote assignment — is static in
the paper: an administrator chooses weights once, from an estimate of
each host's speed and reliability and of the read/write mix (Section
3).  :class:`WeightAutopilot` closes the loop: it refreshes that
estimate from telemetry the repo already collects, plans votes with
the paper's own model (:func:`repro.core.tuning.best_configuration`),
and executes a reassignment through the ordinary old-quorum
reconfiguration path (:func:`repro.core.reconfig.change_configuration`),
so every autonomous change inherits the paper's safety argument.

Layers (see ``docs/AUTONOMY.md``): :mod:`~repro.autonomy.signals`
folds the registries into one profile per representative;
:mod:`~repro.autonomy.policy` holds the planner, the settings and the
hard safety gate; :mod:`~repro.autonomy.controller` runs the
deterministic observe → plan → hysteresis → gate → execute loop on
either runtime.
"""

from .controller import ReassignmentRecord, WeightAutopilot
from .policy import AutopilotPolicy, Move, gate_proposal, plan_move
from .signals import collect_profiles

__all__ = [
    "AutopilotPolicy",
    "Move",
    "ReassignmentRecord",
    "WeightAutopilot",
    "collect_profiles",
    "gate_proposal",
    "plan_move",
]
