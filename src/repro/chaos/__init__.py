"""Chaos engineering for the repro substrates.

A **chaos campaign** is a declarative sweep of fault scenarios ×
substrates × seeds.  Each scenario runs a real workload with a real
fault injected — a killed worker process, an exception inside a task, an
expired deadline, a corrupted checkpoint file, a kill-and-resume cycle,
a pooled worker that must not be leased again —
and asserts recovery *invariants* instead of mere survival: the faulted
(or resumed) run must produce bit-identical results to the fault-free
baseline, degradation must be recorded (no vacuous green), retries must
stay bounded, and expected failures must surface with actionable
diagnostics.

Entry points: :func:`repro.chaos.scenarios.default_campaign` builds the
standard matrix over all four substrates,
:func:`repro.chaos.campaign.run_campaign` executes any scenario list and
exports its counters through :mod:`repro.obs.metrics`, and the
``repro-chaos`` CLI wraps both.
"""

from repro.chaos.campaign import CampaignReport, ScenarioOutcome, run_campaign
from repro.chaos.scenarios import KINDS, SUBSTRATES, Scenario, default_campaign

__all__ = [
    "Scenario",
    "KINDS",
    "SUBSTRATES",
    "default_campaign",
    "run_campaign",
    "CampaignReport",
    "ScenarioOutcome",
]
