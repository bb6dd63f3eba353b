"""Deterministic fault injection for the simulated multi-GPU runtime.

Public surface:

* :class:`~repro.chaos.scenario.ChaosScenario` /
  :class:`~repro.chaos.scenario.FaultSpec` — the versioned JSON fault
  schedule (``repro-chaos/1``).
* :class:`~repro.chaos.controller.ChaosController` — replays a
  scenario against a run: kills workers, degrades links, injects
  solver timeouts and flaky transfers, all as pure functions of the
  scenario seed.
* :class:`~repro.chaos.fallback.FallbackSolver` — the
  primary -> HiGHS -> greedy degradation chain.

See ``docs/robustness.md`` for the fault model and
``examples/chaos_drill.py`` for an end-to-end walkthrough.
"""

from repro.chaos.controller import ChaosController, FaultEvent
from repro.chaos.fallback import FallbackSolver
from repro.chaos.scenario import (
    ChaosScenario,
    FAULT_KINDS,
    FaultSpec,
    SCHEMA_VERSION,
)

__all__ = [
    "ChaosScenario",
    "FaultSpec",
    "FaultEvent",
    "ChaosController",
    "FallbackSolver",
    "SCHEMA_VERSION",
    "FAULT_KINDS",
]
