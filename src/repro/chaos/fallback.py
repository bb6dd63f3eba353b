"""Solver fallback chain under fault injection.

Wraps the configured FSteal backend so a solver timeout (injected by a
:class:`~repro.chaos.controller.ChaosController`) or a genuine
:class:`~repro.errors.SolverError` degrades to the next backend in
:data:`FALLBACK_CHAIN` instead of aborting the run.
:class:`~repro.errors.SolverError` is surfaced only when every backend
in the chain has failed.

The wrapper is only installed when a chaos controller is attached to
the run; fault-free runs keep calling the configured solver directly,
so their virtual times stay bit-identical.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.chaos.controller import ChaosController
from repro.core.milp import (
    FStealProblem,
    FStealSolution,
    FStealSolver,
    make_solver,
)
from repro.errors import SolverError

__all__ = ["FallbackSolver", "FALLBACK_CHAIN"]

#: Backends appended after the primary (skipping the primary itself):
#: a greedy primary falls back to HiGHS, any other primary ends in
#: greedy, which needs no LP machinery and cannot time out in practice.
FALLBACK_CHAIN = ("highs", "greedy")


class FallbackSolver(FStealSolver):
    """Try the primary backend, then each fallback, in order.

    A backend is skipped when the chaos controller injects a timeout
    for it (``solver_times_out``) or when its ``solve`` raises
    :class:`SolverError`. The first backend to return wins; its
    solution is passed through untouched, so the reported solver name
    identifies who actually solved the instance.
    """

    def __init__(
        self,
        primary: FStealSolver,
        controller: Optional[ChaosController] = None,
    ) -> None:
        self.name = primary.name
        self._controller = controller
        self._chain: List[FStealSolver] = [primary] + [
            make_solver(name) for name in FALLBACK_CHAIN
            if name != primary.name
        ]

    @property
    def chain(self) -> List[FStealSolver]:
        """The backends in fallback order (primary first)."""
        return list(self._chain)

    def solve(
        self,
        problem: FStealProblem,
        warm_start: Optional[np.ndarray] = None,
    ) -> FStealSolution:
        """Return the first backend's feasible solution."""
        failures: List[str] = []
        for position, backend in enumerate(self._chain):
            if (self._controller is not None
                    and self._controller.solver_times_out(backend.name)):
                failures.append(f"{backend.name}: injected timeout")
                if position + 1 < len(self._chain):
                    self._controller.note_solver_fallback()
                continue
            try:
                return backend.solve(problem, warm_start=warm_start)
            except SolverError as exc:
                failures.append(f"{backend.name}: {exc}")
                if (self._controller is not None
                        and position + 1 < len(self._chain)):
                    self._controller.note_solver_fallback()
        raise SolverError(
            "all solver backends failed: " + "; ".join(failures)
        )
