"""Unit tests for the solver fallback chain."""

import numpy as np
import pytest

from repro.chaos import ChaosController, ChaosScenario, FallbackSolver, FaultSpec
from repro.core import FStealProblem, make_solver
from repro.errors import ReproError, SolverError
from repro.hardware import dgx1


def problem(n=4, seed=0):
    rng = np.random.default_rng(seed)
    costs = 1e-9 * (0.5 + rng.random((n, n)) * 2)
    loads = rng.integers(0, 50_000, n)
    return FStealProblem(costs, loads)


def controller_with_tokens(count, solver=None):
    controller = ChaosController(ChaosScenario(faults=(
        FaultSpec("solver_timeout", 0,
                  {"count": count, "solver": solver}),
    )))
    controller.begin_run(dgx1(4))
    controller.advance(0)
    return controller


class ExplodingSolver:
    """A backend whose every solve raises SolverError."""

    name = "exploding"

    def solve(self, problem, warm_start=None):
        raise SolverError("synthetic backend failure")


# ----------------------------------------------------------------------
# Chain construction
# ----------------------------------------------------------------------
def test_chain_skips_the_duplicate_backend():
    fallback = FallbackSolver(make_solver("highs"))
    assert [s.name for s in fallback.chain] == ["highs", "greedy"]
    assert fallback.name == "highs"  # reports as the primary
    greedy_first = FallbackSolver(make_solver("greedy"))
    assert [s.name for s in greedy_first.chain] == ["greedy", "highs"]


def test_chain_appends_both_fallbacks_for_other_primaries():
    fallback = FallbackSolver(ExplodingSolver())
    assert [s.name for s in fallback.chain] == [
        "exploding", "highs", "greedy",
    ]


# ----------------------------------------------------------------------
# Solve behavior
# ----------------------------------------------------------------------
def test_without_faults_primary_answers():
    prob = problem()
    direct = make_solver("greedy").solve(prob)
    wrapped = FallbackSolver(make_solver("greedy")).solve(prob)
    assert wrapped.solver == direct.solver
    assert wrapped.objective == direct.objective
    assert np.array_equal(wrapped.assignment, direct.assignment)


def test_injected_timeout_falls_through_to_the_next_backend():
    controller = controller_with_tokens(1, solver="highs")
    fallback = FallbackSolver(make_solver("highs"), controller)
    solution = fallback.solve(problem())
    assert solution.solver == "greedy"
    prob = problem()
    prob.validate_assignment(fallback.solve(prob).assignment)
    stats = controller.stats()
    assert stats["solver_timeouts"] == 1
    assert stats["solver_fallbacks"] >= 1


def test_genuine_solver_error_also_degrades():
    controller = ChaosController()
    controller.begin_run(dgx1(4))
    fallback = FallbackSolver(ExplodingSolver(), controller)
    assert [s.name for s in fallback.chain] == ["exploding", "highs",
                                                "greedy"]
    solution = fallback.solve(problem())
    assert solution.solver == "highs"
    assert controller.stats()["solver_fallbacks"] == 1
    assert controller.stats()["solver_timeouts"] == 0


def test_exhausted_chain_raises_solver_error():
    # a wildcard token bucket deep enough to kill every backend
    controller = controller_with_tokens(5, solver=None)
    fallback = FallbackSolver(make_solver("highs"), controller)
    with pytest.raises(SolverError, match="all solver backends failed"):
        fallback.solve(problem())
    # still catchable at the API boundary
    controller = controller_with_tokens(5, solver=None)
    with pytest.raises(ReproError):
        FallbackSolver(make_solver("highs"), controller).solve(problem())


def test_error_message_names_every_failed_backend():
    controller = controller_with_tokens(5, solver=None)
    fallback = FallbackSolver(make_solver("highs"), controller)
    with pytest.raises(SolverError, match="highs.*greedy"):
        fallback.solve(problem())
