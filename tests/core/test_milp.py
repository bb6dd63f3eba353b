"""Unit tests for the FSteal min-max solvers."""

import numpy as np
import pytest

from repro.core import SOLVERS, FStealProblem, make_solver
from repro.errors import SolverError

ALL_SOLVERS = sorted(SOLVERS)


def simple_problem(n=4, seed=0, forbid=0.0):
    rng = np.random.default_rng(seed)
    costs = 1e-9 * (0.5 + rng.random((n, n)) * 2)
    if forbid:
        mask = rng.random((n, n)) < forbid
        np.fill_diagonal(mask, False)  # keep the home always allowed
        costs[mask] = np.inf
    loads = rng.integers(0, 50_000, n)
    return FStealProblem(costs, loads)


# ----------------------------------------------------------------------
# Problem validation
# ----------------------------------------------------------------------
def test_problem_validation():
    with pytest.raises(SolverError, match="2-D"):
        FStealProblem(np.zeros(3), np.zeros(3, dtype=np.int64))
    with pytest.raises(SolverError, match="one entry"):
        FStealProblem(np.zeros((2, 2)), np.zeros(3, dtype=np.int64))
    with pytest.raises(SolverError, match="negative"):
        FStealProblem(np.ones((2, 2)), np.array([-1, 2]))
    with pytest.raises(SolverError, match="negative"):
        FStealProblem(np.full((2, 2), -1.0), np.array([1, 1]))


def test_fragment_with_no_worker_rejected():
    costs = np.full((2, 2), np.inf)
    costs[0, 0] = 1.0
    with pytest.raises(SolverError, match="no allowed worker"):
        FStealProblem(costs, np.array([1, 1]))


def test_objective_and_validate():
    costs = np.array([[1.0, 2.0], [3.0, 1.0]])
    problem = FStealProblem(costs, np.array([10, 10]))
    assignment = np.array([[10, 0], [0, 10]])
    problem.validate_assignment(assignment)
    assert problem.objective(assignment) == pytest.approx(10.0)
    with pytest.raises(SolverError, match="conserve"):
        problem.validate_assignment(np.array([[5, 0], [0, 10]]))
    with pytest.raises(SolverError, match="shape"):
        problem.validate_assignment(np.zeros((3, 3)))


def test_forbidden_assignment_rejected():
    costs = np.array([[1.0, np.inf], [1.0, 1.0]])
    problem = FStealProblem(costs, np.array([4, 4]))
    bad = np.array([[2, 2], [2, 2]])
    with pytest.raises(SolverError, match="forbidden"):
        problem.validate_assignment(bad)


# ----------------------------------------------------------------------
# Solver behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_solutions_feasible(name):
    solver = make_solver(name)
    for seed in range(4):
        problem = simple_problem(seed=seed, forbid=0.15)
        solution = solver.solve(problem)
        problem.validate_assignment(solution.assignment)
        assert solution.objective == pytest.approx(
            problem.objective(solution.assignment)
        )
        assert solution.solver == name


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_zero_workload(name):
    problem = FStealProblem(np.ones((3, 3)) * 1e-9,
                            np.zeros(3, dtype=np.int64))
    solution = make_solver(name).solve(problem)
    assert solution.objective == 0.0
    assert np.all(solution.assignment == 0)


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_stealing_beats_static_on_skewed_load(name):
    n = 4
    costs = np.full((n, n), 1.2e-9)
    np.fill_diagonal(costs, 1e-9)
    loads = np.array([80_000, 0, 0, 0])
    problem = FStealProblem(costs, loads)
    static = np.zeros((n, n), dtype=np.int64)
    static[0, 0] = 80_000
    solution = make_solver(name).solve(problem)
    assert solution.objective < 0.55 * problem.objective(static)


def test_heuristics_near_exact():
    exact = make_solver("highs")
    greedy = make_solver("greedy")
    worst = 1.0
    for seed in range(10):
        problem = simple_problem(n=8, seed=seed)
        ratio = (
            greedy.solve(problem).objective
            / max(exact.solve(problem).objective, 1e-30)
        )
        worst = max(worst, ratio)
    assert worst < 1.3


def test_highs_near_optimal_small_instance():
    costs = np.array([[1.0, 4.0], [4.0, 1.0]]) * 1e-9
    problem = FStealProblem(costs, np.array([100, 100]))
    solution = make_solver("highs").solve(problem)
    # optimum: everyone stays home -> 100 * 1e-9 per worker
    assert solution.objective == pytest.approx(1e-7, rel=1e-6)
    assert solution.assignment[0, 0] == 100
    assert solution.assignment[1, 1] == 100


def test_forbidden_columns_receive_nothing():
    costs = 1e-9 * np.ones((3, 3))
    costs[:, 2] = np.inf  # worker 2 evicted
    problem = FStealProblem(costs, np.array([900, 900, 900]))
    for name in ALL_SOLVERS:
        solution = make_solver(name).solve(problem)
        assert np.all(solution.assignment[:, 2] == 0)


def test_make_solver_unknown():
    for name in ("cplex", "lp", "bnb"):
        with pytest.raises(
            SolverError, match=r"unknown solver.*\['greedy', 'highs'\]"
        ):
            make_solver(name)


def test_tiny_cost_scale_does_not_degenerate():
    # nanosecond-scale coefficients must survive HiGHS tolerances
    rng = np.random.default_rng(3)
    costs = 1e-9 * (0.5 + rng.random((6, 6)))
    loads = rng.integers(1000, 60_000, 6)
    problem = FStealProblem(costs, loads)
    exact = make_solver("highs").solve(problem).objective
    greedy = make_solver("greedy").solve(problem).objective
    # both balance: objectives within 3x of the per-worker average bound
    lower = (costs.min() * loads.sum()) / 6
    assert lower < exact < 3 * lower
    assert lower < greedy < 3 * lower

