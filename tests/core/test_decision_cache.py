"""Decision-amortization layer: fingerprints, cache, warm starts.

The invariant everything here protects: amortization may only change
*when* a solver runs, never *whether the plan is feasible*. Cached
plans are repaired and re-validated against the live problem; warm
starts are advisory seeds; a stale entry degrades to a miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GumConfig, GumEngine
from repro.core.decision_cache import (
    LruDict,
    PlanCache,
    plan_fingerprint,
    quantize,
    repair_assignment,
)
from repro.core.milp import SOLVERS, FStealProblem, make_solver
from repro.errors import SolverError
from repro.hardware import dgx1
from repro.partition import random_partition, segmented_partition


def _problem(n_frag=4, n_work=4, seed=0, forbid=()):
    rng = np.random.default_rng(seed)
    costs = rng.uniform(1e-6, 3e-6, size=(n_frag, n_work))
    for (i, j) in forbid:
        costs[i, j] = np.inf
    workloads = rng.integers(50, 500, size=n_frag)
    return FStealProblem(costs, workloads)


# ----------------------------------------------------------------------
# quantize: log buckets, sentinels, exact mode
# ----------------------------------------------------------------------
def test_quantize_tolerant_to_small_drift():
    # values at bucket centers ((1+tol)^k) tolerate sub-tol/2 drift
    base = 1.05 ** np.array([10.0, 20.0, 40.0])
    drifted = base * 1.01
    assert quantize(base, 0.05) == quantize(drifted, 0.05)


def test_quantize_separates_large_drift():
    base = np.array([100.0, 200.0, 400.0])
    moved = base * 1.5
    assert quantize(base, 0.05) != quantize(moved, 0.05)


def test_quantize_zero_and_inf_sentinels():
    a = quantize(np.array([0.0, 1.0]), 0.05)
    b = quantize(np.array([np.inf, 1.0]), 0.05)
    c = quantize(np.array([1e-300, 1.0]), 0.05)
    assert a != b
    assert a != c  # a tiny positive value is not "zero"


def test_quantize_exact_mode_is_bit_pattern():
    base = np.array([100.0, 200.0])
    assert quantize(base, 0.0) == base.tobytes()
    assert quantize(base, 0.0) != quantize(base * (1 + 1e-12), 0.0)


# ----------------------------------------------------------------------
# plan_fingerprint: key structure
# ----------------------------------------------------------------------
def test_fingerprint_derives_active_set_from_finite_columns():
    problem = _problem(forbid=[(0, 3), (1, 3), (2, 3), (3, 3)])
    key = plan_fingerprint(problem.costs, problem.workloads, 0.05)
    assert key[0] == (4, 4)
    assert key[1] == (0, 1, 2)  # column 3 is fully forbidden


def test_fingerprint_explicit_active_overrides():
    problem = _problem()
    key = plan_fingerprint(
        problem.costs, problem.workloads, 0.05, active=[0, 2]
    )
    assert key[1] == (0, 2)


def test_fingerprint_changes_on_cost_coefficient_change():
    """A mid-run cost-model change can never reuse stale plans."""
    problem = _problem()
    before = plan_fingerprint(problem.costs, problem.workloads, 0.05)
    after = plan_fingerprint(
        problem.costs * 2.0, problem.workloads, 0.05
    )
    assert before != after


def test_fingerprint_changes_when_active_set_shrinks():
    """OSteal evicting a worker (inf column) changes the key."""
    problem = _problem()
    wide = plan_fingerprint(problem.costs, problem.workloads, 0.05)
    evicted = problem.costs.copy()
    evicted[:, 3] = np.inf
    narrow = plan_fingerprint(evicted, problem.workloads, 0.05)
    assert wide != narrow


# ----------------------------------------------------------------------
# LruDict
# ----------------------------------------------------------------------
def test_lru_dict_bounds_and_evicts_stalest():
    lru = LruDict(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.get("a")  # refresh recency: "b" is now stalest
    lru.put("c", 3)
    assert "a" in lru and "c" in lru and "b" not in lru
    assert lru.evictions == 1
    assert len(lru) == 2


def test_lru_dict_get_or_create():
    lru = LruDict(4)
    made = lru.get_or_create("k", dict)
    assert lru.get_or_create("k", dict) is made


def test_lru_dict_rejects_nonpositive_capacity():
    with pytest.raises(SolverError, match="max_entries"):
        LruDict(0)


# ----------------------------------------------------------------------
# repair_assignment
# ----------------------------------------------------------------------
def test_repair_identity_when_row_sums_match():
    problem = _problem()
    solution = make_solver("greedy").solve(problem)
    repaired = repair_assignment(solution.assignment, problem)
    assert np.array_equal(repaired, solution.assignment)


def test_repair_rescales_to_new_workloads():
    problem = _problem()
    solution = make_solver("greedy").solve(problem)
    grown = FStealProblem(problem.costs, problem.workloads * 2 + 7)
    repaired = repair_assignment(solution.assignment, grown)
    grown.validate_assignment(repaired)  # conserves the new l_i exactly


def test_repair_pulls_work_off_forbidden_workers():
    problem = _problem()
    solution = make_solver("greedy").solve(problem)
    evicted_costs = problem.costs.copy()
    evicted_costs[:, solution.assignment.sum(axis=0).argmax()] = np.inf
    evicted = FStealProblem(evicted_costs, problem.workloads)
    repaired = repair_assignment(solution.assignment, evicted)
    evicted.validate_assignment(repaired)


def test_repair_seeds_previously_empty_rows():
    problem = _problem()
    stale = np.zeros_like(problem.costs, dtype=np.int64)
    repaired = repair_assignment(stale, problem)
    problem.validate_assignment(repaired)


def test_repair_refuses_shape_mismatch_and_negatives():
    problem = _problem(n_frag=4, n_work=4)
    assert repair_assignment(np.zeros((2, 2), dtype=np.int64),
                             problem) is None
    bad = np.zeros((4, 4), dtype=np.int64)
    bad[0, 0] = -1
    assert repair_assignment(bad, problem) is None


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------
def test_plan_cache_miss_store_hit_roundtrip():
    cache = PlanCache(max_entries=8, tolerance=0.05)
    problem = _problem()
    key = cache.fingerprint(problem.costs, problem.workloads)
    assert cache.fetch(key, problem) is None
    solution = make_solver("greedy").solve(problem)
    cache.store(key, solution.assignment)
    fetched = cache.fetch(key, problem)
    assert np.array_equal(fetched, solution.assignment)
    assert cache.stats() == {
        "hits": 1, "misses": 1, "invalidations": 0,
        "evictions": 0, "entries": 1,
    }


def test_plan_cache_hit_repairs_within_tolerance_drift():
    cache = PlanCache(max_entries=8, tolerance=0.05)
    rng = np.random.default_rng(0)
    # workloads at quantization-bucket centers: a 0.2% drift stays put
    workloads = np.round(1.05 ** np.array([220.0, 222.0, 224.0, 226.0]))
    problem = FStealProblem(
        rng.uniform(1e-6, 3e-6, size=(4, 4)),
        workloads.astype(np.int64),
    )
    key = cache.fingerprint(problem.costs, problem.workloads)
    cache.store(key, make_solver("greedy").solve(problem).assignment)
    # the workload vector drifts but stays inside the same buckets
    drifted = FStealProblem(
        problem.costs,
        np.maximum(1, (problem.workloads * 1.002).astype(np.int64)),
    )
    drifted_key = cache.fingerprint(drifted.costs, drifted.workloads)
    assert drifted_key == key
    fetched = cache.fetch(drifted_key, drifted)
    drifted.validate_assignment(fetched)


def test_plan_cache_invalidates_unrepairable_entry():
    """A shrunk cost matrix (post-eviction) reads as a miss, not a plan."""
    cache = PlanCache(max_entries=8, tolerance=0.05)
    wide = _problem(n_frag=4, n_work=8, seed=1)
    narrow = _problem(n_frag=4, n_work=4, seed=1)
    key = cache.fingerprint(narrow.costs, narrow.workloads)
    cache.store(key, make_solver("greedy").solve(wide).assignment)
    assert cache.fetch(key, narrow) is None
    stats = cache.stats()
    assert stats["invalidations"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 0  # the stale entry was dropped


def test_plan_cache_lru_bound_evicts():
    cache = PlanCache(max_entries=2, tolerance=0.05)
    problems = [_problem(seed=s) for s in range(3)]
    for problem in problems:
        key = cache.fingerprint(problem.costs, problem.workloads)
        cache.store(key, make_solver("greedy").solve(problem).assignment)
    assert cache.stats()["evictions"] == 1
    oldest = cache.fingerprint(problems[0].costs, problems[0].workloads)
    assert cache.fetch(oldest, problems[0]) is None


# ----------------------------------------------------------------------
# Warm-started solvers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_warm_start_never_degrades_solution(name):
    problem = _problem(n_frag=8, n_work=4, seed=3)
    solver = make_solver(name)
    cold = solver.solve(problem)
    warm = solver.solve(problem, warm_start=cold.assignment)
    problem.validate_assignment(warm.assignment)
    assert warm.objective <= cold.objective + 1e-15


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_infeasible_warm_start_is_ignored(name):
    problem = _problem(n_frag=8, n_work=4, seed=3)
    solver = make_solver(name)
    cold = solver.solve(problem)
    junk = np.full_like(cold.assignment, 10**6)
    warm = solver.solve(problem, warm_start=junk)
    assert warm.objective == cold.objective
    assert not warm.warm_started


def test_greedy_adopts_warm_start_only_on_strict_improvement():
    problem = _problem(n_frag=8, n_work=4, seed=3)
    solver = make_solver("greedy")
    cold = solver.solve(problem)
    # re-seeding with its own answer cannot strictly improve it
    again = solver.solve(problem, warm_start=cold.assignment)
    assert not again.warm_started
    assert again.objective == cold.objective


# ----------------------------------------------------------------------
# Scheduler integration: the edge cases the cache must survive
# ----------------------------------------------------------------------
def _run(graph, algorithm, config, gpus=8, **params):
    partition = random_partition(graph, gpus, seed=0)
    return GumEngine(dgx1(gpus), config=config).run(
        graph, partition, algorithm, **params
    )


def test_amortized_run_matches_exact_run(road_graph):
    """Long-tail regime: OSteal folds the group, evicting workers —
    the cache sees the active set shrink and must stay feasible."""
    from repro.graph import with_random_weights

    weighted = with_random_weights(road_graph, seed=1)
    exact = _run(weighted, "sssp",
                 GumConfig(cost_model="oracle", amortize=False), source=0)
    amortized = _run(weighted, "sssp",
                     GumConfig(cost_model="oracle", amortize=True),
                     source=0)
    assert np.array_equal(exact.values, amortized.values)
    assert exact.num_iterations == amortized.num_iterations
    assert min(amortized.group_size_series()) < 8  # OSteal did evict
    stats = amortized.decision_stats
    assert stats["amortize"] is True
    assert stats["misses"] > 0  # cold starts happened
    assert not exact.decision_stats.get("amortize", False)


def test_decision_stats_surface_cache_activity(skewed_weighted, source):
    partition = segmented_partition(skewed_weighted, 8)
    result = GumEngine(
        dgx1(8), config=GumConfig(cost_model="oracle")
    ).run(skewed_weighted, partition, "sssp", source=source)
    stats = result.decision_stats
    for key in ("hits", "misses", "invalidations", "evictions",
                "warm_accepts", "osteal_z_reused",
                "osteal_z_evaluated", "osteal_invalidations"):
        assert key in stats
    assert stats["hits"] + stats["misses"] >= 0


def test_zero_iteration_run_reports_empty_stats(tiny_graph):
    result = _run(tiny_graph, "bfs",
                  GumConfig(cost_model="oracle"), gpus=2, source=0)
    zero = GumEngine(
        dgx1(2), config=GumConfig(cost_model="oracle")
    ).run(tiny_graph, random_partition(tiny_graph, 2, seed=0), "bfs",
          max_iterations=0, source=0)
    assert not zero.converged
    assert zero.num_iterations == 0
    stats = zero.decision_stats
    assert stats["amortize"] is True
    assert stats["hits"] == 0 and stats["misses"] == 0
    assert result.num_iterations > 0  # sanity: the graph does run


def test_exact_mode_reports_disabled_stats(tiny_graph):
    result = _run(tiny_graph, "bfs",
                  GumConfig(cost_model="oracle", amortize=False),
                  gpus=2, source=0)
    stats = result.decision_stats
    assert stats["amortize"] is False
    assert stats["hits"] == 0 and stats["warm_accepts"] == 0


# ----------------------------------------------------------------------
# Property: amortized plans are feasible and near the exact optimum
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_frag=st.integers(2, 6),
    n_work=st.integers(2, 4),
    drift=st.floats(0.9, 1.1),
)
def test_cached_and_warm_plans_feasible_near_optimal(
    seed, n_frag, n_work, drift
):
    """Repaired cached plans and warm-started solves stay feasible and
    within 1.5x of the cold HiGHS optimum under workload drift."""
    rng = np.random.default_rng(seed)
    costs = rng.uniform(1e-6, 2e-6, size=(n_frag, n_work))
    workloads = rng.integers(1, 1000, size=n_frag)
    problem = FStealProblem(costs, workloads)
    greedy = make_solver("greedy")
    cached = greedy.solve(problem).assignment

    drifted = FStealProblem(
        costs, np.maximum(1, (workloads * drift).astype(np.int64))
    )
    optimum = make_solver("highs").solve(drifted).objective

    repaired = repair_assignment(cached, drifted)
    drifted.validate_assignment(repaired)  # always feasible
    assert drifted.objective(repaired) <= 1.5 * optimum + 1e-12

    warm = greedy.solve(drifted, warm_start=cached)
    drifted.validate_assignment(warm.assignment)
    assert warm.objective <= 1.5 * optimum + 1e-12
