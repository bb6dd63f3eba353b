"""Bit-identity checks: vectorized hot path vs reference loops.

Each test compares a vectorized kernel against the straightforward
nested-loop implementation it replaced (kept in ``conftest.py`` as the
executable specification).  Everything is compared with
``np.array_equal`` — the vectorization must be *exact*, not merely
close, so solver decisions cannot drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import naive_assembly, naive_price_chunks, naive_tree_predict
from repro.bench import perfharness
from repro.core.milp import HiGHSSolver, _assemble_constraints


@pytest.mark.parametrize("n_frag,n_work,seed", [
    (8, 8, 0), (64, 8, 0), (64, 8, 7), (16, 4, 3), (1, 1, 0),
])
def test_dense_assembly_bit_identical(n_frag, n_work, seed):
    problem = perfharness._random_problem(n_frag, n_work, seed=seed)
    c, a_ub, a_eq, b_eq, allowed, num_x = naive_assembly(problem)
    system = _assemble_constraints(problem)
    assert system.num_x == num_x
    assert np.array_equal(system.allowed, allowed)
    assert np.array_equal(system.c, c)
    assert np.array_equal(system.a_ub, a_ub)
    assert np.array_equal(system.a_eq, a_eq)
    assert np.array_equal(system.b_eq, b_eq)


def test_highs_objective_matches_naive_matrices(problem_64x8):
    """HiGHS on the vectorized assembly reproduces the naive matrices."""
    c, a_ub, a_eq, b_eq, allowed, num_x = naive_assembly(problem_64x8)
    integrality = np.ones(num_x + 1)
    integrality[-1] = 0.0
    reference = milp(
        c,
        constraints=[
            LinearConstraint(a_ub, -np.inf, np.zeros(a_ub.shape[0])),
            LinearConstraint(a_eq, b_eq, b_eq),
        ],
        integrality=integrality,
        bounds=Bounds(lb=0.0),
    )
    assert reference.success
    solution = HiGHSSolver().solve(problem_64x8)
    problem_64x8.validate_assignment(solution.assignment)
    scale = _assemble_constraints(problem_64x8).scale
    assert solution.objective == pytest.approx(
        reference.fun * scale, rel=1e-9
    )


def test_tree_predict_bit_identical():
    from repro.core.costmodel import DecisionTreeModel

    rng = np.random.default_rng(1)
    train = rng.uniform(0.0, 200.0, size=(512, 6))
    costs = np.exp(rng.normal(-20.0, 0.4, size=512))
    model = DecisionTreeModel()
    model.fit(train, costs)
    batch = rng.uniform(0.0, 200.0, size=(2048, 6))
    assert np.array_equal(model.predict(batch),
                          naive_tree_predict(model, batch))


def test_pricing_bit_identical():
    engine, plan, features, context, n_gpus = (
        perfharness._pricing_fixture()
    )
    vec = engine._price_chunks(plan, features, context, n_gpus)
    ref = naive_price_chunks(engine, plan, features, context, n_gpus)
    for got, want in zip(vec, ref):
        assert np.array_equal(got, want)


def test_pricing_empty_plan_is_zero():
    from repro.runtime.scheduler import IterationPlan

    engine, _plan, features, context, n_gpus = (
        perfharness._pricing_fixture()
    )
    empty = IterationPlan(chunks=[], active_workers=[0])
    busy, compute, comm = engine._price_chunks(
        empty, features, context, n_gpus
    )
    assert not busy.any() and not compute.any() and not comm.any()


# ----------------------------------------------------------------------
# ISSUE-4: decision amortization equivalence.
#
# ``amortize=False`` must reproduce pre-amortization virtual times bit
# for bit (the committed reference was recorded with ``--no-amortize``
# and its total matches the pre-amortization seed exactly);
# ``amortize=True`` must keep answers and iteration counts identical
# and land within tolerance on the virtual clock.
# ----------------------------------------------------------------------
import json

from conftest import PERF_DIR

REFERENCE_BFS_MANIFEST = (
    PERF_DIR.parent / "reference" / "tx-bfs-4gpu" / "manifest.json"
)


def test_amortize_disabled_bit_identical_to_reference(capsys):
    from repro.cli import main

    manifest = json.loads(REFERENCE_BFS_MANIFEST.read_text())
    assert manifest["fingerprint"]["workload"]["amortize"] is False
    code = main([
        "run", "--graph", "TX", "--algorithm", "bfs",
        "--engine", "gum", "--gpus", "4", "--cost-model", "oracle",
        "--no-amortize", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_ms"] == manifest["summary"]["total_ms"]
    assert payload["iterations"] == manifest["summary"]["iterations"]


def test_amortization_preserves_results_within_tolerance():
    from repro.core import GumConfig, GumEngine
    from repro.graph import road_network, with_random_weights
    from repro.hardware import dgx1
    from repro.partition import random_partition

    graph = with_random_weights(road_network(6, 80, seed=3), seed=1)
    partition = random_partition(graph, 8, seed=0)

    def run(config):
        return GumEngine(dgx1(8), config=config).run(
            graph, partition, "sssp", source=0
        )

    exact = run(GumConfig(cost_model="oracle", amortize=False))
    exact_again = run(GumConfig(cost_model="oracle", amortize=False))
    amortized = run(GumConfig(cost_model="oracle", amortize=True))

    # exact mode is deterministic down to the bit
    assert exact.total_seconds == exact_again.total_seconds
    # amortization never changes answers or the iteration structure
    assert np.array_equal(exact.values, amortized.values)
    assert exact.num_iterations == amortized.num_iterations
    # the virtual clock stays within tolerance of the exact path
    ratio = amortized.total_seconds / exact.total_seconds
    assert 0.85 <= ratio <= 1.15
