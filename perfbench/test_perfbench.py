"""Checks on the benchmark itself (not collected by the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import (
    algorithm_params,
    cached_partition,
    make_engine,
    prepare_graph,
)
from repro.core import GumConfig

import layers
import workloads
from workloads import DEFAULT_SEED, HOLDOUT_SEED, NUM_GPUS, WORKLOADS

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_reproduces_repo_inputs(name):
    workload = WORKLOADS[name]
    inputs = workloads.build(workload, DEFAULT_SEED, layers.NullTracer())
    assert inputs.graph is prepare_graph(workload.abbr, workload.algorithm)
    assert inputs.params == algorithm_params(workload.algorithm, workload.abbr)

    assert np.array_equal(
        inputs.partition.owner, cached_partition(inputs.graph, NUM_GPUS).owner
    )
    holdout = workloads.make_partition(
        workloads.PARTITIONER, inputs.graph, NUM_GPUS, seed=HOLDOUT_SEED
    )
    assert not np.array_equal(holdout.owner, inputs.partition.owner)


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_matches_direct_engine_run(name):
    """Same virtual time, bit for bit, as the repository's own cell."""
    workload = WORKLOADS[name]
    inputs = workloads.build(workload, DEFAULT_SEED, layers.NullTracer())
    ours = inputs.run()
    graph = prepare_graph(workload.abbr, workload.algorithm)
    direct = make_engine(
        "gum", NUM_GPUS, gum_config=GumConfig(cost_model=workload.cost_model)
    ).run(
        graph, cached_partition(graph, NUM_GPUS), workload.algorithm,
        **algorithm_params(workload.algorithm, workload.abbr),
    )
    assert ours.total_ms == direct.total_ms
    expected = workloads.reference(workload, inputs)
    assert workloads.output_matches(workload, ours.values, expected)


def test_output_check_rejects_wrong_answers():
    exact = WORKLOADS["road-longtail"]
    pr = WORKLOADS["social-dense"]
    expected = np.array([0.0, 1.0, 2.0, np.inf])
    assert workloads.output_matches(exact, expected.copy(), expected)
    wrong = expected.copy()
    wrong[2] = 3.0
    assert not workloads.output_matches(exact, wrong, expected)
    assert not workloads.output_matches(exact, expected[:3], expected)
    ranks = np.full(4, 0.25)
    assert workloads.output_matches(pr, ranks + 1e-15, ranks)
    assert not workloads.output_matches(pr, ranks + 1e-6, ranks)


def test_every_wrapped_layer_is_expected_on_some_workload():
    wrapped = {layer for __, __, layer in
               layers.run_targets(GumConfig(cost_model="oracle"))}
    expected = set().union(*(w.layers for w in WORKLOADS.values()))
    assert expected == wrapped


class _Base:
    def inherited(self):
        return "base"


class _Toy(_Base):
    def outer(self, depth):
        return self.inner(depth)

    def inner(self, depth):
        return self.inner(depth - 1) if depth else "done"


def test_self_times_add_up_and_patches_are_undone():
    tracer = layers.LayerTracer()
    tracer.patch(_Toy, "outer", "outer")
    tracer.patch(_Toy, "inner", "inner")
    tracer.patch(_Toy, "inherited", "inherited")
    toy = _Toy()
    assert tracer.call(layers.ROOT, lambda: (toy.outer(3), toy.inherited()))
    tracer.unpatch()

    # the recursive inner calls are one call of one layer
    assert tracer.calls == {"outer": 1, "inner": 1, "inherited": 1,
                            layers.ROOT: 1}
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.inclusive_s[layers.ROOT], abs=1e-12)
    assert "inherited" not in vars(_Toy)
    assert _Toy.inner.__qualname__ == "_Toy.inner"
    with pytest.raises(AttributeError):
        tracer.patch(_Toy, "renamed", "gone")


def test_folded_layer_joins_the_enclosing_span(monkeypatch):
    monkeypatch.setattr(layers, "FOLD_INTO", {"inner": "outer"})
    tracer = layers.LayerTracer()
    tracer.patch(_Toy, "outer", "outer")
    tracer.patch(_Toy, "inner", "inner")
    toy = _Toy()
    tracer.call(layers.ROOT, lambda: (toy.outer(2), toy.inner(1)))
    tracer.unpatch()

    # inner inside outer is outer's time; called on its own it is a span
    assert tracer.calls == {"outer": 1, "inner": 1, layers.ROOT: 1}
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.inclusive_s[layers.ROOT], abs=1e-12)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", "social-dense", "--seed", str(HOLDOUT_SEED),
         "--seconds", "0.5", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=root, timeout=170,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in section}
