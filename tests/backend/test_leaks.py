"""Lifecycle: no shared-memory blocks or workers survive any exit path.

``/dev/shm`` segments are a classic CI leak: a run that raises
mid-iteration must still unlink every block and reap every worker.
The engine closes its session in a ``finally``; these tests inject
failures on both the parallel-merge and serial-fallback paths and
assert the contract, plus the ``atexit``-backstop registry stays empty
after clean runs.
"""

import multiprocessing

import pytest

from repro.backend.shared import live_block_names
from repro.graph import datasets
from repro.hardware import dgx1
from repro.partition.partitioners import make_partition
from repro.runtime import BSPEngine

from tests.backend.helpers import FailingMergeBFS, FailingStepBFS


def no_backend_workers():
    return not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shmem-")
    ]


@pytest.fixture()
def workload():
    graph = datasets.load("TX")
    partition = make_partition("random", graph, 2, seed=0)
    return graph, partition


def run_failing(workload, algorithm, backend):
    graph, partition = workload
    from repro.runtime.bsp import EngineOptions

    engine = BSPEngine(dgx1(2), name="bsp",
                       options=EngineOptions(backend=backend))
    with pytest.raises(RuntimeError, match="injected"):
        engine.run(graph, partition, algorithm, source=0)


def test_midrun_exception_releases_blocks_and_workers(workload):
    run_failing(workload, FailingMergeBFS(fail_at_iteration=3), "shmem")
    assert live_block_names() == ()
    assert no_backend_workers()


def test_serial_fallback_exception_releases_blocks(workload):
    # failure on the coordinator's serial-fallback step path: the shmem
    # session has idle workers and shared blocks to reap regardless
    run_failing(workload, FailingStepBFS(fail_at_iteration=3), "shmem")
    assert live_block_names() == ()
    assert no_backend_workers()


def test_serial_backend_never_creates_blocks(workload):
    run_failing(workload, FailingStepBFS(fail_at_iteration=3), "serial")
    assert live_block_names() == ()


def test_session_close_is_idempotent(workload):
    graph, partition = workload
    from repro.algorithms import make_algorithm
    from repro.backend import make_backend
    from repro.runtime.scheduler import RunContext
    import numpy as np

    algorithm = make_algorithm("bfs")
    state = algorithm.init(graph, source=0)
    context = RunContext(
        graph=graph, partition=partition, timing=None,
        fragment_home=np.arange(2, dtype=np.int64),
        fragment_worker=np.arange(2, dtype=np.int64),
        algorithm_name="bfs",
    )
    session = make_backend("shmem").open(
        graph, partition, algorithm, state, context
    )
    assert live_block_names() != ()
    session.close(state)
    session.close(state)  # second close is a no-op
    assert live_block_names() == ()
    assert no_backend_workers()
    # values were copied out of the dying mapping and stay usable
    assert state.values[0] == 0.0


def test_killed_worker_fails_fast_and_releases_blocks(workload):
    """A worker killed mid-session surfaces as EngineError in ~1 s.

    The coordinator polls worker exit codes while it waits for results,
    so the error names the dead worker and its exit code instead of
    waiting out the task timeout.
    """
    import time

    import numpy as np

    from repro.algorithms import make_algorithm
    from repro.backend import make_backend
    from repro.errors import EngineError
    from repro.runtime.frontier import Frontier
    from repro.runtime.scheduler import RunContext

    graph, partition = workload
    algorithm = make_algorithm("bfs")
    state = algorithm.init(graph, source=0)
    context = RunContext(
        graph=graph, partition=partition, timing=None,
        fragment_home=np.arange(2, dtype=np.int64),
        fragment_worker=np.arange(2, dtype=np.int64),
        algorithm_name="bfs",
    )
    session = make_backend("shmem").open(
        graph, partition, algorithm, state, context
    )
    try:
        victim = next(
            p for p in multiprocessing.active_children()
            if p.name == "repro-shmem-1"
        )
        victim.kill()
        victim.join(timeout=5.0)
        # every fragment gets a task, so the dead worker owes a result
        frontier = Frontier.full(graph.num_vertices)
        session.begin_iteration(
            1, frontier.split_by_owner(partition.owner, 2), context
        )
        started = time.perf_counter()
        with pytest.raises(
            EngineError, match=r"worker 1 exited with code -9 \(SIGKILL\)"
        ):
            session.message_count(1, frontier, True, context)
        assert time.perf_counter() - started < 2.5
    finally:
        session.close(state)
    assert live_block_names() == ()
    assert no_backend_workers()
