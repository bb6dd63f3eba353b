"""Per-layer self time, measured from outside the program.

The traced run patches the public callables of each layer (a class
method or a module-level function, as the engine looks it up) with a
wrapper that keeps a call stack. A layer's *self* time is its inclusive
time minus the time of wrapped calls nested inside it, so the self
times of one traced ``engine.run`` plus the engine's own remainder
(``bsp``) add up to the traced wall. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Tuple

#: root layer of a traced run: its self time is everything inside
#: ``engine.run`` that no wrapped callable covers (pricing arithmetic,
#: message-cost assembly, plan validation)
ROOT = "bsp"

#: layer -> enclosing layer whose span a call of it joins instead of
#: opening its own: the oracle cost model prices with
#: ``DeviceModel.true_edge_cost``, and that is a prediction, not pricing
FOLD_INTO = {"pricing": "costmodel.predict"}


class NullTracer:
    """Set-up without tracing: ``call`` is a plain call."""

    def call(self, layer, fn, *args, **kwargs):
        del layer
        return fn(*args, **kwargs)


class LayerTracer:
    """Self time, inclusive time and call count per layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def reset(self) -> None:
        """Forget every recorded time and count."""
        self.self_s.clear()
        self.inclusive_s.clear()
        self.calls.clear()

    def record(self, layer: str, seconds: float) -> None:
        """Add one call timed by the caller (e.g. ``import repro``)."""
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        self.inclusive_s[layer] = self.inclusive_s.get(layer, 0.0) + seconds
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def call(self, layer, fn, *args, **kwargs):
        """Run ``fn`` as one span of ``layer``.

        A call made while the same layer is already the innermost span
        (``edge_cost_seconds`` calling ``predict``) adds its self time
        but no call and no inclusive time, so neither is counted twice.
        A call of a layer in :data:`FOLD_INTO` made directly inside the
        layer it folds into opens no span: its time is that layer's.
        """
        stack = self._stack
        if stack and FOLD_INTO.get(layer) == stack[-1][0]:
            return fn(*args, **kwargs)
        reentrant = bool(stack) and stack[-1][0] == layer
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[layer] = (
                self.self_s.get(layer, 0.0) + elapsed - frame[1]
            )
            if stack:
                stack[-1][1] += elapsed
            if not reentrant:
                self.inclusive_s[layer] = (
                    self.inclusive_s.get(layer, 0.0) + elapsed
                )
                self.calls[layer] = self.calls.get(layer, 0) + 1

    def patch(self, owner, attr: str, layer: str) -> None:
        """Route ``owner.attr`` through :meth:`call` until :meth:`unpatch`.

        A missing attribute raises ``AttributeError`` here, so a renamed
        or moved callable stops the traced run instead of reading 0.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(layer, original, *args, **kwargs)

        self._patches.append(
            (owner, attr, vars(owner)[attr] if own else None, own)
        )
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def run_targets(config) -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every callable a run wraps.

    The cost-model and solver classes are the ones ``config`` resolves
    to, so the wrap follows the workload's configuration.
    """
    import repro.core.arbitrator as arbitrator
    import repro.runtime.bsp as bsp
    from repro.backend.serial import SerialBackend, SerialSession
    from repro.core.arbitrator import GumScheduler
    from repro.hardware.device import DeviceModel
    from repro.runtime.frontier import Frontier

    model_cls = type(config.resolve_cost_model())
    solver_cls = type(config.resolve_solver())
    return [
        (Frontier, "split_by_owner", "frontier.split"),
        (Frontier, "features", "features"),
        (GumScheduler, "plan", "decision.plan"),
        (GumScheduler, "observe", "decision.observe"),
        (arbitrator, "plan_osteal", "decision.osteal"),
        (solver_cls, "solve", "decision.fsteal_solve"),
        (model_cls, "edge_cost_seconds", "costmodel.predict"),
        (model_cls, "predict", "costmodel.predict"),
        (DeviceModel, "true_edge_cost", "pricing"),
        (SerialBackend, "open", "backend.open"),
        (SerialSession, "close", "backend.close"),
        (SerialSession, "message_count", "backend.message_count"),
        (SerialSession, "step", "backend.step"),
        (bsp, "emit_iteration", "obs.emit"),
    ]


def traced_run(tracer: LayerTracer, inputs):
    """One ``engine.run`` with every run layer wrapped; returns the result.

    The tracer is reset first, so afterwards it holds this run only.
    """
    tracer.reset()
    for owner, attr, layer in run_targets(inputs.config):
        tracer.patch(owner, attr, layer)
    try:
        return tracer.call(ROOT, inputs.run)
    finally:
        tracer.unpatch()


def metric_name(layer: str, suffix: str) -> str:
    """``graph.gen`` -> ``graph.gen_s``; ``pricing`` -> ``pricing.s``."""
    return f"{layer}_{suffix}" if "." in layer else f"{layer}.{suffix}"
