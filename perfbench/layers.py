"""Per-layer host-time tracing, installed from outside the simulator.

A :class:`LayerTracer` replaces selected methods of the simulator's
classes with timing wrappers *at class level*.  That is the only place a
wrapper can go: the hot classes use ``__slots__`` (no per-instance
override) and handlers are bound when they are pushed onto the event
queue, so the wrappers must be in place before the fabric is built.

Each wrapper keeps one parent-stack aggregate per layer -- calls and
self time -- instead of a span per call.  A layer's self time is the
duration of its calls minus the time covered by wrapped calls nested in
them, so the self times of all layers inside ``Simulator.run`` add up to
the traced run time exactly; whatever the simulator does outside a
wrapped method (the dispatch loop itself, ``Event`` callbacks) stays in
the ``sim`` layer, whose root span is ``Simulator.run``.

Self time is kept in two buckets: inside a ``Simulator.run`` call, and
outside one (set-up such as ``Fabric.send`` pumping the first window,
and post-run report calls).
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Tuple

# Layer name -> entry points, as (module, class, method).  A method is
# wrapped on every listed class that defines it itself, so an override in
# a subclass (ReferenceNIC, ValiantRouter) is timed as well.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str, str]]] = {
    "sim": [
        ("repro.sim.engine", "Simulator", "run"),
        ("repro.sim.engine", "Simulator", "push"),
        ("repro.sim.engine", "Simulator", "_refill"),
    ],
    "routing": [
        ("repro.core.adaptive_routing", cls, "route")
        for cls in ("AdaptiveRouter", "MinimalRouter", "ValiantRouter")
    ],
    "switch": [
        ("repro.network.switch", "Switch", "receive"),
        ("repro.network.switch", "Switch", "_forward"),
        ("repro.network.switch", "Switch", "_drop"),
    ],
    "port": [
        ("repro.network.switch", cls, name)
        for cls in ("OutputPort", "ReferenceOutputPort")
        for name in ("enqueue", "_on_sent", "_retry", "_arm_retry",
                     "_on_burst_done")
    ],
    "buffers": [
        ("repro.network.buffers", "VcBufferPool", "acquire"),
        ("repro.network.buffers", "VcBufferPool", "release"),
        ("repro.network.buffers", "VcBufferPool", "bulk_acquire_shared"),
    ],
    "nic": [("repro.network.fabric", "Fabric", "send")] + [
        ("repro.network.nic", cls, name)
        for cls in ("NIC", "ReferenceNIC")
        for name in ("submit", "receive", "on_ack", "_pump", "_pace_fire",
                     "_reinject", "_deliver_loopback")
    ],
    "cc": [
        ("repro.core.congestion_control", cls, "on_ack")
        for cls in ("SlingshotCC", "NoCC", "EcnCC")
    ],
    # MPI rank methods plus the process resumes that run rank code.
    "mpi": [
        ("repro.mpi.comm", "Rank", "isend"),
        ("repro.mpi.comm", "Rank", "put"),
        ("repro.mpi.comm", "Rank", "recv"),
        ("repro.mpi.comm", "MpiWorld", "_deliver"),
        ("repro.mpi.comm", "_Matcher", "deliver"),
        ("repro.mpi.comm", "_Matcher", "expect"),
        ("repro.sim.process", "Process", "_step"),
    ],
    "telemetry": [
        ("repro.telemetry.registry", "TelemetryRegistry", "snapshot"),
        ("repro.telemetry.instrument", "SwitchTelemetry", "rx"),
        ("repro.telemetry.instrument", "SwitchTelemetry", "dropped"),
    ] + [
        ("repro.telemetry.instrument", "PortTelemetry", name)
        for name in ("stall_begin", "stall_end", "enqueue", "arbitrated",
                     "marked", "wire_tx", "dropped")
    ] + [
        ("repro.telemetry.instrument", "NicTelemetry", name)
        for name in ("injected", "delivered", "acked")
    ] + [
        ("repro.telemetry.instrument", "RouterTelemetry", "routed"),
        ("repro.telemetry.instrument", "CcTelemetry", "acked"),
        ("repro.telemetry.instrument", "FaultTelemetry", "fault"),
    ],
    "observe": [
        ("repro.observe.timeseries", "TimeSeriesEngine", "_tick"),
        ("repro.observe.timeseries", "TimeSeriesEngine", "stop"),
        ("repro.observe", "FabricObserver", "attribution"),
        ("repro.observe", "FabricObserver", "forensics"),
    ],
    "faults": [
        ("repro.faults.injector", "FaultInjector", "_apply"),
        ("repro.faults.reliability", "EndToEndReliability", "on_inject"),
        ("repro.faults.reliability", "EndToEndReliability", "on_ack"),
        ("repro.faults.reliability", "EndToEndReliability", "on_deliver"),
        ("repro.faults.reliability", "EndToEndReliability", "_fire"),
    ],
}

class LayerTracer:
    """Class-level timing wrappers with parent-stack self-time aggregates.

    Use as a context manager: wrappers are installed on entry and the
    original methods restored on exit.  ``layers[name]`` is
    ``[calls, self_s_in_run, self_s_outside_run]`` and ``entry_calls``
    counts calls per wrapped ``Class.method``.
    """

    def __init__(self):
        self.layers: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in LAYER_ENTRY_POINTS
        }
        self.entry_calls: Dict[str, List[int]] = {}
        #: inclusive time of every root ``Simulator.run`` call
        self.run_s = 0.0
        self._saved: List[Tuple[type, str, object]] = []
        # child-time accumulators of the open spans; [0] is the sentinel
        self._stack: List[float] = [0.0]
        # 0 outside Simulator.run, 1 inside (selects the self-time bucket)
        self._in_run = [0]

    # -- wrapper factories ----------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        agg = self.layers[layer]
        count = self.entry_calls.setdefault(key, [0])
        stack = self._stack
        in_run = self._in_run
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                agg[0] += 1
                count[0] += 1
                # in_run is 0/1, so this picks the in-run or outside bucket
                agg[2 - in_run[0]] += dt - stack.pop()
                stack[-1] += dt

        return traced

    def _wrap_run(self, fn):
        """``Simulator.run``: a root span that switches the bucket."""
        inner = self._wrap(fn, "sim", "Simulator.run")
        in_run = self._in_run
        stack = self._stack
        tracer = self

        def traced_run(*args, **kwargs):
            outer = in_run[0]
            in_run[0] = 1
            before = stack[0]
            try:
                return inner(*args, **kwargs)
            finally:
                if not outer:
                    # the span's duration, exactly as the sentinel saw it
                    tracer.run_s += stack[0] - before
                in_run[0] = outer

        return traced_run

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, points in LAYER_ENTRY_POINTS.items():
            for module, cls_name, method in points:
                cls = getattr(importlib.import_module(module), cls_name)
                if method not in cls.__dict__:
                    continue  # inherited: the base class wrapper times it
                fn = cls.__dict__[method]
                key = f"{cls_name}.{method}"
                if cls_name == "Simulator" and method == "run":
                    wrapper = self._wrap_run(fn)
                else:
                    wrapper = self._wrap(fn, layer, key)
                self._saved.append((cls, method, fn))
                setattr(cls, method, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, fn in reversed(self._saved):
            setattr(cls, method, fn)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def calls(self, entry: str) -> int:
        """Calls of one wrapped entry point, named ``"Class.method"``."""
        return self.entry_calls.get(entry, [0])[0]

    def self_in_run(self) -> Dict[str, float]:
        return {name: agg[1] for name, agg in self.layers.items()}

    def self_outside_run(self) -> Dict[str, float]:
        return {name: agg[2] for name, agg in self.layers.items()}

    def unaccounted_frac(self) -> float:
        """Share of the traced run time not covered by layer self times
        (zero up to float rounding, by construction)."""
        if self.run_s <= 0.0:
            return 0.0
        return abs(self.run_s - sum(self.self_in_run().values())) / self.run_s
