"""Host-time spans taken at the public call boundaries of each layer.

:class:`SpanTracer` wraps a layer's entry point by replacing the module
attribute its callers look up (``repro.train.step.lower_step`` and every
other module that imported the same function), so nothing under
``src/`` changes.  A span is ``(layer, start, end, parent, op)``; spans
stay in memory and are written out once, when the run ends.  A layer's
self time is its span's duration minus the durations of its child spans
(the code is single-threaded, so children nest strictly).

Per-event calls such as ``Simulator.run`` are never wrapped; events are
counted from the simulator a layer returns.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Span name of one whole op; its self time is benchmark glue.
OP_SPAN = "op"


def _count_lowered(tracer: "SpanTracer", result, args, kwargs) -> None:
    tracer.count("train.lower_step.ops", sum(len(p) for p in result.programs))
    schedule = args[0] if args else kwargs["schedule"]
    key = (schedule.name, schedule.shape)
    tracer.count("train.lower_step.repeats", key in tracer.lowered_this_op)
    tracer.lowered_this_op.add(key)


def _count_executed(tracer: "SpanTracer", result, args, kwargs) -> None:
    tracer.count("sim.events", len(result.sim.events))


def _count_injected(tracer: "SpanTracer", result, args, kwargs) -> None:
    tracer.count("faults.inject.ops_faulted", result[1].ops_faulted)


def _count_workload(tracer: "SpanTracer", result, args, kwargs) -> None:
    tracer.count("debug.workload.events", len(result.events))


def _count_run(tracer: "SpanTracer", result, args, kwargs) -> None:
    tracer.count("resilience.steps_attempted", result.counters["steps_attempted"])
    tracer.count("resilience.failures", len(result.failures))
    tracer.count("resilience.checkpoints", result.counters["checkpoints"])
    tracer.count("resilience.timeline_events", len(result.sim.events))


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    function: str
    #: ``(tracer, result, args, kwargs)`` -> None, run after the call.
    counter: Optional[Callable] = None


#: Every wrapped boundary, by layer name (see LAYERS.md for the map).
LAYERS = (
    Layer("train.simulate_step", "repro.train.step", "simulate_step"),
    Layer("pp.build_schedule", "repro.pp.schedule", "build_schedule"),
    Layer("train.lower_step", "repro.train.lowering", "lower_step", _count_lowered),
    Layer("train.execute_graph", "repro.train.executor", "execute_graph", _count_executed),
    Layer("train.summarize", "repro.train.executor", "summarize_pipeline_execution"),
    Layer("pp.track_memory", "repro.pp.grad_memory", "track_memory"),
    Layer("faults.inject", "repro.faults.inject", "apply_fault_plan", _count_injected),
    Layer("obs.comm_overlap", "repro.obs.metrics", "record_comm_overlap_metrics"),
    Layer("obs.sim_metrics", "repro.obs.metrics", "record_simulator_metrics"),
    Layer("analysis.diff", "repro.analysis.diff", "diff_traces"),
    Layer("analysis.critical_path", "repro.analysis.critical_path", "extract_critical_path"),
    Layer("faults.score_detection", "repro.faults.detect", "score_detection"),
    Layer("debug.workload", "repro.debug.workload", "run_synthetic_workload", _count_workload),
    Layer("debug.slow_rank", "repro.debug.trace_analysis", "identify_slow_rank"),
    Layer("resilience.localise", "repro.resilience.mitigation", "localise_gray_fault"),
    Layer("parallel.plan", "repro.parallel.planner", "plan_parallelism"),
    Layer("parallel.replan", "repro.parallel.planner", "replan_for_gpu_count"),
    Layer("resilience.run", "repro.resilience.run", "simulate_run", _count_run),
)


class SpanTracer:
    """Records spans at the :data:`LAYERS` boundaries during :meth:`run_op`.

    The wrappers replace each layer's function in every loaded ``repro``
    module and in the ``callers`` modules (the benchmark's own, which
    import the entry points by name).
    """

    def __init__(self, callers: tuple = ()) -> None:
        #: ``[layer, start, end, parent index or -1, op id]``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: int = -1
        #: Counter totals over the whole traced run.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Schedule structures lowered so far in the current op.
        self.lowered_this_op: set = set()
        #: ``(module, attribute, original, wrapper)`` for every reference.
        self._patches: List[tuple] = []
        for layer in LAYERS:
            original = getattr(importlib.import_module(layer.module), layer.function)
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro.") or name in callers:
                    self._patches.extend(
                        (module, attr, original, wrapper)
                        for attr, value in vars(module).items() if value is original)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer.name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if layer.counter is not None:
                layer.counter(self, result, args, kwargs)
            return result

        return traced

    def run_op(self, op_id: int, call: Callable[[], object]):
        """Run one op with every layer wrapped, under a root
        :data:`OP_SPAN` span; the program is unwrapped again afterwards."""
        self._op = op_id
        self.lowered_this_op = set()
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            return self._wrap(Layer(OP_SPAN, "", ""), call)()
        finally:
            for module, attr, original, _wrapper in self._patches:
                setattr(module, attr, original)
            self._op = -1

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per layer over the run."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def inclusive_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _o in self.spans if n == name)

    def write(self, path) -> None:
        """Write the spans as JSON lines: one ``[layer, start, end,
        parent, op]`` array per span, times in seconds."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span))
                f.write("\n")
