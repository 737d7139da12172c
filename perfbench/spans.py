"""Outside-in layer tracing for the benchmark's traced runs.

``LayerTracer`` replaces each layer's public function where the calling
module binds it (for example ``safeadapt.harness.evaluate_validity``)
with a wrapper that records one span per call. Nothing in the program
changes; ``restore`` puts every original binding back.

A span is (name, start, end, parent, op). Spans live in flat arrays
until ``write``; op ids are kept as index ranges and expanded there.
"""
from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

from safeadapt import harness, mapek, scenario, spi, taxonomy

#: Layer metric name -> the (owner, attribute) bindings through which
#: the program (or the benchmark) calls it.
LAYERS: dict[str, tuple[tuple[Any, str], ...]] = {
    "assurance.evaluate_validity": ((harness, "evaluate_validity"),),
    "assurance.adapt_case": ((mapek, "adapt_case"),),
    "controller.net_compute": ((harness, "net_compute"), (mapek, "net_compute")),
    "controller.pid_compute": ((harness, "pid_compute"),),
    "scenario.Trace.value_at": ((scenario.Trace, "value_at"),),
    "scenario.Scenario.setpoint_at": ((scenario.Scenario, "setpoint_at"),),
    "plant.plant_step": ((harness, "plant_step"), (mapek, "plant_step")),
    "plant.hazard_update": ((harness, "hazard_update"), (mapek, "hazard_update")),
    "plant.guard_step": ((harness, "guard_step"),),
    "mapek.GoalTracker.observe": ((mapek.GoalTracker, "observe"),),
    "spi.spi_update": ((harness, "spi_update"),),
    # The validity predicate imports spi_breached from its module per call.
    "spi.spi_breached": ((harness, "spi_breached"), (spi, "spi_breached")),
    "mapek.admission_test": ((mapek, "admission_test"),),
    "mapek.plan_type2": ((harness, "plan_type2"),),
    "mapek.propose_candidate": ((mapek, "propose_candidate"),),
    "mapek.assess_candidate": ((mapek, "assess_candidate"),),
    "mapek.fail_safe": ((harness, "fail_safe"),),
    "harness.run_scenario": ((harness, "run_scenario"),),
    "harness.emit_trace": ((harness, "emit_trace"),),
    "harness.load_system": ((harness, "load_system"),),
    "scenario.load_scenario": ((scenario, "load_scenario"),),
    "taxonomy.verdict_for": ((taxonomy, "verdict_for"),),
}

#: Layers whose results are classified as useful outcomes, with the
#: name of the ratio metric (useful outcomes over calls).
OUTCOMES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "mapek.admission_test": ("admit_ratio", lambda report: report.admit),
    "mapek.assess_candidate": ("pass_ratio", lambda outcome: outcome["verdict"] == "pass"),
}

#: Set-up layers are reported per set-up (load of scenario and system),
#: every other layer per operation.
SETUP_LAYERS = ("harness.load_system", "scenario.load_scenario")

OP_SPAN = "op"
SETUP_SPAN = "setup"


class LayerTracer:
    def __init__(self) -> None:
        self.span_names = [OP_SPAN, SETUP_SPAN, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.useful = {name: 0 for name in OUTCOMES}
        #: (span kind, first span index, end span index) per root span.
        self.roots: list[tuple[str, int, int]] = []
        self._stack = [-1]
        self._originals: list[tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every binding; returns the bindings the program no longer has.

        The caller fails the run on a missing binding: its layer would
        read 0 calls, and the trace would no longer cover it.
        """
        if self._originals:
            raise RuntimeError("tracer already installed")
        missing = []
        for name, bindings in LAYERS.items():
            for owner, attr in bindings:
                original = owner.__dict__.get(attr)
                if original is None:
                    missing.append(f"{owner.__name__}.{attr}")
                    continue
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return missing

    def restore(self) -> bool:
        """Put every original binding back; True if all are in place."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        intact = all(owner.__dict__[attr] is original for owner, attr, original in self._originals)
        self._originals.clear()
        return intact

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._ids[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        classify = OUTCOMES.get(name, (None, None))[1]
        useful = self.useful

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if classify is not None and classify(result):
                useful[name] += 1
            return result

        return traced

    # -- root spans -------------------------------------------------------

    def run_root(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside one root span (an operation or a set-up)."""
        index = len(self.names)
        self.names.append(self._ids[kind])
        self.parents.append(-1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
            self.roots.append((kind, index, len(self.names)))

    def counts_since(self, first: int) -> list[int]:
        """Calls per span name among spans recorded from index ``first``."""
        names = np.frombuffer(self.names, dtype=np.uint16)[first:]
        return np.bincount(names, minlength=len(self.span_names)).tolist()

    # -- results ----------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        n = len(self.names)
        op = np.full(n, -1, dtype=np.int32)
        for op_id, (_, first, end) in enumerate(self.roots):
            op[first:end] = op_id
        return {
            "name": np.frombuffer(self.names, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "op": op,
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, µs per call and self ms, per op (or per set-up).

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap on a single thread.
        """
        spans = self._arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - covered
        k = len(self.span_names)
        calls = np.bincount(spans["name"], minlength=k)
        total = np.bincount(spans["name"], weights=duration, minlength=k)
        self_total = np.bincount(spans["name"], weights=self_time, minlength=k)
        ops = sum(1 for kind, _, _ in self.roots if kind == OP_SPAN)
        setups = sum(1 for kind, _, _ in self.roots if kind == SETUP_SPAN)
        metrics: dict[str, float] = {}
        for name in LAYERS:
            i = self._ids[name]
            per = setups if name in SETUP_LAYERS else ops
            n = int(calls[i])
            metrics[f"{name}.calls"] = n / per if per else 0.0
            metrics[f"{name}.us_per_call"] = total[i] / n * 1e6 if n else 0.0
            metrics[f"{name}.self_ms_per_op"] = self_total[i] / per * 1e3 if per else 0.0
            if name in OUTCOMES:
                metrics[f"{name}.{OUTCOMES[name][0]}"] = self.useful[name] / n if n else 0.0
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as arrays (name ids index ``span_names``)."""
        np.savez(path, span_names=np.array(self.span_names), **self._arrays())
