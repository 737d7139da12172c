"""Every program binding the benchmark's layer tracer wraps must exist.

A refactor that drops one (say ``harness.plan_type2``) fails here in a
second rather than in a full traced benchmark run. The test installs the
tracer itself, so it checks the rule the benchmark enforces: a binding
counts only if its owner defines it, not if it inherits it. A binding
must also stay on the path the program calls, as the validity predicate's
`spi_breached` does, and every per-tick layer, and the validity evaluation
once per case revision, must record its calls in a traced run. The scenario lookups must record none: a run reads its inputs
through forward cursors.
"""
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from safeadapt import harness, spi
from safeadapt.assurance import evaluate_validity
from safeadapt.model import KnowledgeRepository, SystemConfiguration
from safeadapt.scenario import Trace
import corpus_files

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: Layers called once per tick by both managed narratives.
TICK_LAYERS = (
    "plant.plant_step", "plant.hazard_update", "plant.guard_step", "mapek.GoalTracker.observe",
)
#: Scenario lookups the tick no longer makes: its inputs come from forward cursors.
CURSOR_READ_LAYERS = ("scenario.Scenario.setpoint_at", "scenario.Trace.value_at")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LayerTracer()


def test_every_traced_binding_exists():
    tracer = _tracer()
    try:
        missing = tracer.install()
    finally:
        intact = tracer.restore()
    assert missing == []
    assert intact


def test_validity_predicate_calls_spi_breached_through_its_module(monkeypatch):
    # spans.py traces the predicate through the (spi, "spi_breached") binding.
    calls = []
    breached = spi.spi_breached
    monkeypatch.setattr(spi, "spi_breached", lambda w: calls.append(w) or breached(w))
    case = corpus_files.case("type3")
    window = spi.SpiWindow()
    repo = KnowledgeRepository(
        current_config=SystemConfiguration("pid", {}), safety_case=case, spi_windows=[window],
    )
    assert evaluate_validity(case, 0.0, repo) == frozenset()
    assert calls == [window]


@pytest.mark.parametrize("name, duration, per_tick, per_run", [
    # Validity is evaluated once a case revision; the first admission, at 300 s, makes the
    # second.
    ("type2", 310.0, {"controller.pid_compute": 1}, {"assurance.evaluate_validity": 2}),
    # One revision before the first assessment, whose suite would step the plant too. The
    # evaluation asks the SPI predicate, and so does the end-of-run verdict; `spi_update`
    # returns the breach, so nothing else calls `spi_breached`.
    ("type3", 120.0, {"controller.net_compute": 1, "spi.spi_update": 1},
     {"assurance.evaluate_validity": 1, "spi.spi_breached": 2}),
], ids=["type2", "type3"])
def test_traced_run_records_every_tick_layer(name, duration, per_tick, per_run):
    # A layer whose binding drops off the call path would read 0 here. Both inflows are
    # linear segments (type3's flat at its corpus 10 degC), inside which the loop skips no
    # tick, so each per-tick layer is called on every tick.
    scenario = replace(corpus_files.scenario(name), duration=duration)
    if name == "type3":
        scenario = replace(scenario, inflow_temp_trace=Trace(((0.0, 10.0), (duration, 10.0)),
                                                             "linear"))
    system = corpus_files.system(name)
    tracer = _tracer()
    assert tracer.install() == []
    try:
        _, report = harness.run_scenario(scenario, system)
    finally:
        assert tracer.restore()
    counts = dict(zip(tracer.span_names, tracer.counts_since(0)))
    ticks = scenario.ticks()
    expected = {name: ticks for name in TICK_LAYERS}
    expected.update((name, 0) for name in CURSOR_READ_LAYERS)
    expected.update((name, n * ticks) for name, n in per_tick.items())
    expected.update(per_run)
    assert {name: counts[name] for name in expected} == expected
    revisions = {e["revision"] for e in report.case_validity_timeline}
    assert len(revisions) == per_run["assurance.evaluate_validity"]
