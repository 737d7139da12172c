"""Every program binding the benchmark's layer tracer wraps must exist.

A refactor that drops one (say ``harness.plan_type2``) fails here in a
second rather than in a full traced benchmark run. The test installs the
tracer itself, so it checks the rule the benchmark enforces: a binding
counts only if its owner defines it, not if it inherits it. A binding
must also stay on the path the program calls, as the validity predicate's
`spi_breached` does.
"""
import importlib.util
from pathlib import Path

from safeadapt import corpus, spi
from safeadapt.assurance import evaluate_validity
from safeadapt.model import KnowledgeRepository, SystemConfiguration

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.LayerTracer()
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
    case = corpus.type3_case()
    window = spi.SpiWindow()
    repo = KnowledgeRepository(
        current_config=SystemConfiguration("pid", {}), safety_case=case, spi_windows=[window],
    )
    assert evaluate_validity(case, 0.0, repo)["valid"]
    assert calls == [window]
