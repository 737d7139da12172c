"""Every program binding the benchmark's layer tracer wraps must exist.

A refactor that drops one (say ``harness.plan_type2``) fails here in a
second rather than in a full traced benchmark run. The test installs the
tracer itself, so it checks the rule the benchmark enforces: a binding
counts only if its owner defines it, not if it inherits it.
"""
import importlib.util
from pathlib import Path

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
