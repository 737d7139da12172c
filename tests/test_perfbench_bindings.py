"""Every program binding the benchmark's layer tracer wraps must exist.

A refactor that drops one (say ``harness.plan_type2``) fails here in a
second rather than in a full traced benchmark run.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}: {owner.__name__}.{attr}"
        for layer, bindings in spans.LAYERS.items()
        for owner, attr in bindings
        if not hasattr(owner, attr)
    ]
    assert missing == []
