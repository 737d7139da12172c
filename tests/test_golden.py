"""Byte-level pins on the four corpus narratives, run as ``safeadapt simulate`` runs them."""
import hashlib
import json
from pathlib import Path

import pytest

from safeadapt.harness import emit_trace, load_system, run_scenario
from safeadapt.scenario import load_scenario

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Narrative -> SHA-256 of (CSV trace, report JSON with sorted keys).
GOLDEN = {
    "type0": (
        "1001873b1ed7b67d34f610ac1180e515858201869f22d06f67a7044d7d9baec2",
        "689a0597d74df8aac942259e357789677420385b4a1506a3cabc7e2acd0a5fe2",
    ),
    "type1": (
        "0c4751e7fdd024e3a78b8395732c21410c03a6b2c60eee155e08af408fc037f3",
        "f9a2f666cabf83acc32f86936320deedbd42be0efc68f5ef52a63f9b46ecdc91",
    ),
    "type2": (
        "d81897981fc01c8afd9f470b3749c76412181d4ed5e1722ca8b4e9a61657a86b",
        "6f52ea7eb7323c08d0d4db72d9634d4c655e87e324e38b795f59f96a79acc8c0",
    ),
    "type3": (
        "2e2eeae41efe2d1d23affe870fc28e861c9b6fc234b21931c3c45b76e446bf75",
        "53adb87812415eacd36df5775196f1c4dbdd95191c5f51fae55ea5595468bad1",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_outputs_match_golden_hashes(name, tmp_path):
    rows, report = run_scenario(
        load_scenario(CORPUS_DIR / f"{name}_scenario.json"),
        load_system(CORPUS_DIR / f"{name}_system.json"),
    )
    trace = tmp_path / "trace.csv"
    emit_trace(rows, trace)
    report_json = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert (_sha256(trace.read_bytes()), _sha256(report_json)) == GOLDEN[name]
