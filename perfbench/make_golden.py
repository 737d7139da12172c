"""Regenerate golden.json, the expected outputs the benchmark checks against.

Run from the root of a checkout:

    python3 perfbench/make_golden.py

``cli`` holds what ``safeadapt simulate`` writes for the type2 and type3
corpus triples (trace SHA-256 and report fields). Regenerate only when a
change is meant to alter these outputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, CORPUS_DIR, OUT_DIR, ROOT, SRC_DIR


def cli_outputs(corpus: str) -> dict:
    trace = OUT_DIR / f"golden-{corpus}.csv"
    report_path = OUT_DIR / f"golden-{corpus}.json"
    subprocess.run(
        [sys.executable, "-m", "safeadapt.cli", "simulate",
         "--scenario", str(CORPUS_DIR / f"{corpus}_scenario.json"),
         "--system", str(CORPUS_DIR / f"{corpus}_system.json"),
         "--out", str(trace), "--report", str(report_path)],
        check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return {
        "trace_sha256": hashlib.sha256(trace.read_bytes()).hexdigest(),
        "hazard_count": report["hazard_count"],
        "guard_trips": report["guard_trips"],
        "decisions": len(report["decisions"]),
        "spi_breaches": report["spi_breaches"],
        "runtime_criteria": report["runtime_criteria"],
    }


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    golden = {"cli": {corpus: cli_outputs(corpus) for corpus in ("type2", "type3")}}
    with open(BENCH_DIR / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
