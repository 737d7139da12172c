"""Run every workload on several seeds and summarise the runs as JSON.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each workload runs once per seed untraced and once traced (on the first
seed), one run at a time. For each end-to-end metric the summary gives
the median and quartiles over seeds and the spread: the distance between
the quartiles as a share of the median. Quartiles are those of
``statistics.quantiles(values, n=4)``.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - start
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def context() -> dict:
    import numpy

    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src" / "safeadapt").glob("*.py")
    )
    return {
        "date": datetime.date.today().isoformat(),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    summary = {
        "context": {**context(), "run_seconds": args.seconds, "seeds": seeds},
        "end_to_end": {},
        "per_layer": {},
        "runs": {},
    }
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        summary["end_to_end"][workload] = {
            m["name"]: {"unit": m["unit"], "bound": m["bound"],
                        **summarise([r["metrics"][m["name"]] for r in runs])}
            for m in BENCH["end_to_end"]
        }
        traced = run(workload, seeds[0], args.seconds, 1)
        summary["per_layer"][workload] = traced["metrics"]
        summary["runs"][workload] = runs + [traced]
        for name, stats in summary["end_to_end"][workload].items():
            print(f"{workload:13s} {name:12s} median {stats['median']:.6g} {stats['unit']} "
                  f"spread {stats['spread']:.3f} (bound {stats['bound']})", flush=True)
        print(f"{workload:13s} all correct: "
              f"{all(r['correct'] and not r['failed'] for r in runs + [traced])}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
