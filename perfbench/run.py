"""safeadapt benchmark: host time per simulated tick of managed runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload managed-net --seed 0 --seconds 30 --trace 0

One process, one thread, a closed loop with one client: each operation
starts when the previous one has been checked. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced and traced copies of the
same work and reports per-layer metrics (see ``spans.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Workloads (inputs come from ``workloads.py`` and the seed only):

- ``managed-pid``: the Type II cold-climate narrative, one operation being
  ``run_scenario`` plus ``emit_trace`` over 36,000 ticks.
- ``managed-net``: the Type III narrative, same operation.

Every operation's output is checked: against ``golden.json`` (the corpus
CLI outputs) for the default seed, and otherwise for determinism and the
run-time invariants. A mismatch or an exception counts as a failed
operation.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"
SRC_DIR = ROOT / "src"
CORPUS_DIR = ROOT / "corpus"

#: Set-up repetitions per burst; bursts recur through the timed loop so
#: that ``setup_s`` samples the whole run.
SETUP_REPS = 5
#: Seconds between set-up bursts.
SETUP_INTERVAL = 1.0
#: Percentile of a run's piece-speed samples taken as the host's fast speed.
FAST_PERCENTILE = 0.5


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class ManagedWorkload:
    """One corpus-style narrative run through ``safeadapt simulate``'s calls."""

    def __init__(self, name: str, corpus: str, generate: Callable[[int], dict], seed: int,
                 golden: dict[str, Any]):
        self.name = name
        self.corpus = corpus
        self.system_path = CORPUS_DIR / f"{corpus}_system.json"
        self.scenario_path = workloads.write_scenario(
            generate(seed), OUT_DIR / f"{name}-seed{seed}-scenario.json"
        )
        self.trace_path = OUT_DIR / f"{name}-trace.csv"
        self.golden = golden["cli"][corpus]
        self.expected = self.golden if seed == workloads.DEFAULT_SEED else None
        self.scenario = None
        self.system = None

    def setup(self, scenario_path: Optional[Path] = None) -> None:
        self.scenario = scenario.load_scenario(scenario_path or self.scenario_path)
        self.system = harness.load_system(self.system_path)

    def ticks_per_op(self) -> int:
        return self.scenario.ticks()

    def op(self, index: int) -> dict[str, Any]:
        rows, report = harness.run_scenario(self.scenario, self.system)
        harness.emit_trace(rows, self.trace_path)
        timeline = report.case_validity_timeline
        assessments = [
            d for d in report.decisions
            if any(e.startswith("assess-") for e in d["assessment_evidence"])
        ]
        return {
            "trace_sha256": _sha256(self.trace_path),
            "hazard_count": report.hazard_count,
            "guard_trips": report.guard_trips,
            "decisions": len(report.decisions),
            "spi_breaches": report.spi_breaches,
            "runtime_criteria": report.runtime_criteria,
            "clean": report.clean(),
            "mech": {
                "admissions": sum(1 for d in report.decisions
                                  if d["applied"] and "admission" in d),
                "invalidations": sum(1 for a, b in zip(timeline, timeline[1:])
                                     if a["valid"] and not b["valid"]),
                "assessments": len(assessments),
                "passes": sum(1 for d in assessments if d["applied"]),
                "failsafes": report.spi_breaches,
            },
        }

    def check(self, result: dict[str, Any], reference: dict[str, Any]) -> list[str]:
        """Mismatches against the golden CLI outputs or the run's first op."""
        expected = self.expected or reference
        problems = [
            f"{key}: {result[key]!r} != {value!r}"
            for key, value in expected.items() if result.get(key) != value
        ]
        if not result["clean"]:
            problems.append("report not clean")
        if any(v is False for v in result["runtime_criteria"].values()):
            problems.append(f"runtime criterion false: {result['runtime_criteria']}")
        return problems

    def warm_up_check(self) -> list[str]:
        """Run the corpus triple itself and compare with the CLI's outputs."""
        self.setup(CORPUS_DIR / f"{self.corpus}_scenario.json")
        result = self.op(-1)
        self.setup()
        return [f"corpus {problem}" for problem in self.check(result, self.golden)]


def make_workload(name: str, seed: int, golden: dict[str, Any]) -> ManagedWorkload:
    if name == "managed-pid":
        return ManagedWorkload(name, "type2", workloads.managed_pid_scenario, seed, golden)
    return ManagedWorkload(name, "type3", workloads.managed_net_scenario, seed, golden)


class Tally:
    """Attempted and failed operations, plus every problem any check found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        """The check of one operation."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)

    def flag(self, problems: list[str]) -> None:
        """A check that is not about one operation (tracing, repeatability)."""
        self.problems.extend(problems)


def run_op(wl, index: int, tally: Tally, reference: dict[str, Any],
           wrap: Optional[Callable] = None) -> tuple[Optional[dict[str, Any]], float]:
    """One checked operation: its result (None if it raised) and its time.

    Only the operation is timed, not the check. ``wrap`` runs the
    operation inside a trace span or a ``GcSplitter``.
    """
    def op():
        return wl.op(index)

    start = time.perf_counter()
    try:
        result = wrap(op) if wrap else op()
    except Exception as exc:  # any exception is a failed operation
        tally.record([f"op {index}: {type(exc).__name__}: {exc}"])
        return None, 0.0
    elapsed = time.perf_counter() - start
    tally.record(wl.check(result, reference or result))
    return result, elapsed


def guarded(check: Callable[[], list[str]]) -> list[str]:
    """Problems a check reports, or the exception it raised."""
    try:
        return check()
    except Exception as exc:  # an exception fails the check
        return [f"{type(exc).__name__}: {exc}"]


class GcSplitter:
    """Times an operation in pieces that end where the garbage collector starts.

    After ``gc.collect()`` the collector starts at the same program points
    in every repetition of the same work, so piece ``i`` of one operation
    is the same work as piece ``i`` of the next.
    """

    def __init__(self) -> None:
        self.pieces: list[float] = []

    def run(self, op: Callable[[], Any]) -> Any:
        clock = time.perf_counter
        marks = [clock()]

        def mark(phase: str, info: dict) -> None:
            if phase == "start":
                marks.append(clock())

        gc.callbacks.append(mark)
        try:
            return op()
        finally:
            marks.append(clock())
            gc.callbacks.remove(mark)
            self.pieces = [b - a for a, b in zip(marks, marks[1:])]


def fast_op_time(pieces: list[list[float]]) -> float:
    """Time of one operation at the host's fast speed in this run.

    ``typical[i]`` is the median time of piece ``i`` over the operations.
    Each piece time over its typical time is one sample of the host's
    speed; a run holds thousands of them. The op's typical time scaled by
    the ``FAST_PERCENTILE``-th percentile of the samples is its time at the
    fast speed. Only operations split into the most common number of
    pieces count.
    """
    count = Counter(len(p) for p in pieces).most_common(1)[0][0]
    times = np.array([p for p in pieces if len(p) == count])
    typical = np.median(times, axis=0)
    timed = typical > 0
    speed = times[:, timed] / typical[timed]
    return float(typical.sum() * np.percentile(speed, FAST_PERCENTILE))


def measure_setup(wl, times: list[float]) -> None:
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)


def run_untraced(wl, seconds: float, tally: Tally) -> dict[str, dict[str, Any]]:
    setup_times: list[float] = []
    measure_setup(wl, setup_times)
    tally.record(guarded(wl.warm_up_check))
    times: list[float] = []
    pieces: list[list[float]] = []
    splitter = GcSplitter()
    reference: dict[str, Any] = {}
    mech: Counter = Counter()
    index = 0
    started = last_setup = time.perf_counter()
    elapsed = 0.0
    # Stop when the next operation would probably end after ``seconds``.
    while index == 0 or time.perf_counter() - started + elapsed < seconds:
        if time.perf_counter() - last_setup >= SETUP_INTERVAL:
            measure_setup(wl, setup_times)
            last_setup = time.perf_counter()
        gc.collect()
        result, elapsed = run_op(wl, index, tally, reference, splitter.run)
        index += 1
        if result is None:
            continue
        times.append(elapsed)
        pieces.append(splitter.pieces)
        reference = reference or result
        mech.update(result["mech"])
    if not times:
        return {}
    ticks = wl.ticks_per_op()
    # A shared host runs the same piece of work up to twice as slowly at
    # one moment as at another, and how often it is slow drifts over
    # minutes. Timings are therefore taken at the fast speed, which a run
    # meets in short samples: the fastest set-up, and the fast percentile
    # of thousands of piece samples. See README.md, "End-to-end metrics".
    fast = fast_op_time(pieces)
    per_op = ", ".join(f"{k} {v / len(times):g}" for k, v in sorted(mech.items()))
    quantiles = " ".join(f"p{round(q * 100)} {_percentile(times, q) * 1e3:.1f}"
                         for q in (0.0, 0.10, 0.25, 0.50, 0.95, 1.0))
    print(f"{wl.name}: {len(times)} timed ops of {ticks} ticks, {len(setup_times)} set-ups; "
          f"op ms {quantiles}; {len(pieces[0])} pieces; per op: {per_op}", flush=True)
    return {
        "setup_s": {"value": min(setup_times), "unit": "s"},
        "us_per_tick": {"value": fast / ticks * 1e6, "unit": "us"},
        "op_ms_fast": {"value": fast * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def run_traced(wl, seconds: float, tally: Tally) -> dict[str, dict[str, Any]]:
    """Pairs of an untraced and a traced operation of identical work.

    Traced outputs must equal untraced ones and every traced operation
    must make exactly the same calls per layer.
    """
    from spans import LayerTracer, OP_SPAN, SETUP_SPAN

    tracer = LayerTracer()

    def in_op_span(op):
        return tracer.run_root(OP_SPAN, op)

    tally.record(guarded(wl.warm_up_check))

    tally.flag([f"no binding {binding} to trace" for binding in tracer.install()])
    try:
        for _ in range(SETUP_REPS):
            tracer.run_root(SETUP_SPAN, wl.setup)
    finally:
        tally.flag([] if tracer.restore() else ["tracer left a binding wrapped"])

    untraced_total = traced_total = 0.0
    first_counts: Optional[list[int]] = None
    first_untraced: Optional[dict[str, Any]] = None
    mech: Counter = Counter()
    started = time.perf_counter()
    pair_time = 0.0
    while first_counts is None or time.perf_counter() - started + pair_time < seconds:
        pair_start = time.perf_counter()
        untraced, elapsed = run_op(wl, 0, tally, {})
        untraced_total += elapsed

        first_span = len(tracer.names)
        tracer.install()
        try:
            traced, elapsed = run_op(wl, 0, tally, {}, wrap=in_op_span)
            traced_total += elapsed
        finally:
            tally.flag([] if tracer.restore() else ["tracer left a binding wrapped"])

        problems = []
        if traced != untraced:
            problems.append("traced outputs differ from untraced outputs")
        first_untraced = first_untraced or untraced
        if untraced != first_untraced:
            problems.append("outputs changed between identical operations")
        counts = tracer.counts_since(first_span)
        if first_counts is None:
            first_counts = counts
            mech.update((traced or {}).get("mech", {}))
        elif counts != first_counts:
            problems.append("per-layer call counts changed between identical operations")
        tally.flag(problems)
        pair_time = time.perf_counter() - pair_start

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}.npz"
    tracer.write(spans_path)
    print(f"{wl.name}: {len(tracer.names)} spans written to {spans_path.relative_to(ROOT)}",
          flush=True)

    metrics: dict[str, dict[str, Any]] = {}
    for key, value in tracer.layer_metrics().items():
        suffix = key.rsplit(".", 1)[1]
        unit_name = {"calls": "count", "us_per_call": "us", "self_ms_per_op": "ms"}.get(
            suffix, "ratio")
        metrics[key] = {"value": value, "unit": unit_name}
    for key in ("admissions", "invalidations", "assessments", "passes", "failsafes"):
        metrics[f"mech.{key}_per_op"] = {"value": mech[key], "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": traced_total / untraced_total, "unit": "ratio"}
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("managed-pid", "managed-net"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "safeadapt" / "__init__.py").is_file() or not CORPUS_DIR.is_dir():
        print("error: run from the root of a safeadapt checkout "
              "(src/safeadapt and corpus/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    global harness, mapek, scenario, workloads
    import safeadapt
    from safeadapt import harness, mapek, scenario
    import workloads

    if Path(safeadapt.__file__).resolve().parent != (SRC_DIR / "safeadapt").resolve():
        print(f"error: imported safeadapt from {safeadapt.__file__}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))

    wl = make_workload(args.workload, args.seed, golden)
    tally = Tally()
    if args.trace:
        metrics = run_traced(wl, args.seconds, tally)
    else:
        metrics = run_untraced(wl, args.seconds, tally)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", flush=True)
    print(json.dumps({
        "correct": not tally.problems and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
