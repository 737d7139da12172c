import bisect
import copy
import gc
import itertools
import json
import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from safeadapt import assurance, cli, controller, harness, mapek, taxonomy
from safeadapt.assurance import CaseNode, EvidenceItem, SafetyCase
from safeadapt.cli import main
from safeadapt.controller import PidConfig
from safeadapt.harness import (
    TRACE_HEADER,
    SystemDescription,
    load_system,
    run_scenario,
)
from safeadapt.model import KnowledgeRepository, SystemConfiguration
from safeadapt.plant import PlantParams
from safeadapt.scenario import Scenario, Trace
from safeadapt.spi import SpiWindow
from run_oracle import ROW as _ROW, reference_run
from validity_oracle import support_map, unsupported
import corpus_files
from corpus_files import CORPUS_DIR, NAMES
from test_golden import GOLDEN, _sha256


def _bare_system(**overrides):
    defaults = dict(
        plant=PlantParams(),
        initial_config=SystemConfiguration("pid", {"kp": 0.0, "ki": 0.0, "kd": 0.0}),
        models=[],
        safety_case=SafetyCase(nodes={"G1": CaseNode("G1", "goal")}, root="G1"),
    )
    defaults.update(overrides)
    return SystemDescription(**defaults)


def _flat_scenario(duration, setpoint=20.0, inflow_temp=20.0, initial=20.0):
    return Scenario(
        id="flat",
        duration=duration,
        setpoint_schedule=((0.0, setpoint),),
        inflow_temp_trace=Trace(((0.0, inflow_temp),)),
        inflow_rate_trace=Trace(((0.0, 0.1),)),
        initial_tank_temp=initial,
    )


#: The corpus inflow temperature as a linear segment over the first hour: the same values,
#: but a ramp, inside which the loop steps every tick.
_FLAT_RAMP = Trace(((0.0, 10.0), (3600.0, 10.0)), "linear")


def _with(case, table, key, field, value):
    case[table][key][field] = value
    return case


def _domain(case, inflow_temp):
    """The type2 case with one bound of its operational domain replaced."""
    return _with(case, "nodes", "C-DOM", "constraint", {"inflow_temp": inflow_temp})


def _ring_sizes(monkeypatch):
    """The ``maxlen`` of each ring the harness makes, in order."""
    sizes = []
    monkeypatch.setattr(harness, "deque",
                        lambda maxlen: sizes.append(maxlen) or deque(maxlen=maxlen))
    return sizes


def _retained_run(scenario, system):
    """A run's trace rows, the bytes its trace and report retain, and the most bytes it held
    allocated at once."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows, report = run_scenario(scenario, system)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        return rows, retained - before, peak - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def type0_run():
    return run_scenario(corpus_files.scenario("type0"), corpus_files.system("type0"))


@pytest.fixture(scope="module")
def type1_run():
    return run_scenario(corpus_files.scenario("type1"), corpus_files.system("type1"))


class TestRunScenario:
    def test_zero_duration_emits_header_only(self):
        rows, report = run_scenario(_flat_scenario(0.0), _bare_system())
        assert list(rows) == [TRACE_HEADER]
        assert report.hazard_count == 0
        assert report.guard_trips == 0
        assert report.decisions == []
        assert report.clean()

    def test_first_row_starts_at_time_zero(self, type0_run):
        rows = list(type0_run[0])
        assert rows[0] == TRACE_HEADER
        assert rows[1].startswith("0.000000,")

    def test_equilibrium_holds_exactly(self):
        rows, report = run_scenario(_flat_scenario(5.0), _bare_system())
        assert len(rows) == 51
        for row in list(rows)[1:]:
            assert row.split(",")[4] == "20.000000"
        assert report.hazard_count == 0

    def test_guard_trips_one_tick_after_crossing(self, type0_run):
        rows, report = type0_run
        outflow = [float(r.split(",")[4]) for r in list(rows)[1:]]
        tripped = [r.split(",")[10] for r in list(rows)[1:]]
        first_over = next(i for i, temp in enumerate(outflow) if temp > 90.0)
        assert tripped[first_over] == "0"
        assert tripped[first_over + 1] == "1"
        assert all(flag == "1" for flag in tripped[first_over + 1:])  # latched
        assert report.guard_trips == 1
        assert report.hazard_count == 0

    def test_runs_are_deterministic(self, type0_run):
        rows, _ = type0_run
        again, _ = run_scenario(corpus_files.scenario("type0"), corpus_files.system("type0"))
        assert list(again) == list(rows)

    def test_type1_decision_log(self, type1_run):
        _, report = type1_run
        applied = [d for d in report.decisions if d["applied"]]
        assert applied and applied[0]["chosen_option"] == "opt-9"
        rogue = [d for d in report.decisions if "opt-99" in d["reason"]]
        assert rogue and not rogue[0]["applied"]

    def test_type1_trace_reflects_active_option(self, type1_run):
        rows, report = type1_run
        switch_time = next(d["time"] for d in report.decisions if d["applied"])
        for row in list(rows)[1:]:
            fields = row.split(",")
            t, active = float(fields[0]), fields[7]
            assert active == ("opt-1" if t <= switch_time - 0.05 else "opt-9")

    @pytest.mark.parametrize("system_file, option_id", [
        ("type0_system", "tel-1"),
        ("type3_system", "net-baseline"),
    ])
    def test_manual_trigger_ignored_for_type0_and_type3(self, system_file, option_id):
        scenario = replace(_flat_scenario(5.0), manual_triggers=((1.0, option_id),))
        _, report = run_scenario(scenario, load_system(CORPUS_DIR / f"{system_file}.json"))
        assert report.decisions == []

    def test_case_is_not_validated_per_tick(self, monkeypatch):
        scenario = replace(corpus_files.scenario("type0"), duration=10.0)
        system = corpus_files.system("type0")
        calls = []
        validate = SafetyCase.validate
        monkeypatch.setattr(
            SafetyCase, "validate", lambda case: calls.append(case) or validate(case)
        )
        run_scenario(scenario, system)
        assert calls == []

    def test_models_are_classified_once_per_run(self, monkeypatch):
        # Once before the first tick and once for the end-of-run verdict;
        # planners and executor take the type from the harness.
        scenario = replace(corpus_files.scenario("type2"), duration=1200.0)
        system = corpus_files.system("type2")
        calls = []
        classify = taxonomy.classify
        monkeypatch.setattr(taxonomy, "classify", lambda d: calls.append(d) or classify(d))
        _, report = run_scenario(scenario, system)
        assert any(d["applied"] for d in report.decisions)
        assert len(calls) == 2

    @pytest.mark.parametrize("name", NAMES)
    def test_history_ring_holds_the_admission_window(self, monkeypatch, name):
        # Each corpus system keeps the default 300 s window at 0.1 s: 3,000 samples, the
        # one before them and one for rounding; no hour of history.
        scenario = replace(corpus_files.scenario(name), duration=301.0)
        system = corpus_files.system(name)
        sizes = _ring_sizes(monkeypatch)
        run_scenario(scenario, system)
        assert (system.admission_policy.window, scenario.tick, sizes) == (300.0, 0.1, [3002])

    def test_pid_gains_are_rebuilt_only_when_the_configuration_changes(self, monkeypatch):
        # Once before the first tick and once per applied adaptation.
        calls = []
        build = PidConfig.from_configuration
        monkeypatch.setattr(PidConfig, "from_configuration", lambda c: calls.append(c) or build(c))
        _, report = run_scenario(corpus_files.scenario("type1"), corpus_files.system("type1"))
        applied = sum(d["applied"] for d in report.decisions)
        assert applied > 0
        assert len(calls) == 1 + applied

    @pytest.mark.parametrize("name", ["type2", "type3"])
    def test_run_leaves_the_system_description_untouched(self, name):
        # The run shares the immutable case and binds its own SPI windows.
        scenario = replace(corpus_files.scenario(name), duration=1200.0)
        system = corpus_files.system(name)
        case = copy.deepcopy(system.safety_case)
        rows, report = run_scenario(scenario, system)
        assert report.case_validity_timeline[-1]["revision"] > 0
        if system.spi_windows:
            assert report.spi_breaches > 0
        assert system.safety_case == case
        assert all(len(w.ring) == 0 and w.true_count == 0 for w in system.spi_windows)
        assert list(run_scenario(scenario, system)[0]) == list(rows)

    @pytest.mark.parametrize("name, duration", [("type2", 2500.0), ("type3", 1200.0)],
                             ids=["type2", "type3"])
    def test_validity_agrees_with_support_map_every_tick(self, monkeypatch, name, duration):
        # Each tick's stored revision and validity against support_map on the run's own
        # knowledge at that tick, taken as the run writes the row and checked against the tail
        # the store keeps for it when the run ends; each evaluation the run asks for, node by
        # node.
        scenario = replace(corpus_files.scenario(name), duration=duration)
        repos, written, expected = [], [], {}
        new_repo, evaluate = harness.KnowledgeRepository, assurance.evaluate_validity
        row = harness._ROW

        def expect(k):
            repo, t = repos[-1], k * scenario.tick
            case = repo.safety_case
            written.append(k)
            expected[k] = (case.revision, support_map(case, t, repo)[case.root])

        class CheckedRow:  # a stepped tick's row is packed into the store through harness._ROW
            size = row.size

            def pack_into(self, buffer, offset, *floats):
                expect(offset // row.size)
                row.pack_into(buffer, offset, *floats)

        class CheckedRows(harness.TraceRows):
            def repeat_pair(self, end, n):  # a skipped tick repeats the tick two before
                for k in range(end, end + 2 * n):
                    expect(k)
                super().repeat_pair(end, n)

        def checked(case, now, repo):
            failing = evaluate(case, now, repo)
            assert failing == unsupported(case, now, repo)
            return failing

        monkeypatch.setattr(harness, "KnowledgeRepository",
                            lambda **fields: repos.append(new_repo(**fields)) or repos[-1])
        monkeypatch.setattr(harness, "TraceRows", CheckedRows)
        monkeypatch.setattr(harness, "_ROW", CheckedRow())
        monkeypatch.setattr(harness, "evaluate_validity", checked)
        rows, _ = run_scenario(scenario, corpus_files.system(name))
        assert len(rows) == scenario.ticks() + 1
        assert sorted(written) == list(range(scenario.ticks()))  # every tick written once
        assert [_tail_of(rows, k)[-2:] for k in written] == [expected[k] for k in written]
        entries = set(expected.values())
        assert len({revision for revision, _ in entries}) > 1  # a plan made part way through
        if name == "type2":  # C-DOM's bound fails at 2428.6 s, inside revision 1
            assert (1, True) in entries and (1, False) in entries

    @pytest.mark.parametrize("name", ["type2", "type3"])
    def test_validity_compiles_once_per_case_revision(self, monkeypatch, name):
        # The tick and the end-of-run verdicts share each revision's stored plan.
        compiled, revisions = [], set()
        compile_validity, evaluate = assurance._compile_validity, harness.evaluate_validity
        monkeypatch.setattr(
            assurance, "_compile_validity", lambda c: compiled.append(c) or compile_validity(c)
        )
        monkeypatch.setattr(
            harness, "evaluate_validity",
            lambda case, *a: revisions.add(case.revision) or evaluate(case, *a),
        )
        run_scenario(replace(corpus_files.scenario(name), duration=1200.0),
                     corpus_files.system(name))
        assert len(revisions) > 1
        assert len(compiled) == len(revisions)

    def test_trace_and_report_retain_at_most_80_bytes_a_tick(self):
        # Seven floats take 56 bytes a tick; rows held as strings took about 160.
        scenario = corpus_files.scenario("type3")
        rows, retained, _ = _retained_run(scenario, corpus_files.system("type3"))
        assert len(rows) == scenario.ticks() + 1 == 36_001
        assert retained <= 80 * scenario.ticks()

    def test_run_allocates_at_most_80_bytes_a_tick_at_its_peak(self):
        # The store, 56 bytes a tick, is sized before the first tick, and a skip copies rows
        # inside it: the run peaks at the store and about 0.45 MB besides, 68 bytes a tick.
        # Most type3 ticks are skipped, in a few long stretches; a skip that built a temporary
        # as long as its stretch peaked at 108 bytes a tick.
        scenario = corpus_files.scenario("type3")
        _, _, peak = _retained_run(scenario, corpus_files.system("type3"))
        assert peak <= 80 * scenario.ticks()

    def test_a_tail_run_outlasts_a_growing_spi_duration(self):
        # The outflow holds at 88 degC, over the 85.5 degC near-limit threshold, and the
        # window never breaches, so the SPI duration grows every tick: a number in the store,
        # not a new tail run.
        scenario = _flat_scenario(1800.0, setpoint=88.0, inflow_temp=88.0, initial=88.0)
        system = _bare_system(spi_windows=[SpiWindow(threshold=3600.0)])
        rows, retained, _ = _retained_run(scenario, system)
        spi_near = [float(row.split(",")[11]) for row in list(rows)[1:]]
        assert all(a < b for a, b in zip(spi_near, spi_near[1:]))
        assert len(rows._tails) == 1  # one tail run for the whole run
        assert retained <= 80 * scenario.ticks()

    def test_most_type3_ticks_skip_the_forward_pass(self, monkeypatch):
        # The controlled plant chatters with period 2: most calls repeat the inputs of the
        # call two before. np.array runs once a pass, and once a spec when its layers are built.
        # The inflow is a flat linear segment (10 degC at both ends, the corpus value), inside
        # which no tick is skipped, so the loop calls the controller on every tick.
        counts = {"calls": 0, "arrays": 0}

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def array(self, *args, **kwargs):
                counts["arrays"] += 1
                return np.array(*args, **kwargs)

        def counted_net_compute(*args):
            counts["calls"] += 1
            return controller.net_compute(*args)

        monkeypatch.setattr(controller, "np", CountingNumpy())
        monkeypatch.setattr(harness, "net_compute", counted_net_compute)
        monkeypatch.setattr(mapek, "net_compute", counted_net_compute)
        run_scenario(replace(corpus_files.scenario("type3"), duration=300.0,
                             inflow_temp_trace=_FLAT_RAMP),
                     corpus_files.system("type3"))
        assert counts["calls"] >= 3000
        assert counts["arrays"] <= 0.15 * counts["calls"]

    def test_all_rows_have_header_arity(self, type1_run):
        rows, _ = type1_run
        arity = len(TRACE_HEADER.split(","))
        assert all(len(r.split(",")) == arity for r in rows)


def _tail_of(store, k):
    """The tail a store keeps for row ``k``: its tail run's."""
    return store._tails[bisect.bisect_right(store._starts, k) - 1]


_row_floats = st.tuples(*[st.floats()] * 7)  # any float: -0.0, nan and the infinities too
_row_tail = st.tuples(
    st.booleans(), st.text(st.sampled_from("%sd(a)-"), max_size=4), st.integers(0, 3),
    st.booleans(), st.integers(0, 5), st.booleans(),
)
_FLOATS = (-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-7)
_TAILS = [(True, "100%", 0, False, 0, True), (False, "%s", 1, True, 1, False)]


def _row(k, tick, floats, tail):
    """A trace row as the one-string ``ROW`` formats it, from a row's floats and tail."""
    valve, option, count, tripped, revision, valid = tail
    return _ROW % (k * tick, *floats[:5], valve, option, floats[5], count, tripped, floats[6],
                   revision, valid)


def _store(tick, rows, ticks=None):
    """A store of ``ticks`` rows (by default ``len(rows)``) whose first rows are ``rows``,
    ``(floats, tail)`` pairs, written as a run writes them: each tail given to ``set_tail``
    before the row's floats are packed at the row's offset."""
    store = harness.TraceRows(tick, len(rows) if ticks is None else ticks)
    for k, (floats, tail) in enumerate(rows):
        store.set_tail(k, tail)
        harness._ROW.pack_into(store.floats, harness._ROW.size * k, *floats)
    return store


@settings(max_examples=300)
@given(tick=st.floats(), tails=st.lists(_row_tail, min_size=1, max_size=4),
       rows=st.lists(st.tuples(_row_floats, st.integers(0, 3)), max_size=24))
@example(tick=0.1, tails=_TAILS, rows=[])  # no ticks: the header alone
# One tail run in chunks of 4, 4 and 1.
@example(tick=0.1, tails=_TAILS, rows=[(_FLOATS, 0)] * 9)
# The tail changes at, one row before and one row after a chunk boundary.
@example(tick=0.1, tails=_TAILS, rows=[(_FLOATS, pick) for pick in [0] * 4 + [1] * 4])
@example(tick=0.1, tails=_TAILS, rows=[(_FLOATS, pick) for pick in [0] * 3 + [1] * 5])
@example(tick=0.1, tails=_TAILS, rows=[(_FLOATS, pick) for pick in [0] * 5 + [1] * 3])
# 0.0 and -0.0 are equal by == and print differently, in one chunk and in every column.
@example(tick=-0.0, tails=_TAILS, rows=[((0.0,) * 7, 0), ((-0.0,) * 7, 0)] * 2)
def test_row_formatter_matches_the_one_string_row(tmp_path_factory, tick, tails, rows):
    # Rows draw from a few tails, so a tail repeats (as an equal copy) and changes.
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_TRACE_CHUNK", 4)
        rows = [(floats, tuple(list(tails[pick % len(tails)]))) for floats, pick in rows]
        store = _store(tick, rows)
        expected = [TRACE_HEADER, *(_row(k, tick, *row) for k, row in enumerate(rows))]
        assert len(store) == len(expected)
        assert list(store) == expected
        harness.emit_trace(store, path)
        assert all(chunk.count(b"\n") <= 4 for chunk in store.chunks(4))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


@settings(max_examples=200)
@given(tails=st.lists(_row_tail, min_size=1, max_size=3),
       rows=st.lists(st.tuples(_row_floats, st.integers(0, 2)), min_size=2, max_size=12),
       n=st.integers(0, 20))
@example(tails=_TAILS, rows=[(_FLOATS, 0), (_FLOATS, 1)], n=5)  # a tail run a row
def test_repeated_pair_equals_adding_it_again(tails, rows, n):
    # The same bits, tail runs and rows as writing the last two rows n more times, for
    # stretches that double once, several times and past a power of two.
    rows = [(floats, tails[pick % len(tails)]) for floats, pick in rows]
    added = _store(0.1, rows + rows[-2:] * n)
    repeated = _store(0.1, rows, len(rows) + 2 * n)
    repeated.repeat_pair(len(rows), n)
    assert (repeated.floats.tobytes(), list(repeated._starts), repeated._tails,
            list(repeated)) == (
        added.floats.tobytes(), list(added._starts), added._tails, list(added))


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9])  # around a chunk of 4 rows
def test_chunked_trace_write_matches_the_one_string_write(tmp_path, monkeypatch, count):
    monkeypatch.setattr(harness, "_TRACE_CHUNK", 4)
    # The tail changes after the third row, inside the first chunk.
    rows = [((k, -k, 0.5, 1e-9 * k, 90.0, 0.1 * k, 60.0), _TAILS[k >= 3]) for k in range(count)]
    store = _store(1 / 3, rows)
    expected = [TRACE_HEADER, *(_row(k, 1 / 3, *row) for k, row in enumerate(rows))]
    harness.emit_trace(store, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


# Ties of "%.6f" that a float holds exactly, and values a micro-unit's half away from one.
_TIES = [k / 128 for k in range(-256, 257)] + [(n + 0.5) / 1e6 for n in
                                               (0, 1, 2, 7, 12345, 999_999, 10 ** 9, 4 * 10 ** 12)]
_NEIGHBOURS = [math.nextafter(x, direction) for x in _TIES for direction in (-math.inf, math.inf)]
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 5e-7, -5e-7,
          math.nextafter(harness._LIMIT, 0.0), -math.nextafter(harness._LIMIT, 0.0),
          harness._LIMIT, -harness._LIMIT, math.nextafter(harness._LIMIT, math.inf),
          7.25, 1234.5, 98765.4321, 12345678.0, 1e300]


def _fixed6_cases(values, width):
    """``values`` as ``n >= 1`` rows of ``width`` columns, a ``(width, n)`` array, with texts
    that hold a comma, a percent sign and a two-byte character."""
    n = len(values) // width
    columns = np.array(values[:n * width], dtype=np.float64).reshape(n, width).T.copy()
    texts = ["<", *["%s," % "é" * (column % 2) for column in range(1, width)], "%\n"]
    return columns, texts


_IN_RANGE = st.floats(-harness._LIMIT, harness._LIMIT, exclude_min=True, exclude_max=True)


@settings(max_examples=300)
@given(values=st.lists(_IN_RANGE, min_size=3, max_size=60),
       last=st.floats(allow_nan=False, allow_infinity=False), width=st.integers(1, 4))
@example(values=_TIES, last=0.5, width=1)
@example(values=_NEIGHBOURS, last=-0.5, width=2)
@example(values=_EDGES, last=0.0, width=3)
@example(values=[1.0, 9999.0, 10000.0, 99_999_999.0, 100_000_000.0], last=4.5e9, width=1)
@example(values=[-1.5, 2.0, -0.0], last=3.0, width=2)  # a sign in some rows only
def test_column_formatter_matches_percent_format(values, last, width):
    # Element by element against Python's "%.6f", for any finite float: the kernel declines
    # a piece that holds one at or past _LIMIT.
    columns, texts = _fixed6_cases([last, *values], width)
    got = harness._fixed6([text.encode() for text in texts], columns)
    if not (np.abs(columns) < harness._LIMIT).all():
        assert got is None
        return
    assert got.decode() == "".join(
        texts[0] + "".join("%.6f," % x + text for x, text in zip(row, texts[1:]))
        for row in columns.T.tolist())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e300])
def test_values_past_the_kernel_take_the_reference_path(monkeypatch, value):
    # The kernel declines a piece with such a value; the reference formats it, and only it.
    columns, texts = _fixed6_cases([1.5, value, -2.25, 3.0], 2)
    assert harness._fixed6([text.encode() for text in texts], columns) is None
    calls = []
    reference = harness._rows_reference
    monkeypatch.setattr(harness, "_rows_reference",
                        lambda *args: calls.append(args) or reference(*args))
    floats = [(20.0, 0.5, 60.0, 21.0 + k, 100.0 * k, 0.0, 0.0) for k in range(4)]
    floats[2] = (20.0, 0.5, 60.0, value, 200.0, 0.0, 0.0)
    # A second tail run, all finite: the kernel's.
    store = _store(0.1, [(row, _TAILS[0]) for row in floats] + [(floats[0], _TAILS[1])])
    assert list(store)[1:] == [_row(k, 0.1, row, _TAILS[k == 4])
                               for k, row in enumerate(floats + floats[:1])]
    assert len(calls) == 1


@pytest.mark.parametrize("name", NAMES)
def test_corpus_traces_never_take_the_reference_path(monkeypatch, name):
    # Every piece of a corpus trace is laid out by the kernel: a change that sends one back
    # to the slow reference path fails here.
    calls = []
    reference = harness._rows_reference
    monkeypatch.setattr(harness, "_rows_reference",
                        lambda *args: calls.append(args) or reference(*args))
    rows, _ = run_scenario(corpus_files.scenario(name), corpus_files.system(name))
    pieces = list(rows.chunks(harness._TRACE_CHUNK))
    assert sum(piece.count(b"\n") for piece in pieces) == len(rows) - 1
    assert calls == []


# Times from a small grid repeat; the rest fall anywhere in the run.
_time = st.one_of(st.sampled_from([0.0, 0.5, 30.0, 60.0]), st.floats(0.0, 240.0))


def _points(values):
    return st.lists(st.tuples(_time, values), min_size=1, max_size=4).map(sorted).map(tuple)


@st.composite
def _generated_scenarios(draw, option_ids):
    return Scenario(
        id="generated",
        duration=draw(st.floats(0.0, 240.0)),
        tick=draw(st.one_of(st.sampled_from([0.1, 0.5]), st.floats(0.05, 0.5))),
        setpoint_schedule=draw(_points(st.floats(20.0, 99.0))),
        inflow_temp_trace=Trace(draw(_points(st.floats(0.0, 60.0))),
                                draw(st.sampled_from(["hold", "linear"]))),
        inflow_rate_trace=Trace(draw(_points(st.floats(0.0, 0.6))),
                                draw(st.sampled_from(["hold", "linear"]))),
        seed=draw(st.integers(0, 100)),
        guard_enabled=draw(st.booleans()),
        initial_tank_temp=draw(st.one_of(st.floats(10.0, 95.0), st.floats(84.0, 92.0))),
        manual_triggers=tuple(draw(st.lists(
            st.tuples(_time, st.sampled_from([*option_ids, "opt-99"])), max_size=3))),
    )


def _pinned(id, duration, setpoints, inflow_temp, inflow_rate, initial, guard, manual):
    return Scenario(id, duration, setpoints, Trace(((0.0, inflow_temp),)),
                    Trace(((0.0, inflow_rate),)), tick=0.5, seed=4, guard_enabled=guard,
                    initial_tank_temp=initial, manual_triggers=manual)


# Hot: the guard trips (or the hazard counts), the 60 s rise limit passes, and the type3
# near-limit window breaches. Cold: a 300 s window of cold samples admits a type2 option.
_HOT = _pinned("hot", 200.0, ((0.0, 80.0), (5.0, 95.0)), 10.0, 0.005, 88.0, True, ())
_COLD = _pinned("cold", 330.0, ((0.0, 40.0),), 0.8, 0.5, 40.0, True, ((100.0, "opt-1"),))


@pytest.mark.parametrize("name", NAMES)
def test_run_matches_the_reference_run(tmp_path_factory, name):
    system = corpus_files.system(name)
    option_ids = [o.id for o in system.models[0].options or ()] if system.models else []

    @settings(max_examples=25)
    @given(_generated_scenarios(option_ids))
    @example(_HOT)
    @example(replace(_HOT, guard_enabled=False))
    @example(_COLD)
    def check(scenario):
        rows, report = run_scenario(scenario, system)
        path = tmp_path_factory.getbasetemp() / f"{name}-run.csv"
        harness.emit_trace(rows, path)
        assert (path.read_bytes(), report) == reference_run(scenario, system)

    check()


#: Criterion 1's bound on the time from the first over-limit outflow to the trip, s.
_TRIP_LATENCY = 2.0


def _check_paper_invariants(name, scenario, system, rows, report):
    """The paper's run-time claims, read from the trace and the report alone."""
    fields = [row.split(",") for row in list(rows)[1:]]
    times = [float(f[0]) for f in fields]
    # Guard supremacy: a trip follows an over-limit outflow in time, latches, and zeroes
    # the power; a disabled guard never trips.
    tripped = [f[10] == "1" for f in fields]
    assert all(f[5] == "0.000000" for f, trip in zip(fields, tripped) if trip)
    assert tripped == sorted(tripped)
    over = next((i for i, f in enumerate(fields) if float(f[4]) > 90.0), None)
    if not scenario.guard_enabled:
        assert not any(tripped)
    elif over is not None and over + 1 < len(fields):
        assert any(tripped) and times[tripped.index(True)] - times[over] <= _TRIP_LATENCY
    # Every active option is the start, the baseline or an applied decision's; a model
    # with a design-time set applies nothing outside it.
    applied = [d for d in report.decisions if d["applied"]]
    options = {o.id for model in system.models for o in model.options or ()}
    assert {f[7] for f in fields} <= {system.initial_option_id, system.baseline_option_id,
                                      *(d["chosen_option"] for d in applied)}
    for decision in applied:
        if decision["trigger"] == "spi-breach":
            assert decision["chosen_option"] == system.baseline_option_id
        elif name == "type3":
            assert decision["chosen_option"].startswith("candidate-")
        else:
            assert decision["chosen_option"] in options
    # TII.C5 and TIII.B4: no relaxed constraint, and no applied candidate that failed.
    assert report.runtime_criteria["tii_c5_constraints_monotone"] is not False
    assert report.runtime_criteria["tiii_b4_never_applied_failed"] is not False
    failed = {d["reason"].split()[1] for d in report.decisions
              if not d["applied"] and d["reason"].endswith("failed assessment (TIII.B4)")}
    assert not failed & {d["chosen_option"] for d in applied}
    # Each fail-safe falls on a row whose SPI duration drops to 0 from its threshold.
    breaches = [d["time"] for d in report.decisions if d["trigger"] == "spi-breach"]
    assert len(breaches) == report.spi_breaches
    for time in breaches:
        i = times.index(float("%.6f" % time))
        threshold = system.spi_windows[0].threshold
        assert i > 0 and float(fields[i][11]) == 0.0
        assert float(fields[i - 1][11]) >= threshold - scenario.tick
    # The validity timeline names every row where the revision or the validity changes.
    changes = [(f[0], int(f[12]), f[13] == "1") for i, f in enumerate(fields)
               if i == 0 or f[12:] != fields[i - 1][12:]]
    assert changes == [("%.6f" % e["time"], e["revision"], e["valid"])
                       for e in report.case_validity_timeline]


@pytest.mark.parametrize("name", NAMES)
def test_paper_invariants_hold_on_generated_runs(name):
    system = corpus_files.system(name)
    option_ids = [o.id for o in system.models[0].options or ()] if system.models else []

    @settings(max_examples=15)
    @given(_generated_scenarios(option_ids))
    @example(_HOT)
    @example(replace(_HOT, guard_enabled=False))
    @example(_COLD)
    # A request outside every set, then (after type2's first admission) a wider domain.
    @example(replace(_COLD, manual_triggers=((100.0, "opt-99"), (320.0, "opt-1"))))
    def check(scenario):
        rows, report = run_scenario(scenario, system)
        _check_paper_invariants(name, scenario, system, rows, report)

    check()


def test_an_expiry_mid_run_matches_the_reference_run(tmp_path):
    # No corpus or generated run outlives its evidence. At a 0.1 s tick, 3 * 0.1 - 0.1 > 0.2
    # makes this item stale at tick 3, though 3 * 0.1 is not past 0.1 + 0.2.
    item = EvidenceItem("E1", "runtime-observation", "pass", produced_at=0.1, freshness=0.2)
    case = SafetyCase(nodes={"G1": CaseNode("G1", "goal", children=["S1"]),
                             "S1": CaseNode("S1", "solution", evidence=["E1"])},
                      root="G1", evidence={"E1": item})
    scenario, system = _flat_scenario(1.0), _bare_system(safety_case=case)
    rows, report = run_scenario(scenario, system)
    harness.emit_trace(rows, tmp_path / "run.csv")
    assert ((tmp_path / "run.csv").read_bytes(), report) == reference_run(scenario, system)
    assert [(e["time"], e["valid"]) for e in report.case_validity_timeline] == [
        (0.0, True), (3 * 0.1, False)]


def _stepped(monkeypatch):
    """The ticks whose plant the run loop steps, recorded as the runs go."""
    ticks, step = [], harness.plant_step
    monkeypatch.setattr(harness, "plant_step", lambda state, plant, sample, power: (
        ticks.append(sample[0]) or step(state, plant, sample, power)))
    return ticks


def _cycling(name):
    """A corpus system whose held-input runs settle into a two-tick cycle. Type I and Type II
    take type0's saturating P gains, which hold the tank still once the guard trips."""
    system = corpus_files.system(name)
    if name in ("type1", "type2"):
        system = replace(system, initial_config=corpus_files.system("type0").initial_config)
    return system


def _expiring(case, freshness):
    """``case`` with a runtime-evidence solution under its root that is stale after
    ``freshness`` s."""
    item = EvidenceItem("E-fresh", "runtime-observation", "pass", freshness=freshness)
    root = case.nodes[case.root]
    return SafetyCase(
        nodes={**case.nodes, case.root: replace(root, children=[*root.children, "S-fresh"]),
               "S-fresh": CaseNode("S-fresh", "solution", evidence=["E-fresh"])},
        root=case.root, evidence={**case.evidence, "E-fresh": item})


def _held(setpoints=((0.0, 60.0),), inflow_temp=((0.0, 10.0),), inflow_rate=0.01, initial=50.0,
          manual=(), duration=200.0, tick=0.1, guard=True, interp="hold"):
    return Scenario("held", duration, setpoints, Trace(inflow_temp, interp),
                    Trace(((0.0, inflow_rate),)), tick=tick, guard_enabled=guard,
                    initial_tank_temp=initial, manual_triggers=manual)


def _end_state(history, windows, tracker):
    """What a run leaves behind, floats exact: its samples, its SPI rings and its tracker."""
    return (repr([tuple(sample) for sample in history]),
            [(bytes(w.ring), w.head, w.true_count) for w in windows], repr(vars(tracker)))


def _run_and_reference(monkeypatch, scenario, system, path):
    """The run's CSV bytes, report and end state, and the reference run's."""
    kept = {}
    monkeypatch.setattr(harness, "KnowledgeRepository",
                        lambda **fields: kept.setdefault("repo", KnowledgeRepository(**fields)))
    monkeypatch.setattr(harness, "GoalTracker",
                        lambda goal: kept.setdefault("tracker", mapek.GoalTracker(goal)))
    rows, report = run_scenario(scenario, system)
    harness.emit_trace(rows, path)
    ring = kept["repo"].sample_history
    end = {}
    expected = reference_run(scenario, system, end)
    return ((path.read_bytes(), report,
             _end_state(ring, kept["repo"].spi_windows, kept["tracker"])),
            (*expected, _end_state(end["history"][-ring.maxlen:], end["spi_windows"],
                                   end["tracker"])))


#: (Setpoint, initial tank temperature) pairs from which each corpus system cycles within a
#: few hundred ticks of held inputs: type3's net chatters, and the P gains trip the guard.
_CYCLING_STARTS = {"type3": [(60.0, 50.0), (80.0, 50.0), (80.0, 88.0), (85.0, 88.0)]}


@st.composite
def _cycling_scenarios(draw, name, option_ids):
    """Held inputs that settle into a cycle, with events at any time: input steps, manual
    triggers and, now and then, a guard that is off."""
    time = st.floats(20.0, 200.0)
    setpoint, initial = draw(st.sampled_from(_CYCLING_STARTS.get(name, [(95.0, 88.0)])))
    setpoints, inflow_temp = [(0.0, setpoint)], [(0.0, 10.0)]
    step = draw(st.sampled_from(["none", "setpoint", "inflow_temp"]))
    if step == "setpoint":
        setpoints.append((draw(time), draw(st.sampled_from([50.0, 70.0, 95.0]))))
    elif step == "inflow_temp":
        inflow_temp.append((draw(time), draw(st.sampled_from([5.0, 30.0, 99.0]))))
    return _held(
        tuple(setpoints), tuple(inflow_temp), draw(st.sampled_from([0.01, 0.02])), initial,
        tuple(draw(st.lists(st.tuples(time, st.sampled_from([*option_ids, "opt-99"])),
                            max_size=2))),
        duration=draw(st.floats(60.0, 200.0)), tick=draw(st.sampled_from([0.1, 0.1, 0.2])),
        guard=draw(st.sampled_from([True, True, True, False])))


#: Type III's near-limit SPI window, which the cycling runs give every system.
_NEAR_LIMIT = corpus_files.system("type3").spi_windows[0]


@pytest.mark.parametrize("name", NAMES)
def test_cycling_runs_match_the_reference_run(tmp_path, monkeypatch, name):
    # Held inputs, where the loop skips the ticks of a two-tick cycle, with an event from each
    # of the horizon's sources at a time the run may be skipping through: an input step, a
    # manual trigger, a validity expiry, Type II's plan ticks, a guard trip and, on every
    # system, a short near-limit SPI window whose 1s leave it mid-run or breach it. Bytes,
    # report and end state must match.
    base = _cycling(name)
    option_ids = [o.id for o in base.models[0].options or ()]

    @settings(max_examples=20, deadline=None)
    @given(_cycling_scenarios(name, option_ids), st.one_of(st.none(), st.floats(20.0, 200.0)),
           st.one_of(st.none(), st.tuples(st.floats(5.0, 150.0), st.floats(0.05, 1.0))))
    @example(_held(((0.0, 95.0),), initial=88.0), 150.0, None)
    @example(_held(((0.0, 80.0),), initial=88.0), None, (100.0, 1.0))
    # A fail-safe reverts an operator's option with no case revision: the tank over the window's
    # 85.5 degC from the start breaches it at 30 s, after the request at 20 s.
    @example(_held(((0.0, 95.0),), initial=88.0, manual=((20.0, "opt-2"),)), None, (60.0, 0.5))
    def check(scenario, freshness, spi):
        system = base
        if freshness is not None:
            system = replace(system, safety_case=_expiring(system.safety_case, freshness))
        if spi is not None:
            window, share = spi
            system = replace(system, spi_windows=[
                replace(_NEAR_LIMIT, window=window, threshold=share * window)])
        run, expected = _run_and_reference(monkeypatch, scenario, system, tmp_path / "run.csv")
        assert run == expected

    check()


def _first(rows, column, test):
    """The first tick whose row's ``column`` passes ``test`` against the row before."""
    fields = [row.split(",")[column] for row in rows]
    return {next(k for k in range(1, len(fields)) if test(fields[k], fields[k - 1]))}


_SPI = replace(corpus_files.system("type3").spi_windows[0], window=100.0, threshold=100.0)


@pytest.mark.parametrize("system, scenario, eventless, events", [
    # An operator request applies new gains at 150 s.
    (_cycling("type1"), _held(((0.0, 95.0),), initial=88.0, manual=((150.0, "opt-2"),)),
     (_cycling("type1"), _held(((0.0, 95.0),), initial=88.0)),
     lambda rows, report, plans: {round(report.decisions[0]["time"] / 0.1)}),
    # The setpoint steps at 150 s.
    (corpus_files.system("type3"), _held(((0.0, 60.0), (150.0, 70.0))),
     (corpus_files.system("type3"), _held()), lambda rows, report, plans: {1500}),
    # A runtime evidence item goes stale at 150 s, and the root with it.
    (replace(_cycling("type0"), safety_case=_expiring(_cycling("type0").safety_case, 150.0)),
     _held(((0.0, 95.0),), initial=88.0),
     (_cycling("type0"), _held(((0.0, 95.0),), initial=88.0)),
     lambda rows, report, plans: {round(e["time"] / 0.1) for e in report.case_validity_timeline
                                  if not e["valid"]}),
    # The setpoint rises at 20 s past what the tripped tank holds: the rise event stays open
    # and its 60 s limit passes at 80.1 s, where Type I plans.
    (_cycling("type1"), _held(((0.0, 94.0), (20.0, 95.0)), initial=88.0),
     (_cycling("type1"), _held(((0.0, 95.0),), initial=88.0)),
     lambda rows, report, plans: {round(report.decisions[0]["time"] / 0.1)}),
    # Type II plans every 10 s; the same system as Type I makes no plans.
    (_cycling("type2"), _held(((0.0, 95.0),), initial=88.0),
     (_cycling("type1"), _held(((0.0, 95.0),), initial=88.0)),
     lambda rows, report, plans: set(plans)),
    # Hot inflow from 100 s heats the tank past the guard's limit.
    (corpus_files.system("type3"),
     _held(((0.0, 85.0),), ((0.0, 10.0), (100.0, 99.0)), inflow_rate=0.02, initial=88.0),
     (corpus_files.system("type3"), _held(((0.0, 85.0),), inflow_rate=0.02, initial=88.0)),
     lambda rows, report, plans: _first(rows, 10, lambda now, before: now > before)),
    # The first 1s pushed by a hot start leave a 100 s window mid-run; a window that never
    # reads a 1 has nothing to evict.
    (replace(corpus_files.system("type3"), spi_windows=[_SPI]),
     _held(((0.0, 80.0),), initial=88.0),
     (replace(corpus_files.system("type3"), spi_windows=[replace(_SPI, temp_threshold=99.0)]),
      _held(((0.0, 80.0),), initial=88.0)),
     lambda rows, report, plans: _first(rows, 11, lambda now, before: float(now) < float(before))),
], ids=["manual", "input-step", "expiry", "rise-limit", "type2-plan", "guard-trip",
       "spi-eviction"])
def test_an_event_inside_a_skip_is_stepped(tmp_path, monkeypatch, system, scenario, eventless,
                                           events):
    # Each event falls on a tick that the run without it skips; the run with it steps that tick
    # and matches the reference run, bytes, report and end state.
    plans, plan = [], harness.plan_type2
    monkeypatch.setattr(harness, "plan_type2", lambda *args, now: (
        plans.append(round(now / scenario.tick)) or plan(*args, now=now)))
    stepped = _stepped(monkeypatch)
    run_scenario(*reversed(eventless))
    skipped = set(range(eventless[1].ticks())) - {round(t / scenario.tick) for t in stepped}
    stepped.clear()
    run, expected = _run_and_reference(monkeypatch, scenario, system, tmp_path / "run.csv")
    assert run == expected
    ticks = events(run[0].decode().splitlines()[1:], run[1], plans)
    assert ticks and ticks <= {round(t / scenario.tick) for t in stepped}
    assert ticks & skipped


def test_a_signed_zero_ramp_is_never_skipped(tmp_path, monkeypatch):
    # A linear segment from -0.0 to -0.0 prints 0.000000, and the -0.0 held after it
    # -0.000000: no tick inside a linear segment is skipped, and the run matches the reference.
    scenario = _held(inflow_temp=((0.0, -0.0), (100.0, -0.0)), interp="linear")
    system = corpus_files.system("type3")
    until = scenario.held_until()
    assert [until(k) for k in (0, 500, 999, 1000, 1999)] == [0, 500, 999, 2000, 2000]
    stepped = _stepped(monkeypatch)
    run, expected = _run_and_reference(monkeypatch, scenario, system, tmp_path / "run.csv")
    assert run == expected
    assert {round(t / scenario.tick) for t in stepped} >= set(range(1000))
    assert len(stepped) < scenario.ticks()  # the held -0.0 after the ramp is skipped through
    inflow = [row.split(",")[1] for row in run[0].decode().splitlines()[1:]]
    assert set(inflow[:1000]) == {"0.000000"} and set(inflow[1000:]) == {"-0.000000"}


@pytest.mark.parametrize("hot", [True, False], ids=["hot-phase", "count-falling"])
def test_a_window_whose_count_moves_in_a_cycle_is_stepped(tmp_path, monkeypatch, hot):
    # The tank cools from 88 degC into the net's two-tick cycle about 85 degC, so an SPI window
    # first reads a block of 1s. The window is sized so that the block's last 1 leaves at a
    # cycle check. With its threshold at the cycle's hot phase, that 1 leaves as the hot phase
    # pushes one: the count holds over the check's two ticks, but the pushes after it add 1s.
    # With its threshold above the cycle, the count falls over those two ticks. Neither check
    # may skip, and the run must match the reference run.
    scenario, system = _held(((0.0, 85.0),), initial=88.0), corpus_files.system("type3")
    end = {}
    reference_run(scenario, system, end)
    outflows = [sample[4] for sample in end["history"][1:]]  # each tick's, as the SPI reads it
    threshold = max(outflows[-2:]) + (0.0 if hot else 0.5)
    flags = [temp >= threshold for temp in outflows]
    last = flags.index(False) - 1  # the block's last 1, followed by at least three 0s
    assert flags[last + 1:last + 4] == [False] * 3
    cycle = 1 + max(k for k in range(2, len(outflows)) if outflows[k] != outflows[k - 2])
    check = next(k for k in itertools.count(harness._SPAN + 1, harness._SPAN + 2) if k > cycle + 2)
    size = check - last - hot  # the push at check - hot evicts the block's last 1
    window = replace(system.spi_windows[0], window=size * scenario.tick,
                     threshold=size * scenario.tick, temp_threshold=threshold)
    stepped = _stepped(monkeypatch)
    run, expected = _run_and_reference(
        monkeypatch, scenario, replace(system, spi_windows=[window]), tmp_path / "run.csv")
    assert run == expected
    assert {check + 1, check + 2} <= {round(t / scenario.tick) for t in stepped}


def test_corpus_runs_step_only_until_a_cycle(monkeypatch):
    # The loop steps type3 until its chatter settles and between events, type1 and type2 on
    # every tick (a moving integral, a ramping inflow), and every corpus output is unchanged.
    stepped = _stepped(monkeypatch)
    counts = {}
    for name in NAMES:
        stepped.clear()
        rows, report = run_scenario(corpus_files.scenario(name), corpus_files.system(name))
        trace = b"".join([TRACE_HEADER.encode() + b"\n", *rows.chunks(harness._TRACE_CHUNK)])
        report_json = json.dumps(report.to_dict(), sort_keys=True).encode()
        assert (_sha256(trace), _sha256(report_json)) == GOLDEN[name]
        counts[name] = len(stepped)
    assert counts["type3"] <= 0.15 * 36_000
    assert counts["type1"] == counts["type2"] == 36_000


class TestSystemFiles:
    def test_save_load_round_trip(self, tmp_path):
        # A system written with its case inline loads back equal.
        system = corpus_files.system("type3")
        path = tmp_path / "system.json"
        path.write_text(json.dumps(corpus_files.write(system)))
        assert load_system(path) == system


class TestCli:
    def test_simulate_clean_run(self, tmp_path, capsys):
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type0_scenario.json"),
            "--system", str(CORPUS_DIR / "type0_system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hazards 0" in out
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hazard_count"] == 0

    def test_classify_discharged(self, capsys):
        code = main(["classify", "--system", str(CORPUS_DIR / "type3_system.json")])
        assert code == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts[0]["type"] == "TIII"

    def test_check_case(self, capsys):
        code = main([
            "check-case",
            "--system", str(CORPUS_DIR / "type1_system.json"),
            "--case", str(CORPUS_DIR / "type1_case.json"),
        ])
        assert code == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert set(verdicts[0]["discharge"].values()) == {"discharged"}

    def test_check_case_empty_case_fails(self, tmp_path, capsys):
        case_path = tmp_path / "case.json"
        bare = {"root": "G1", "nodes": {"G1": {"id": "G1", "kind": "goal"}}}
        case_path.write_text(json.dumps(bare))
        code = main([
            "check-case",
            "--system", str(CORPUS_DIR / "type1_system.json"),
            "--case", str(case_path),
        ])
        assert code == 3

    @pytest.mark.parametrize("corpus, corrupt, fault", [
        ("type1", lambda case: _with(case, "nodes", "Sn-B1", "id", "Sn-X"),
         "stored under 'Sn-B1'"),
        ("type1", lambda case: _with(case, "evidence", "ev-b1", "id", "ev-x"),
         "stored under 'ev-b1'"),
        ("type1", lambda case: {**case, "nodes": []}, "'nodes'"),
        ("type1", lambda case: {**case, "root": ["G1"]}, "'root'"),
        ("type1", lambda case: [], "JSON object"),
        ("type1", lambda case: {**case, "nodes": {**case["nodes"], "Sn-B1": 5}}, "case node"),
        ("type1", lambda case: _with(case, "nodes", "G1", "children", 7), "'children'"),
        ("type1", lambda case: _with(case, "nodes", "G1", "children", "S1"), "'children'"),
        ("type1", lambda case: {**case, "revision": "abc"}, "'revision'"),
        ("type1", lambda case: _with(case, "evidence", "ev-b1", "produced_at", "x"),
         "'produced_at'"),
        ("type1", lambda case: {**case, "snapshots": [5]}, "'snapshots'"),
        ("type1", lambda case: {**case, "snapshots": [[float("nan"), True]]}, "'snapshots'"),
        ("type1", lambda case: {**case, "snapshots": [[1, float("nan"), "x"]]}, "'snapshots'"),
        ("type1", lambda case: {**case, "snapshots": [[1, "5", "x"]]}, "time"),
        ("type1", lambda case: {**case, "snapshots": [[1.0, 5.0, "x"]]}, "a revision"),
        ("type1", lambda case: {**case, "snapshots": [[1, 5.0, None]]}, "a cause"),
        ("type2", lambda case: _with(case, "nodes", "C-DOM", "constraint", 5),
         "operational domain"),
        ("type2", lambda case: _domain(case, 5), "must be [low, high]"),
        ("type2", lambda case: _domain(case, [None, "x"]), "must be [low, high]"),
        ("type2", lambda case: _domain(case, [1.0]), "must be [low, high]"),
        ("type2", lambda case: _domain(case, [float("nan"), 1.0]), "must be [low, high]"),
        ("type1", lambda case: _with(case, "evidence", "ev-b1", "produced_at", True),
         "'produced_at'"),
        ("type1", lambda case: {**case, "revision": True}, "'revision'"),
    ], ids=[
        "node-key", "evidence-key", "nodes-list", "root-list", "list-document",
        "node-number", "children-number", "children-string", "revision-string",
        "produced-at-string", "snapshot-number", "snapshot-pair", "snapshot-nan-time",
        "snapshot-string-time", "snapshot-float-revision", "snapshot-null-cause",
        "domain-number", "bound-number", "bound-string", "bound-single", "bound-nan",
        "produced-at-bool", "revision-bool",
    ])
    def test_check_case_rejects_malformed_case(
        self, tmp_path, capsys, corpus, corrupt, fault
    ):
        case = json.loads((CORPUS_DIR / f"{corpus}_case.json").read_text())
        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(corrupt(case)))
        code = main([
            "check-case",
            "--system", str(CORPUS_DIR / f"{corpus}_system.json"),
            "--case", str(case_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fault in err

    def test_assess_baseline_passes(self, tmp_path, capsys):
        system = load_system(CORPUS_DIR / "type3_system.json")
        candidate_path = tmp_path / "candidate.json"
        candidate_path.write_text(json.dumps(system.net_controller.to_dict()))
        code = main([
            "assess",
            "--system", str(CORPUS_DIR / "type3_system.json"),
            "--candidate", str(candidate_path),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_assess_does_not_classify(self, tmp_path, capsys):
        system = json.loads((CORPUS_DIR / "type3_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type3_case.json")
        system["adaptation_models"][0]["descriptor"]["case_in_knowledge_repo"] = False
        (tmp_path / "system.json").write_text(json.dumps(system))
        candidate_path = tmp_path / "candidate.json"
        candidate_path.write_text(json.dumps(system["net_controller"]))
        assert main(["classify", "--system", str(tmp_path / "system.json")]) == 2
        assert "no type matched" in capsys.readouterr().err
        code = main(["assess", "--system", str(tmp_path / "system.json"),
                     "--candidate", str(candidate_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_assess_flat_candidate_fails(self, tmp_path, capsys):
        from safeadapt.controller import zero_spec

        candidate_path = tmp_path / "candidate.json"
        candidate_path.write_text(json.dumps(zero_spec([4]).to_dict()))
        code = main([
            "assess",
            "--system", str(CORPUS_DIR / "type3_system.json"),
            "--candidate", str(candidate_path),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "fail"

    # A forward pass that overflows is left to the program's own non-finite checks:
    # numpy's RuntimeWarning would fail these tests (warnings are errors), and nothing
    # reaches stderr.
    @pytest.mark.parametrize("setpoint", [1e308, -1e308])
    def test_overflowing_net_input_writes_no_warning(self, tmp_path, capfd, setpoint):
        scenario = corpus_files.document("type3", "scenario")
        scenario.update(duration=30.0, setpoint_schedule=[[0.0, setpoint]])
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "scenario.json"),
            "--system", str(CORPUS_DIR / "type3_system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert (code, capfd.readouterr().err) == (0, "")

    def test_overflowing_candidate_writes_no_warning(self, tmp_path, capfd):
        net = load_system(CORPUS_DIR / "type3_system.json").net_controller
        candidate_path = tmp_path / "candidate.json"
        candidate_path.write_text(json.dumps(replace(net, weights=(1e308,) * len(net.weights))
                                             .to_dict()))
        code = main([
            "assess",
            "--system", str(CORPUS_DIR / "type3_system.json"),
            "--candidate", str(candidate_path),
        ])
        captured = capfd.readouterr()
        assert (code, captured.err) == (3, "")
        assert json.loads(captured.out)["verdict"] == "fail"

    def test_admission_window_past_the_run_keeps_the_run(self, tmp_path, monkeypatch, capsys):
        # 1e300 s over a 0.1 s tick: the ring holds the run's 600 ticks, with no overflow.
        system = json.loads((CORPUS_DIR / "type2_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type2_case.json")
        system["admission_policy"]["window"] = 1e300
        (tmp_path / "system.json").write_text(json.dumps(system))
        scenario = corpus_files.document("type2", "scenario")
        scenario["duration"] = 60.0
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        sizes = _ring_sizes(monkeypatch)
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "scenario.json"),
            "--system", str(tmp_path / "system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert (code, sizes, capsys.readouterr().err) == (0, [600], "")

    @pytest.mark.parametrize("option", ["--out", "--report"])
    def test_unwritable_output_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, option
    ):
        monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("the run started"))
        outputs = {"--out": tmp_path / "trace.csv", "--report": tmp_path / "report.json"}
        outputs[option] = tmp_path / "missing" / outputs[option].name
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type2_scenario.json"),
            "--system", str(CORPUS_DIR / "type2_system.json"),
            *(arg for flag, path in outputs.items() for arg in (flag, str(path))),
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []  # neither a trace nor a report
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(outputs[option]) in err

    @pytest.mark.parametrize("spelling", ["same", "dotted", "hard-link"])
    def test_one_file_for_trace_and_report_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        # The report would overwrite the trace, and the command would exit 0.
        monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("the run started"))
        out = tmp_path / "run.csv"
        report = {"same": str(out), "dotted": f"{tmp_path}/./run.csv",
                  "hard-link": str(tmp_path / "link.csv")}[spelling]
        if spelling == "hard-link":
            out.write_text("kept")
            (tmp_path / "link.csv").hardlink_to(out)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type0_scenario.json"),
            "--system", str(CORPUS_DIR / "type0_system.json"),
            "--out", str(out), "--report", report,
        ])
        assert code == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_key_error_inside_a_run_is_not_caught(self, tmp_path, monkeypatch):
        # Only input errors exit 2; a bug in a run keeps its traceback.
        def broken_run(scenario, system):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "run_scenario", broken_run)
        with pytest.raises(KeyError, match="bug"):
            main([
                "simulate",
                "--scenario", str(CORPUS_DIR / "type0_scenario.json"),
                "--system", str(CORPUS_DIR / "type0_system.json"),
                "--out", str(tmp_path / "trace.csv"),
                "--report", str(tmp_path / "report.json"),
            ])

    def test_missing_file_is_a_validation_error(self, tmp_path, capsys):
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "nope.json"),
            "--system", str(CORPUS_DIR / "type0_system.json"),
            "--out", str(tmp_path / "t.csv"),
            "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unclassifiable_secondary_model_fails_before_the_run(self, tmp_path, capsys):
        system = corpus_files.document("type1", "system")
        system["safety_case_path"] = str(CORPUS_DIR / "type1_case.json")
        rogue = copy.deepcopy(system["adaptation_models"][0])
        rogue.update(id="rogue", descriptor={"affects_safety_critical": True})
        system["adaptation_models"].append(rogue)
        (tmp_path / "system.json").write_text(json.dumps(system))
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type1_scenario.json"),
            "--system", str(tmp_path / "system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "report.json").exists()
        assert "first unmet TIII.C3" in capsys.readouterr().err

    def test_wrong_lifecycle_carrier_fails_at_load(self, tmp_path, capsys, monkeypatch):
        case = json.loads((CORPUS_DIR / "type2_case.json").read_text())
        case["nodes"]["Sn-B1"]["lifecycle"] = "dynamic"
        (tmp_path / "case.json").write_text(json.dumps(case))
        system = json.loads((CORPUS_DIR / "type2_system.json").read_text())
        system["safety_case_path"] = str(tmp_path / "case.json")
        (tmp_path / "system.json").write_text(json.dumps(system))
        monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("the run started"))
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type2_scenario.json"),
            "--system", str(tmp_path / "system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()
        assert "TII.B1 requires a static node but 'Sn-B1' is dynamic" in capsys.readouterr().err
        # The system's own case fails its load, whichever case check-case is given.
        assert main(["check-case", "--system", str(tmp_path / "system.json"),
                     "--case", str(CORPUS_DIR / "type2_case.json")]) == 2
        assert "'Sn-B1' is dynamic" in capsys.readouterr().err

    def test_option_breaking_its_model_constraints_fails_at_load(self, tmp_path, capsys):
        system = json.loads((CORPUS_DIR / "type1_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type1_case.json")
        option = system["adaptation_models"][0]["options"][8]
        assert option["id"] == "opt-9"
        option["assignment"].update(kp=999999.0, kd=0.0)  # breaks kp <= 5000 and kd >= 10
        (tmp_path / "system.json").write_text(json.dumps(system))
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type1_scenario.json"),
            "--system", str(tmp_path / "system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()
        assert "'opt-9'" in capsys.readouterr().err

    # A manual request would activate the last 'opt-9' and a goal violation the first.
    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_repeated_option_id_fails_at_load(self, tmp_path, capsys, monkeypatch, command):
        system = json.loads((CORPUS_DIR / "type1_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type1_case.json")
        options = system["adaptation_models"][0]["options"]
        assert options[8]["id"] == "opt-9"
        options.append({**copy.deepcopy(options[8]), "design_rise_time": 500.0})
        (tmp_path / "system.json").write_text(json.dumps(system))
        monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("the run started"))
        args = ["--system", str(tmp_path / "system.json")]
        if command == "simulate":
            args += ["--scenario", str(CORPUS_DIR / "type1_scenario.json"),
                     "--out", str(tmp_path / "trace.csv"),
                     "--report", str(tmp_path / "report.json")]
        assert main([command, *args]) == 2
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "report.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: model 'pid-gains-static' repeats option id 'opt-9'"]

    # No output can encode a lone surrogate: refused at load, not after the run.
    @pytest.mark.parametrize("part", ["system", "scenario"])
    def test_lone_surrogate_fails_at_load(self, tmp_path, capsys, monkeypatch, part):
        paths = {"system": CORPUS_DIR / "type1_system.json",
                 "scenario": CORPUS_DIR / "type1_scenario.json"}
        document = json.loads(paths[part].read_text())
        if part == "system":
            document["safety_case_path"] = str(CORPUS_DIR / "type1_case.json")
            document["adaptation_models"][0]["options"][0]["id"] = "opt-\ud800"
        else:
            document["id"] = "narrative-\udfff"
        paths[part] = tmp_path / f"{part}.json"
        paths[part].write_text(json.dumps(document))  # written as the escape \\ud800
        monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("the run started"))
        code = main(["simulate", "--scenario", str(paths["scenario"]),
                     "--system", str(paths["system"]), "--out", str(tmp_path / "trace.csv"),
                     "--report", str(tmp_path / "report.json")])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "report.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "lone surrogate" in err[0]

    def test_malformed_option_domain_fails_at_load(self, tmp_path, capsys):
        system = json.loads((CORPUS_DIR / "type2_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type2_case.json")
        system["adaptation_models"][0]["options"][1]["domain"]["inflow_temp"] = [1.0]
        (tmp_path / "system.json").write_text(json.dumps(system))
        code = main(["classify", "--system", str(tmp_path / "system.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: domain bound 'inflow_temp'")

    # The trace prints the active option id unquoted: each character would split a row.
    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    @pytest.mark.parametrize("where", ["option", "baseline_option_id", "initial_option_id"])
    def test_option_id_that_would_break_the_trace_fails_at_load(
        self, tmp_path, capsys, monkeypatch, where, char
    ):
        system = json.loads((CORPUS_DIR / "type1_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type1_case.json")
        if where == "option":
            system["adaptation_models"][0]["options"][0]["id"] = f"opt{char}1"
        else:
            system[where] = f"opt{char}1"
        (tmp_path / "system.json").write_text(json.dumps(system))
        monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("the run started"))
        code = main([
            "simulate",
            "--scenario", str(CORPUS_DIR / "type1_scenario.json"),
            "--system", str(tmp_path / "system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()
        assert f"option id {f'opt{char}1'!r} holds a comma" in capsys.readouterr().err

    def test_malformed_system_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "system.json"
        bad.write_text("{\"plant\": {}}")
        code = main(["classify", "--system", str(bad)])
        assert code == 2
        capsys.readouterr()
        # Each is rejected when the system is loaded, before any tick runs.
        for corpus, corrupt, fault in [
            ("type2", lambda s: s["admission_policy"].update(window=-1), "admission window"),
            ("type2", lambda s: s["admission_policy"].update(window=float("nan")),
             "admission window"),
            ("type3", lambda s: s["spi_windows"][0].update(window=float("nan")), "SPI window"),
            ("type3", lambda s: s["spi_windows"][0].update(window=float("inf")), "SPI window"),
            ("type3", lambda s: s["spi_windows"][0].update(window=-5, threshold=-10),
             "SPI window"),
            ("type3", lambda s: s.pop("net_controller"), "lacks a net_controller"),
            # A variable the sample does not carry, bounded in every option domain.
            ("type2", lambda s: [o["domain"].update(setpoint=[0, 100])
                                 for o in s["adaptation_models"][0]["options"]],
             "may bound only"),
            # A pid start needs no network, but a Type III model perturbs one.
            ("type3", lambda s: s.update(initial_configuration={
                "controller_kind": "pid", "parameters": {"kp": 50.0, "ki": 0.5, "kd": 0.0},
            }) or s.pop("net_controller"), "needs a net_controller"),
            # A Type III model with no suite could never assess a candidate.
            ("type3", lambda s: s.pop("assessment_scenarios"), "needs assessment_scenarios"),
            # Exact JSON types: a bool is not a number, a float not an integer.
            ("type0", lambda s: s["plant"].update(volume="abc"), "volume"),
            ("type0", lambda s: s["plant"].update(volume=True), "volume"),
            ("type0", lambda s: s.update(plant=[1]), "plant"),
            ("type0", lambda s: s["initial_configuration"]["parameters"].update(kp="x"), "kp"),
            ("type0", lambda s: s["initial_configuration"].update(parameters=[1]), "parameters"),
            ("type0", lambda s: s.update(adaptation_models=3), "adaptation_models"),
            ("type1", lambda s: s.update(baseline_option_id=5), "baseline_option_id"),
            ("type1", lambda s: s["goal"].update(rise_time_limit="a"), "rise_time_limit"),
            ("type1", lambda s: s["goal"].update(rise_time_limit=float("nan")), "goal limits"),
            ("type2", lambda s: s["admission_policy"].update(min_samples=2.5), "'min_samples'"),
            ("type2", lambda s: s["admission_policy"].update(confidence_z="a"), "'confidence_z'"),
            ("type3", lambda s: s["spi_windows"][0].update(window="a"), "window must be"),
            ("type3", lambda s: s.update(spi_windows={"a": 1}), "spi_windows"),
            ("type3", lambda s: s["net_controller"].update(weights="ab"), "'weights'"),
            ("type3", lambda s: s["net_controller"].pop("weights"), "'weights'"),
            ("type3", lambda s: s["net_controller"].update(layer_sizes=[4.5]), "layer size"),
            ("type0", lambda s: s["adaptation_models"][0]["descriptor"].update(
                affects_safety_critical="no"), "affects_safety_critical"),
            ("type0", lambda s: s["adaptation_models"][0].update(descriptor="x"), "descriptor"),
            ("type1", lambda s: s["adaptation_models"][0]["options"][0].update(
                design_rise_time="fast"), "design_rise_time"),
            ("type0", lambda s: s.pop("initial_configuration"), "initial_configuration"),
            # A suite scenario whose tick the plant cannot step.
            ("type3", lambda s: s["assessment_scenarios"][0].update(tick=0.6), "tick"),
            # A case path that names a directory.
            ("type1", lambda s: s.update(safety_case_path=""), "Is a directory"),
        ]:
            system = json.loads((CORPUS_DIR / f"{corpus}_system.json").read_text())
            system["safety_case_path"] = str(CORPUS_DIR / f"{corpus}_case.json")
            corrupt(system)
            bad.write_text(json.dumps(system))
            code = main([
                "simulate",
                "--scenario", str(CORPUS_DIR / f"{corpus}_scenario.json"),
                "--system", str(bad),
                "--out", str(tmp_path / "trace.csv"),
                "--report", str(tmp_path / "report.json"),
            ])
            assert code == 2
            assert not (tmp_path / "trace.csv").exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and fault in err

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    @pytest.mark.parametrize("nested", [lambda n: "[" * n + "]" * n,
                                        lambda n: '{"a":' * n + "0" + "}" * n],
                             ids=["arrays", "objects"])
    @pytest.mark.parametrize("input", ["system", "case-path", "scenario", "candidate"])
    def test_input_nested_too_deeply_fails_at_load(self, tmp_path, capsys, input, nested,
                                                     depth):
        deep = tmp_path / "deep.json"
        deep.write_text(nested(depth))
        system = json.loads((CORPUS_DIR / "type3_system.json").read_text())
        system["safety_case_path"] = str(deep if input == "case-path"
                                         else CORPUS_DIR / "type3_case.json")
        (tmp_path / "system.json").write_text(json.dumps(system))
        paths = {"system": deep if input == "system" else tmp_path / "system.json",
                 "scenario": deep if input == "scenario" else CORPUS_DIR / "type3_scenario.json"}
        if input == "candidate":
            argv = ["assess", "--system", str(paths["system"]), "--candidate", str(deep)]
        else:
            argv = ["simulate", "--scenario", str(paths["scenario"]),
                    "--system", str(paths["system"]), "--out", str(tmp_path / "trace.csv"),
                    "--report", str(tmp_path / "report.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "maximum recursion depth exceeded" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "system.json"]

    @pytest.mark.parametrize("corrupt, fault", [
        (lambda s: s.update(duration=float("nan")), "duration"),
        (lambda s: s.update(duration=float("inf")), "duration"),
        (lambda s: s["inflow_temp_trace"]["points"][3].__setitem__(1, float("nan")),
         "trace point"),
        (lambda s: s["inflow_temp_trace"]["points"][3].__setitem__(0, float("nan")),
         "trace point"),
        (lambda s: s["setpoint_schedule"].append([1000.0, float("nan")]), "setpoint step"),
        (lambda s: s["inflow_rate_trace"]["points"].append([500.0, -1.0]), "inflow rate trace"),
        (lambda s: s.update(manual_triggers=[[float("nan"), "opt-1"]]), "manual trigger time"),
        (lambda s: s["inflow_temp_trace"]["points"].__setitem__(0, [0, 10, 3]), "trace point"),
        (lambda s: s.update(tick="abc"), "scenario tick"),
        (lambda s: s.update(tick=10 ** 400), "scenario tick"),
        (lambda s: s["setpoint_schedule"][0].__setitem__(1, "x"), "setpoint step"),
        (lambda s: s.update(seed="q"), "scenario seed"),
        (lambda s: [s], "a scenario must be a JSON object"),
        (lambda s: s.__delitem__("duration"), "duration"),
        (lambda s: s.update(tick=1e-300), "passes the cap"),
        (lambda s: s.update(duration=1e300), "passes the cap"),
        (lambda s: s.update(inflow_temp_trace={"points": [[0, -1e308], [100, 1e308]],
                                               "interp": "linear"}), "overflows"),
    ], ids=["duration-nan", "duration-inf", "inflow-nan-value", "inflow-nan-time",
            "setpoint-nan", "inflow-rate-negative", "manual-trigger-nan", "trace-point-3-items",
            "tick-string", "tick-int-overflow", "setpoint-string", "seed-string", "root-list",
            "duration-missing", "tick-tiny", "duration-huge", "inflow-linear-step-overflow"])
    def test_malformed_scenario_fails_at_load(self, tmp_path, capsys, corrupt, fault):
        # Each is rejected when the scenario is loaded, before any tick runs.
        scenario = json.loads((CORPUS_DIR / "type2_scenario.json").read_text())
        scenario = corrupt(scenario) or scenario
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "scenario.json"),
            "--system", str(CORPUS_DIR / "type2_system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fault in err
