import json
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from safeadapt import assurance, cli, harness, taxonomy
from safeadapt.assurance import CaseNode, SafetyCase
from safeadapt.cli import main
from safeadapt.controller import PidConfig
from safeadapt.corpus import (
    CORPUS,
    type0_scenario,
    type0_system,
    type1_model,
    type1_scenario,
    type1_system,
    type2_scenario,
    type2_system,
    type3_scenario,
    type3_system,
    write_corpus,
)
from safeadapt.harness import (
    TRACE_HEADER,
    SystemDescription,
    load_system,
    run_scenario,
)
from safeadapt.model import SystemConfiguration, write_json
from safeadapt.plant import PlantParams
from safeadapt.scenario import Scenario, Trace, save_scenario
from safeadapt.taxonomy import AdaptationDescriptor
from validity_oracle import unsupported

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


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
        inflow_temp_trace=Trace.constant(inflow_temp),
        inflow_rate_trace=Trace.constant(0.1),
        initial_tank_temp=initial,
    )


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


@pytest.fixture(scope="module")
def type0_run():
    return run_scenario(type0_scenario(), type0_system())


@pytest.fixture(scope="module")
def type1_run():
    return run_scenario(type1_scenario(), type1_system())


class TestRunScenario:
    def test_zero_duration_emits_header_only(self):
        rows, report = run_scenario(_flat_scenario(0.0), _bare_system())
        assert rows == [TRACE_HEADER]
        assert report.hazard_count == 0
        assert report.guard_trips == 0
        assert report.decisions == []
        assert report.clean()

    def test_first_row_starts_at_time_zero(self, type0_run):
        rows, _ = type0_run
        assert rows[0] == TRACE_HEADER
        assert rows[1].startswith("0.000000,")

    def test_equilibrium_holds_exactly(self):
        rows, report = run_scenario(_flat_scenario(5.0), _bare_system())
        assert len(rows) == 51
        for row in rows[1:]:
            assert row.split(",")[4] == "20.000000"
        assert report.hazard_count == 0

    def test_guard_trips_one_tick_after_crossing(self, type0_run):
        rows, report = type0_run
        outflow = [float(r.split(",")[4]) for r in rows[1:]]
        tripped = [r.split(",")[10] for r in rows[1:]]
        first_over = next(i for i, temp in enumerate(outflow) if temp > 90.0)
        assert tripped[first_over] == "0"
        assert tripped[first_over + 1] == "1"
        assert all(flag == "1" for flag in tripped[first_over + 1:])  # latched
        assert report.guard_trips == 1
        assert report.hazard_count == 0

    def test_runs_are_deterministic(self, type0_run):
        rows, _ = type0_run
        again, _ = run_scenario(type0_scenario(), type0_system())
        assert again == rows

    def test_type1_decision_log(self, type1_run):
        _, report = type1_run
        applied = [d for d in report.decisions if d["applied"]]
        assert applied and applied[0]["chosen_option"] == "opt-9"
        rogue = [d for d in report.decisions if "opt-99" in d["reason"]]
        assert rogue and not rogue[0]["applied"]

    def test_type1_trace_reflects_active_option(self, type1_run):
        rows, report = type1_run
        switch_time = next(d["time"] for d in report.decisions if d["applied"])
        for row in rows[1:]:
            fields = row.split(",")
            t, active = float(fields[0]), fields[7]
            assert active == ("opt-1" if t <= switch_time - 0.05 else "opt-9")

    @pytest.mark.parametrize("system_fn, option_id", [
        (type0_system, "tel-1"),
        (type3_system, "net-baseline"),
    ])
    def test_manual_trigger_ignored_for_type0_and_type3(self, system_fn, option_id):
        scenario = replace(_flat_scenario(5.0), manual_triggers=((1.0, option_id),))
        _, report = run_scenario(scenario, system_fn())
        assert report.decisions == []

    def test_case_is_not_validated_per_tick(self, monkeypatch):
        scenario, system = replace(type0_scenario(), duration=10.0), type0_system()
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
        scenario, system = replace(type2_scenario(), duration=1200.0), type2_system()
        calls = []
        classify = taxonomy.classify
        monkeypatch.setattr(taxonomy, "classify", lambda d: calls.append(d) or classify(d))
        _, report = run_scenario(scenario, system)
        assert any(d["applied"] for d in report.decisions)
        assert len(calls) == 2

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_history_ring_holds_the_admission_window(self, monkeypatch, name):
        # Each corpus system keeps the default 300 s window at 0.1 s: 3,000 samples, the
        # one before them and one for rounding; no hour of history.
        system_fn, scenario_fn = CORPUS[name]
        scenario, system = replace(scenario_fn(), duration=301.0), system_fn()
        sizes = _ring_sizes(monkeypatch)
        run_scenario(scenario, system)
        assert (system.admission_policy.window, scenario.tick, sizes) == (300.0, 0.1, [3002])

    def test_pid_gains_are_rebuilt_only_when_the_configuration_changes(self, monkeypatch):
        # Once before the first tick and once per applied adaptation.
        calls = []
        build = PidConfig.from_configuration
        monkeypatch.setattr(PidConfig, "from_configuration", lambda c: calls.append(c) or build(c))
        _, report = run_scenario(type1_scenario(), type1_system())
        applied = sum(d["applied"] for d in report.decisions)
        assert applied > 0
        assert len(calls) == 1 + applied

    @pytest.mark.parametrize("system_fn, scenario_fn", [
        (type2_system, type2_scenario),
        (type3_system, type3_scenario),
    ], ids=["type2", "type3"])
    def test_run_leaves_the_system_description_untouched(self, system_fn, scenario_fn):
        # The run shares the immutable case and binds its own SPI windows.
        scenario, system = replace(scenario_fn(), duration=1200.0), system_fn()
        case = system.safety_case.to_dict()
        rows, report = run_scenario(scenario, system)
        assert report.case_validity_timeline[-1]["revision"] > 0
        if system.spi_windows:
            assert report.spi_breaches > 0
        assert system.safety_case.to_dict() == case
        assert all(len(w.ring) == 0 and w.true_count == 0 for w in system.spi_windows)
        assert run_scenario(scenario, system)[0] == rows

    @pytest.mark.parametrize("system_fn, scenario_fn", [
        (type2_system, type2_scenario),
        (type3_system, type3_scenario),
    ], ids=["type2", "type3"])
    def test_validity_agrees_with_support_map_every_tick(
        self, monkeypatch, system_fn, scenario_fn
    ):
        revisions = set()

        def checked(case, now, repo):
            failing = assurance.evaluate_validity(case, now, repo)
            assert failing == unsupported(case, now, repo)
            revisions.add(case.revision)
            return failing

        monkeypatch.setattr(harness, "evaluate_validity", checked)
        run_scenario(replace(scenario_fn(), duration=1200.0), system_fn())
        assert len(revisions) > 1  # a revision's plan was compiled part way through

    @pytest.mark.parametrize("system_fn, scenario_fn", [
        (type2_system, type2_scenario),
        (type3_system, type3_scenario),
    ], ids=["type2", "type3"])
    def test_validity_compiles_once_per_case_revision(
        self, monkeypatch, system_fn, scenario_fn
    ):
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
        run_scenario(replace(scenario_fn(), duration=1200.0), system_fn())
        assert len(revisions) > 1
        assert len(compiled) == len(revisions)

    def test_all_rows_have_header_arity(self, type1_run):
        rows, _ = type1_run
        arity = len(TRACE_HEADER.split(","))
        assert all(len(r.split(",")) == arity for r in rows)


#: A trace row as one format string: the reference for the head/tail formatter.
_ROW = "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%s,%.6f,%s,%d,%.6f,%s,%d"

_row_head = st.tuples(*[st.floats()] * 6)
# hazard_accum and the SPI duration are never -0.0 in a run (see harness._row_formatter).
_non_negative = st.floats(0.0, 1e6).map(abs)
_row_tail = st.tuples(
    st.booleans(), st.sampled_from(["", "opt-a", "baseline"]), _non_negative,
    st.integers(0, 3), st.booleans(), _non_negative, st.integers(0, 5), st.booleans(),
)


@settings(max_examples=300)
@given(tails=st.lists(_row_tail, min_size=1, max_size=4),
       rows=st.lists(st.tuples(_row_head, st.integers(0, 3)), max_size=40))
def test_row_formatter_matches_the_one_string_row(tails, rows):
    # Rows draw from a few tails, so a tail repeats (as an equal copy) and changes.
    row = harness._row_formatter()
    for head, pick in rows:
        tail = tuple(list(tails[pick % len(tails)]))
        assert row(head, tail) == _ROW % (*head, *tail)


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9])  # around a chunk of 4 rows
def test_chunked_trace_write_matches_the_one_string_write(tmp_path, monkeypatch, count):
    monkeypatch.setattr(harness, "_TRACE_CHUNK", 4)
    rows = [f"{k},row" for k in range(count)]
    harness.emit_trace(rows, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


class TestSystemFiles:
    def test_save_load_round_trip(self, tmp_path):
        system = type3_system()
        path = tmp_path / "system.json"
        write_json(path, system.to_dict())
        assert load_system(path).to_dict() == system.to_dict()

    def test_write_corpus_reproduces_corpus_byte_for_byte(self, tmp_path):
        written = write_corpus(tmp_path)
        assert sorted(p.name for p in written) == sorted(p.name for p in CORPUS_DIR.iterdir())
        for path in written:
            assert path.read_bytes() == (CORPUS_DIR / path.name).read_bytes(), path.name

    def test_corpus_files_match_builders(self):
        for name, (system_fn, scenario_fn) in CORPUS.items():
            loaded = load_system(CORPUS_DIR / f"{name}_system.json")
            assert loaded.to_dict() == system_fn().to_dict()


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
        bare = SafetyCase(nodes={"G1": CaseNode("G1", "goal")}, root="G1")
        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(bare.to_dict()))
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
    # numpy's RuntimeWarning would fail these tests, and nothing reaches stderr.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setpoint", [1e308, -1e308])
    def test_overflowing_net_input_writes_no_warning(self, tmp_path, capfd, setpoint):
        scenario = replace(type3_scenario(), duration=30.0, setpoint_schedule=((0.0, setpoint),))
        save_scenario(scenario, tmp_path / "scenario.json")
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "scenario.json"),
            "--system", str(CORPUS_DIR / "type3_system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert (code, capfd.readouterr().err) == (0, "")

    @pytest.mark.filterwarnings("error")
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
        save_scenario(replace(type2_scenario(), duration=60.0), tmp_path / "scenario.json")
        sizes = _ring_sizes(monkeypatch)
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "scenario.json"),
            "--system", str(tmp_path / "system.json"),
            "--out", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert (code, sizes, capsys.readouterr().err) == (0, [600], "")

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
        rogue = replace(
            type1_model(), id="rogue",
            descriptor=AdaptationDescriptor(affects_safety_critical=True),
        )
        system = type1_system()
        system.models.append(rogue)
        write_json(tmp_path / "system.json", system.to_dict())
        save_scenario(_flat_scenario(5.0), tmp_path / "scenario.json")
        code = main([
            "simulate",
            "--scenario", str(tmp_path / "scenario.json"),
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

    def test_malformed_option_domain_fails_at_load(self, tmp_path, capsys):
        system = json.loads((CORPUS_DIR / "type2_system.json").read_text())
        system["safety_case_path"] = str(CORPUS_DIR / "type2_case.json")
        system["adaptation_models"][0]["options"][1]["domain"]["inflow_temp"] = [1.0]
        (tmp_path / "system.json").write_text(json.dumps(system))
        code = main(["classify", "--system", str(tmp_path / "system.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: domain bound 'inflow_temp'")

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
