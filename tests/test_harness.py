import json
from dataclasses import replace
from pathlib import Path

import pytest

from safeadapt.assurance import CaseNode, SafetyCase
from safeadapt.cli import main
from safeadapt.corpus import (
    CORPUS,
    type0_scenario,
    type0_system,
    type1_model,
    type1_scenario,
    type1_system,
    type3_system,
)
from safeadapt.harness import (
    TRACE_HEADER,
    SystemDescription,
    load_system,
    run_scenario,
    save_system,
)
from safeadapt.model import SystemConfiguration
from safeadapt.plant import PlantParams
from safeadapt.scenario import Scenario, Trace, save_scenario
from safeadapt.taxonomy import AdaptationDescriptor

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


def _with_id(case, table, key, new_id):
    case[table][key]["id"] = new_id
    return case


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

    def test_all_rows_have_header_arity(self, type1_run):
        rows, _ = type1_run
        arity = len(TRACE_HEADER.split(","))
        assert all(len(r.split(",")) == arity for r in rows)


class TestSystemFiles:
    def test_save_load_round_trip(self, tmp_path):
        system = type3_system()
        path = tmp_path / "system.json"
        save_system(system, path)
        assert load_system(path).to_dict() == system.to_dict()

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

    @pytest.mark.parametrize("corrupt, fault", [
        (lambda case: _with_id(case, "nodes", "Sn-B1", "Sn-X"), "stored under 'Sn-B1'"),
        (lambda case: _with_id(case, "evidence", "ev-b1", "ev-x"), "stored under 'ev-b1'"),
        (lambda case: {**case, "nodes": []}, "'nodes'"),
        (lambda case: {**case, "root": ["G1"]}, "'root'"),
        (lambda case: [], "JSON object"),
    ], ids=["node-key", "evidence-key", "nodes-list", "root-list", "list-document"])
    def test_check_case_rejects_malformed_case(self, tmp_path, capsys, corrupt, fault):
        case = json.loads((CORPUS_DIR / "type1_case.json").read_text())
        case_path = tmp_path / "case.json"
        case_path.write_text(json.dumps(corrupt(case)))
        code = main([
            "check-case",
            "--system", str(CORPUS_DIR / "type1_system.json"),
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
        save_system(system, tmp_path / "system.json")
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

    def test_malformed_system_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "system.json"
        bad.write_text("{\"plant\": {}}")
        code = main(["classify", "--system", str(bad)])
        assert code == 2
