"""Every planner outcome, pinned against literals.

Each path of the Type I, II and III planners and of the fail-safe is compared field by
field: the decision's ``to_dict()``, the design-time option it activates, the candidate
network it carries (as its spec hash), its case patches and its runtime evidence.

Type I and Type II are called directly; Type II by keyword only. Type III and the
fail-safe are read from short runs, where the harness makes its own calls: the Type III
decision through a wrapper on ``harness.plan_type3``, the fail-safe's from the run report,
next to the evidence it left in the run's case and the configuration it restored.
"""
import json
import random
from dataclasses import replace

import pytest

from safeadapt import harness, mapek
from safeadapt.assurance import AttachEvidence, ReplaceConstraintContext
from safeadapt.mapek import AdaptationTrigger, AdmissionPolicy, plan_type1, plan_type2, spec_hash
from safeadapt.model import EnvironmentSample
from safeadapt.spi import SpiWindow
import corpus_files

TYPE1_MODEL, TYPE2_MODEL = (corpus_files.system(name).models[0] for name in ("type1", "type2"))
GOAL_VIOLATION = AdaptationTrigger("goal-violation")
#: opt-9's domain: inflow at most 2 degC and at least 0.2 L/s.
COLD_FAST = {"inflow_rate": (0.2, 1.0), "inflow_temp": (-10.0, 2.0)}


def _manual(option_id):
    return AdaptationTrigger("manual", requested_option_id=option_id)


def _samples(n, mean=1.0, spread=0.2):
    rng = random.Random(3)
    return [EnvironmentSample(float(k), mean + rng.uniform(-spread, spread), 0.5, 40.0, 40.0)
            for k in range(n)]


def _tight_case():
    """The type2 case after opt-9's admission: its constraints are opt-9's domain."""
    case = corpus_files.case("type2")
    domain = next(o.domain for o in TYPE2_MODEL.options if o.id == "opt-9")
    return replace(case, nodes={**case.nodes, "C-DOM": replace(case.node("C-DOM"),
                                                               constraint=domain)})


def _outcome(decision):
    """Every field a consumer of the decision reads, in comparable form."""
    evidence = decision.evidence_items
    patches = []
    for patch in decision.patches:
        if isinstance(patch, AttachEvidence):
            assert any(patch.item is item for item in evidence)
            patches.append(("attach", patch.target, patch.item.id))
        else:
            assert isinstance(patch, ReplaceConstraintContext)
            patches.append(("constrain", patch.target, patch.domain.bounds))
    return {
        "decision": decision.to_dict(),
        "option": None if decision.option is None else decision.option.id,
        "candidate_net": (None if decision.candidate_net is None
                          else spec_hash(decision.candidate_net)),
        "patches": patches,
        "evidence": [(e.id, e.kind, e.verdict, e.produced_at, e.freshness) for e in evidence],
    }


# --- Type I -----------------------------------------------------------------

def _type1(trigger, active):
    decision = plan_type1(TYPE1_MODEL, trigger, active, now=12.3)
    if decision.option is not None:
        assert decision.option in TYPE1_MODEL.options
    return _outcome(decision)


def _type1_refusal(reason, trigger):
    return {
        "decision": {"time": 12.3, "trigger": trigger, "model_id": "pid-gains-static",
                     "chosen_option": None, "applied": False, "reason": reason,
                     "assessment_evidence": []},
        "option": None, "candidate_net": None, "patches": [], "evidence": [],
    }


def _type1_choice(option_id, reason, trigger):
    return {
        "decision": {"time": 12.3, "trigger": trigger, "model_id": "pid-gains-static",
                     "chosen_option": option_id, "applied": True, "reason": reason,
                     "assessment_evidence": []},
        "option": option_id, "candidate_net": None, "patches": [], "evidence": [],
    }


TYPE1_PATHS = {
    "unknown-request": (
        lambda: _type1(_manual("opt-99"), "opt-1"),
        _type1_refusal("refused: option 'opt-99' is not among the design-time options (TI.B1)",
                       "manual"),
    ),
    "known-request": (
        lambda: _type1(_manual("opt-3"), "opt-1"),
        _type1_choice("opt-3", "requested design-time option", "manual"),
    ),
    "no-better-option": (
        lambda: _type1(GOAL_VIOLATION, "opt-9"),
        _type1_refusal("no better design-time option available", "goal-violation"),
    ),
    "best-option": (
        lambda: _type1(GOAL_VIOLATION, "opt-5"),
        _type1_choice("opt-9", "best design-time rise time 40.0", "goal-violation"),
    ),
}


@pytest.mark.parametrize("path", TYPE1_PATHS)
def test_type1_outcome(path):
    run, expected = TYPE1_PATHS[path]
    assert run() == expected


# --- Type II ----------------------------------------------------------------

def _type2(monkeypatch, trigger, samples, case=None, active="opt-1", model=TYPE2_MODEL):
    """The outcome and the statuses of the admission tests the planner ran."""
    statuses = []

    def counted(*args):
        report = admission_test(*args)
        statuses.append(report.status)
        return report

    admission_test = mapek.admission_test
    monkeypatch.setattr(mapek, "admission_test", counted)
    decision = plan_type2(
        model=model, samples=samples, policy=AdmissionPolicy(),
        case=corpus_files.case("type2") if case is None else case,
        active_option_id=active, now=500.0, trigger=trigger,
    )
    if decision.option is not None:
        assert decision.option in model.options
    for item in decision.evidence_items:  # the admission statistics, as the report has them
        assert item.payload_ref == json.dumps(decision.to_dict()["admission"], sort_keys=True)
    return _outcome(decision), statuses


def _type2_refusal(reason, trigger="manual", admission=None):
    decision = {"time": 500.0, "trigger": trigger, "model_id": "pid-gains-constrained",
                "chosen_option": None, "applied": False, "reason": reason,
                "assessment_evidence": []}
    if admission is not None:
        decision["admission"] = admission
    return {"decision": decision, "option": None, "candidate_net": None, "patches": [],
            "evidence": []}


def _type2_admit(option_id, domain, trigger, admission):
    evidence_id = f"adm-{option_id}-r5000"
    return {
        "decision": {"time": 500.0, "trigger": trigger, "model_id": "pid-gains-constrained",
                     "chosen_option": option_id, "applied": True,
                     "reason": f"admission passed on {admission['n']} samples",
                     "assessment_evidence": [evidence_id], "admission": admission},
        "option": option_id, "candidate_net": None,
        "patches": [("constrain", "C-DOM", domain), ("attach", "Sn-B4", evidence_id)],
        "evidence": [(evidence_id, "runtime-observation", "pass", 500.0, 3600.0)],
    }


#: Admission of opt-9's domain over the last 301 of 500 cold samples.
ADMIT_COLD = {
    "status": "admit", "n": 301, "window_start": 199.0, "window_end": 499.0,
    "variables": {
        "inflow_rate": {"mean": 0.5, "stdev": 0.0, "min": 0.5, "max": 0.5, "upper_cb": 0.5,
                        "bound_high": 1.0, "lower_cb": 0.5, "bound_low": 0.2, "ok": 1.0},
        "inflow_temp": {"mean": 0.9992605725406795, "stdev": 0.11151574722701131,
                        "min": 0.8007234598905517, "max": 1.1964871725367063,
                        "upper_cb": 1.0142113115905025, "bound_high": 2.0,
                        "lower_cb": 0.9843098334908563, "bound_low": -10.0, "ok": 1.0},
    },
}
#: Too few samples for any window: 50 of the 300 needed.
NOT_READY = {"status": "not-ready", "n": 50, "window_start": 0.0, "window_end": 49.0,
             "variables": {}}
#: opt-9's domain over warm samples: the mean's bound passes 2 degC.
REJECT_WARM = {
    "status": "reject", "n": 301, "window_start": 199.0, "window_end": 499.0,
    "variables": {
        "inflow_rate": {"mean": 0.5, "stdev": 0.0, "min": 0.5, "max": 0.5, "upper_cb": 0.5,
                        "bound_high": 1.0, "lower_cb": 0.5, "bound_low": 0.2, "ok": 1.0},
        "inflow_temp": {"mean": 1.948151431351698, "stdev": 0.27878936806752824,
                        "min": 1.4518086497263791, "max": 2.441217931341766,
                        "upper_cb": 1.9855282789762558, "bound_high": 2.0,
                        "lower_cb": 1.9107745837271404, "bound_low": -10.0, "ok": 0.0},
    },
}
#: opt-8's domain over the same warm samples.
ADMIT_WARM = {
    "status": "admit", "n": 301, "window_start": 199.0, "window_end": 499.0,
    "variables": {
        "inflow_rate": {"mean": 0.5, "stdev": 0.0, "min": 0.5, "max": 0.5, "upper_cb": 0.5,
                        "bound_high": 1.0, "lower_cb": 0.5, "bound_low": 0.15, "ok": 1.0},
        "inflow_temp": {"mean": 1.948151431351698, "stdev": 0.27878936806752824,
                        "min": 1.4518086497263791, "max": 2.441217931341766,
                        "upper_cb": 1.9855282789762558, "bound_high": 5.0,
                        "lower_cb": 1.9107745837271404, "bound_low": -10.0, "ok": 1.0},
    },
}


def _without_domain(option_id):
    options = tuple(replace(o, domain=None) if o.id == option_id else o
                    for o in TYPE2_MODEL.options)
    return replace(TYPE2_MODEL, options=options)


TYPE2_PATHS = {
    "unknown-request": (
        dict(trigger=_manual("opt-77"), samples=_samples(500)),
        _type2_refusal("refused: option 'opt-77' is not among the design-time options "
                       "(TII.B1)"), [],
    ),
    "relaxing-request-without-domain": (
        dict(trigger=_manual("opt-3"), samples=_samples(500), model=_without_domain("opt-3")),
        _type2_refusal("refused: option 'opt-3' would relax the current operational "
                       "constraints (TII.C5)"), [],
    ),
    "relaxing-request": (
        dict(trigger=_manual("opt-1"), samples=_samples(500), case=_tight_case(),
             active="opt-9"),
        _type2_refusal("refused: option 'opt-1' would relax the current operational "
                       "constraints (TII.C5)"), [],
    ),
    "requested-not-ready": (
        dict(trigger=_manual("opt-9"), samples=_samples(50)),
        _type2_refusal("admission not-ready for requested option 'opt-9'",
                       admission=NOT_READY), ["not-ready"],
    ),
    "requested-reject": (
        dict(trigger=_manual("opt-9"), samples=_samples(500, mean=1.95, spread=0.5)),
        _type2_refusal("admission reject for requested option 'opt-9'",
                       admission=REJECT_WARM), ["reject"],
    ),
    "requested-admit": (
        dict(trigger=_manual("opt-9"), samples=_samples(500)),
        _type2_admit("opt-9", COLD_FAST, "manual", ADMIT_COLD), ["admit"],
    ),
    "reject-then-admit": (
        dict(trigger=GOAL_VIOLATION, samples=_samples(500, mean=1.95, spread=0.5)),
        _type2_admit("opt-8", {"inflow_rate": (0.15, 1.0), "inflow_temp": (-10.0, 5.0)},
                     "goal-violation", ADMIT_WARM), ["reject", "admit"],
    ),
    "not-ready-stops-the-search": (
        dict(trigger=GOAL_VIOLATION, samples=_samples(50)),
        _type2_refusal("admission not-ready", "goal-violation", NOT_READY), ["not-ready"],
    ),
    "no-admissible-option": (
        dict(trigger=GOAL_VIOLATION, samples=_samples(500), active="opt-9"),
        _type2_refusal("no admissible option", "goal-violation"), [],
    ),
    "no-option-within-the-constraints": (
        dict(trigger=GOAL_VIOLATION, samples=_samples(500), case=_tight_case(),
             model=_without_domain("opt-9")),
        _type2_refusal("no admissible option", "goal-violation"), [],
    ),
    "admit": (
        dict(trigger=GOAL_VIOLATION, samples=_samples(500)),
        _type2_admit("opt-9", COLD_FAST, "goal-violation", ADMIT_COLD), ["admit"],
    ),
}


@pytest.mark.parametrize("path", TYPE2_PATHS)
def test_type2_outcome(monkeypatch, path):
    arguments, expected, statuses = TYPE2_PATHS[path]
    assert _type2(monkeypatch, **arguments) == (expected, statuses)


# --- Type III and the fail-safe, from runs ------------------------------------

def _type3_run(monkeypatch, seed):
    """The decisions ``plan_type3`` returns in an 80 s type3 run whose setpoint step to
    86 degC at 10 s is not met in 60 s, so the planner runs once, at 70.1 s."""
    decisions = []

    def recorded(*args, **kwargs):
        decisions.append(plan_type3(*args, **kwargs))
        return decisions[-1]

    plan_type3 = harness.plan_type3
    monkeypatch.setattr(harness, "plan_type3", recorded)
    scenario = replace(corpus_files.scenario("type3"), duration=80.0, seed=seed,
                       setpoint_schedule=((0.0, 50.0), (10.0, 86.0)))
    _, report = harness.run_scenario(scenario, corpus_files.system("type3"))
    assert report.decisions == [d.to_dict() for d in decisions]
    return [_outcome(d) for d in decisions]


def _type3(applied, reason, candidate, net):
    evidence_id = f"assess-{candidate}-r701"
    return [{
        "decision": {"time": 70.10000000000001, "trigger": "goal-violation",
                     "model_id": "net-controller",
                     "chosen_option": f"candidate-{candidate}" if applied else None,
                     "applied": applied, "reason": reason,
                     "assessment_evidence": [evidence_id]},
        "option": None, "candidate_net": net,
        "patches": [("attach", "Sn-B6", evidence_id)] if applied else [],
        "evidence": [(evidence_id, "runtime-assessment", "pass" if applied else "fail",
                      70.10000000000001, 3600.0)],
    }]


TYPE3_PATHS = {
    "pass": (8, _type3(True, "candidate passed assessment suite", "85edf156ecc5",
                       "85edf156ecc514542f3b5afec5f6174d5c31d611ee2802dcadeda8ecc6bd12f0")),
    "fail": (0, _type3(False, "candidate candidate-53ee68b7e434 failed assessment (TIII.B4)",
                       "53ee68b7e434", None)),
}


@pytest.mark.parametrize("path", TYPE3_PATHS)
def test_type3_outcome(monkeypatch, path):
    seed, expected = TYPE3_PATHS[path]
    assert _type3_run(monkeypatch, seed) == expected


def _fail_safe_run(monkeypatch, system):
    """The fail-safe decisions of a 0.8 s run whose SPI window breaches once, at 0.4 s,
    with the run's knowledge repository at its end."""
    repos = []

    def recorded(**fields):
        repos.append(new_repo(**fields))
        return repos[-1]

    new_repo = harness.KnowledgeRepository
    monkeypatch.setattr(harness, "KnowledgeRepository", recorded)
    scenario = replace(corpus_files.scenario("type3"), duration=0.8,
                       setpoint_schedule=((0.0, 50.0),))
    system = replace(system, spi_windows=[SpiWindow(temp_threshold=0.0, window=1.0,
                                                    threshold=0.4)])
    _, report = harness.run_scenario(scenario, system)
    decisions = [d for d in report.decisions if d["trigger"] == "spi-breach"]
    assert (report.spi_breaches, len(report.decisions)) == (1, 1)
    return decisions, repos[0]


def test_fail_safe_outcome_with_a_baseline_and_a_model(monkeypatch):
    system = corpus_files.system("type3")
    decisions, repo = _fail_safe_run(monkeypatch, system)
    assert decisions == [{
        "time": 0.4, "trigger": "spi-breach", "model_id": "net-controller",
        "chosen_option": "net-baseline", "applied": True,
        "reason": "fail-safe: SPI breach, baseline configuration restored",
        "assessment_evidence": [],
    }]
    item = repo.safety_case.evidence["failsafe-r4"]
    assert (item.kind, item.verdict, item.produced_at, item.freshness, item.payload_ref) == (
        "runtime-observation", "pass", 0.4, 3600.0, "fail-safe engaged after SPI breach")
    assert repo.safety_case.node("Sn-B7").evidence[-1] == "failsafe-r4"
    assert (repo.safety_case.revision, repo.active_option_id) == (1, "net-baseline")
    assert repo.active_net is system.net_controller
    assert repo.current_config is system.initial_config


def test_fail_safe_outcome_without_a_baseline_or_a_model(monkeypatch):
    system = replace(corpus_files.system("type0"), models=[], baseline_option_id="")
    decisions, repo = _fail_safe_run(monkeypatch, system)
    assert decisions == [{
        "time": 0.4, "trigger": "spi-breach", "model_id": "", "chosen_option": None,
        "applied": True, "reason": "fail-safe: SPI breach, baseline configuration restored",
        "assessment_evidence": [],
    }]
    assert (repo.safety_case.revision, repo.active_option_id, repo.active_net) == (0, "", None)
    assert not any(e.startswith("failsafe") for e in repo.safety_case.evidence)
