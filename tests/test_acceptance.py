"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion. The corpus
runs are executed once per session and shared across criteria.
"""
import copy
import random
import time

import pytest

from safeadapt.assurance import (
    AttachEvidence,
    CaseNode,
    EvidenceItem,
    SafetyCase,
    StaticNodeError,
    adapt_case,
    evaluate_validity,
)
from safeadapt.harness import run_scenario
from safeadapt.mapek import (
    AdaptationTrigger,
    plan_type1,
    plan_type3,
    spec_hash,
)
from safeadapt.model import EnvironmentSample, SystemConfiguration
from safeadapt.plant import PlantParams, PlantState, plant_step
from safeadapt.scenario import Scenario, Trace
from safeadapt.taxonomy import (
    ClassificationError,
    classify,
    matched_criteria,
    obligations_for,
)
import corpus_files

SPI_EPS = 1e-6


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"\nCRITERION {number} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def corpus_runs():
    return {
        name: run_scenario(corpus_files.scenario(name), corpus_files.system(name))
        for name in corpus_files.NAMES
    }


def test_criterion_1_guard_supremacy():
    rng = random.Random(101)
    type0 = corpus_files.system("type0")
    started = time.perf_counter()
    ok = True
    for _ in range(50):
        scenario = Scenario(
            id="adv",
            duration=120.0,
            setpoint_schedule=((0.0, rng.uniform(95.0, 99.0)),),
            inflow_temp_trace=Trace(((0.0, rng.uniform(5.0, 15.0)),)),
            inflow_rate_trace=Trace(((0.0, rng.uniform(0.001, 0.01)),)),
            guard_enabled=True,
            initial_tank_temp=rng.uniform(89.0, 89.9),
        )
        from safeadapt.harness import SystemDescription

        system = SystemDescription(
            plant=PlantParams(),
            initial_config=SystemConfiguration("pid", {
                "kp": rng.uniform(20000.0, 80000.0), "ki": 0.0, "kd": 0.0,
            }),
            models=type0.models,
            safety_case=type0.safety_case,
            baseline_option_id="tel-5",
            initial_option_id="tel-5",
        )
        rows, report = run_scenario(scenario, system)
        fields = [r.split(",") for r in list(rows)[1:]]
        first_over = next(
            (float(f[0]) for f in fields if float(f[4]) > 90.0), None
        )
        first_trip = next((float(f[0]) for f in fields if f[10] == "1"), None)
        ok = ok and report.hazard_count == 0
        ok = ok and first_over is not None and first_trip is not None
        ok = ok and first_trip - first_over <= 2.0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(1, "guard supremacy", ok)


def test_criterion_2_closed_option_set(corpus_runs):
    rng = random.Random(202)
    model = corpus_files.system("type1").models[0]
    option_ids = {o.id for o in model.options}
    ok = True
    for _ in range(120):
        active = rng.choice(sorted(option_ids) + [""])
        decision = plan_type1(model, AdaptationTrigger("goal-violation"), active)
        if decision.applied:
            ok = ok and decision.chosen_option in option_ids
    for _ in range(30):
        rogue = f"opt-{rng.randint(100, 999)}"
        decision = plan_type1(
            model, AdaptationTrigger("manual", requested_option_id=rogue)
        )
        ok = ok and not decision.applied and rogue in decision.reason
    _, report = corpus_runs["type1"]
    for decision in report.decisions:
        if decision["applied"]:
            ok = ok and decision["chosen_option"] in option_ids
    ok = ok and any(
        not d["applied"] and "opt-99" in d["reason"] for d in report.decisions
    )
    _verdict(2, "closed option set", ok)


def test_criterion_3_constrained_assurance(corpus_runs):
    rows, report = corpus_runs["type2"]
    applied = [d for d in report.decisions if d["applied"]]
    ok = len(applied) >= 1 and applied[0]["chosen_option"] == "opt-9"
    admission = applied[0].get("admission") if applied else None
    ok = ok and admission is not None and admission["n"] >= 300
    ok = ok and admission["variables"]["inflow_temp"]["upper_cb"] <= 2.0
    ok = ok and report.runtime_criteria["tii_c5_constraints_monotone"] is True
    # The warm ramp (inflow > 2 degC after t = 2400 s) must invalidate
    # the constraint context before the run ends.
    invalid = [
        e for e in report.case_validity_timeline if not e["valid"] and e["time"] > 2400.0
    ]
    ok = ok and len(invalid) >= 1 and invalid[0]["time"] <= 2400.0 + 3600.0
    _verdict(3, "constrained assurance", ok)


def test_criterion_4_dynamic_assurance(corpus_runs):
    type3 = corpus_files.system("type3")
    suite = type3.assessment_suite()
    model, case, base = type3.models[0], type3.safety_case, type3.net_controller
    ok = True
    proposals = 0
    failed_hashes = set()
    for seed in range(200):
        decision = plan_type3(model, AdaptationTrigger("goal-violation"), base, suite, seed, case)
        proposals += 1
        item = decision.evidence_items[0]
        if item.verdict == "fail":
            failed_hashes.add(item.payload_ref)
            ok = ok and not decision.applied
        if decision.applied:
            ok = ok and item.verdict == "pass"
            ok = ok and spec_hash(decision.candidate_net) not in failed_hashes
    ok = ok and proposals >= 200

    rows, report = corpus_runs["type3"]
    ok = ok and report.runtime_criteria["tiii_b4_never_applied_failed"] is True
    ok = ok and report.spi_breaches >= 1
    for decision in report.decisions:
        if decision["applied"] and decision["chosen_option"].startswith("candidate-"):
            ok = ok and len(decision["assessment_evidence"]) == 1
    # Fail-safe fires on the very tick the near-limit window exceeds
    # 60 s; the trace shows the accumulator at its 60.0 s ceiling on the
    # prior row and reset to zero on the breach row itself.
    spi = [float(r.split(",")[11]) for r in list(rows)[1:]]
    times = [float(r.split(",")[0]) for r in list(rows)[1:]]
    first_breach_row = next(
        times[i + 1] for i in range(len(spi) - 1)
        if spi[i] >= 60.0 - SPI_EPS and spi[i + 1] == 0.0
    )
    first_failsafe = next(
        d["time"] for d in report.decisions if d["trigger"] == "spi-breach"
    )
    ok = ok and first_failsafe == first_breach_row
    _verdict(4, "dynamic assurance", ok)


def _fine_oracle_error(rows, name):
    """Replay the recorded inputs at dt/100 via the per-tick closed form."""
    scenario, params = corpus_files.scenario(name), corpus_files.system(name).plant
    tick = scenario.tick
    volume, capacity = params.volume, params.heat_capacity
    substeps = 100
    h = tick / substeps
    temp = scenario.initial_tank_temp
    worst = 0.0
    for row in list(rows)[1:]:
        f = row.split(",")
        inflow_temp, inflow_rate = float(f[1]), float(f[2])
        power, valve = float(f[5]), f[6] == "1"
        q = inflow_rate if valve else 0.0
        b = q / volume
        a = b * inflow_temp + power / capacity
        if b > 0.0:
            equilibrium = a / b
            temp = equilibrium + (temp - equilibrium) * (1.0 - h * b) ** substeps
        else:
            temp = temp + tick * a
        worst = max(worst, abs(temp - float(f[4])))
    return worst


def test_criterion_5_integrator_oracle(corpus_runs):
    ok = True
    for name, (rows, _) in corpus_runs.items():
        error = _fine_oracle_error(rows, name)
        ok = ok and error <= 0.05
    # Hand-derived steady state: 10 degC inflow at 0.1 L/s balanced by
    # 4186 W holds the 50 L tank at 20 degC.
    state = PlantState(tank_temp=20.0)
    params = PlantParams()
    for k in range(1000):
        env = EnvironmentSample(k * 0.1, 10.0, 0.1, 20.0, state.outflow_temp)
        state = PlantState._make(plant_step(state, params, env, 4186.0))
    ok = ok and round(state.tank_temp, 3) == 20.0
    _verdict(5, "integrator oracle", ok)


def _all_well_formed_descriptors():
    import itertools

    from safeadapt.taxonomy import AdaptationDescriptor

    bools = (False, True)
    for values in itertools.product(bools, bools, bools,
                                    ("none", "unconditional", "domain-conditional"),
                                    bools, bools, bools):
        (affects, independence, enumerated, safety,
         constraints, assessment, in_repo) = values
        if safety != "none" and not enumerated:
            continue
        yield AdaptationDescriptor(
            affects_safety_critical=affects,
            independence_argued=independence,
            options_enumerated_at_design_time=enumerated,
            design_time_safety=safety,
            domain_constraints_declared=constraints,
            runtime_assessment_declared=assessment,
            case_in_knowledge_repo=in_repo,
        )


def test_criterion_6_taxonomy_goldens():
    from safeadapt.taxonomy import AdaptationDescriptor

    worked = {
        "T0": AdaptationDescriptor(
            affects_safety_critical=False, independence_argued=True),
        "TI": AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=True,
            design_time_safety="unconditional"),
        "TII": AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=True,
            design_time_safety="domain-conditional",
            domain_constraints_declared=True),
        "TIII": AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=False,
            runtime_assessment_declared=True,
            case_in_knowledge_repo=True),
    }
    ok = all(classify(desc) == t for t, desc in worked.items())
    ok = ok and [len(obligations_for(t)) for t in ("T0", "TI", "TII", "TIII")] == [2, 4, 5, 7]
    full_counts = {"T0": 1, "TI": 3, "TII": 4, "TIII": 4}
    for descriptor in _all_well_formed_descriptors():
        matches = [
            t for t in full_counts
            if len(matched_criteria(descriptor, t)) == full_counts[t]
        ]
        ok = ok and len(matches) <= 1
        try:
            ok = ok and matches == [classify(descriptor)]
        except ClassificationError:
            ok = ok and matches == []
    _verdict(6, "taxonomy goldens", ok)


def test_criterion_7_determinism(corpus_runs):
    ok = True
    for name in corpus_files.NAMES:
        first = "\n".join(corpus_runs[name][0]).encode()
        second = "\n".join(
            run_scenario(corpus_files.scenario(name), corpus_files.system(name))[0]).encode()
        ok = ok and first == second
    _verdict(7, "determinism", ok)


def _random_case(rng):
    children = []
    nodes = {}
    evidence = {}
    n_solutions = rng.randint(2, 4)
    for i in range(n_solutions):
        sid = f"Sn{i}"
        lifecycle = rng.choice(("static", "dynamic"))
        ev_ids = []
        for j in range(rng.randint(0, 2)):
            eid = f"ev{i}-{j}"
            evidence[eid] = EvidenceItem(
                id=eid,
                kind="runtime-observation",
                verdict=rng.choice(("pass", "pass", "fail")),
                produced_at=rng.uniform(0.0, 50.0),
                freshness=rng.uniform(10.0, 200.0),
            )
            ev_ids.append(eid)
        nodes[sid] = CaseNode(sid, "solution", lifecycle=lifecycle, evidence=ev_ids)
        children.append(sid)
    nodes["G"] = CaseNode("G", "goal", children=children)
    return SafetyCase(nodes=nodes, root="G", evidence=evidence)


def test_criterion_8_validity_semantics():
    rng = random.Random(808)
    ok = True
    counter = 0
    for _ in range(4000):
        case = _random_case(rng)
        now = rng.uniform(0.0, 300.0)
        statics = [n for n in case.nodes.values()
                   if n.kind == "solution" and n.lifecycle == "static"]
        dynamics = [n for n in case.nodes.values()
                    if n.kind == "solution" and n.lifecycle == "dynamic"]
        fresh_item = EvidenceItem(
            id="ev-new", kind="runtime-observation", verdict="pass",
            produced_at=now, freshness=1e6,
        )

        # Static immutability: a patch stream touching a static node is
        # rejected wholesale and the case survives bit-identical.
        if statics:
            counter += 1
            before = copy.deepcopy(case)
            targets = [rng.choice(statics).id]
            if dynamics:
                targets.insert(rng.randint(0, 1), rng.choice(dynamics).id)
            patches = [AttachEvidence(t, fresh_item) for t in targets]
            try:
                adapt_case(case, patches, now=now)
                ok = False
            except StaticNodeError:
                pass
            ok = ok and case == before

        # Evidence monotonicity: attaching passing evidence never
        # un-supports a node that was supported.
        if dynamics:
            counter += 1
            grown = adapt_case(
                case, [AttachEvidence(rng.choice(dynamics).id, fresh_item)], now=now
            )
            ok = ok and evaluate_validity(grown, now) <= evaluate_validity(case, now)
            ok = ok and grown.revision == case.revision + 1

        # Freshness boundary: inclusive at exactly produced_at+freshness.
        # Values are representable exactly (multiples of 1/8) so the
        # boundary subtraction carries no rounding.
        counter += 1
        item = EvidenceItem(
            id="e", kind="runtime-assessment", verdict="pass",
            produced_at=rng.randint(0, 800) / 8.0,
            freshness=rng.randint(8, 800) / 8.0,
        )
        argued = SafetyCase(
            nodes={"G": CaseNode("G", "goal", children=["Sn"]),
                   "Sn": CaseNode("Sn", "solution", evidence=["e"])},
            root="G", evidence={"e": item},
        )
        boundary = item.produced_at + item.freshness
        ok = ok and evaluate_validity(argued, boundary) == frozenset()
        ok = ok and evaluate_validity(argued, boundary + 1e-3) == {"G", "Sn"}
        ok = ok and evaluate_validity(argued, item.produced_at) == frozenset()

    ok = ok and counter >= 10_000
    _verdict(8, "validity semantics", ok)
