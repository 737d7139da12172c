"""Shipped regression corpus: one system + scenario per adaptation type.

The four systems exercise, in order: guard supremacy under an
adversarial controller, closed-set option selection, statistically
admitted domain-constrained adaptation, and run-time candidate
assessment with SPI-triggered fail-safe.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .assurance import EvidenceItem, CaseNode, SafetyCase, save_case
from .controller import NetControllerSpec, weight_count
from .mapek import AdaptationGoal, AdmissionPolicy, spec_hash
from .model import (
    AdaptationModel,
    AdaptationOption,
    OperationalDomain,
    ParameterConstraint,
    SystemConfiguration,
)
from .plant import PlantParams
from .scenario import Scenario, Trace, save_scenario
from .spi import SpiWindow
from .taxonomy import AdaptationDescriptor
from .harness import SystemDescription

#: Wide deployment domain for the conservative option #1.
PERMISSIVE_DOMAIN = OperationalDomain({
    "inflow_temp": (-10.0, 40.0),
    "inflow_rate": (0.01, 1.0),
})

#: Cold, fast-inflow domain of the aggressive option #9.
COLD_FAST_DOMAIN = OperationalDomain({
    "inflow_temp": (-10.0, 2.0),
    "inflow_rate": (0.2, 1.0),
})


def _design_evidence(eid: str, text: str) -> EvidenceItem:
    return EvidenceItem(
        id=eid, kind="design-analysis", verdict="pass",
        produced_at=0.0, freshness=None, payload_ref=text,
    )


def _design_simulation(eid: str, text: str) -> EvidenceItem:
    return EvidenceItem(
        id=eid, kind="design-simulation", verdict="pass",
        produced_at=0.0, freshness=None, payload_ref=text,
    )


# --- safety cases -----------------------------------------------------------

def type0_case() -> SafetyCase:
    evidence = {
        "ev-independence": _design_evidence(
            "ev-independence", "monitor independence analysis"),
        "ev-monitor-verif": _design_evidence(
            "ev-monitor-verif", "monitor detection and response verification"),
        "ev-case-review": _design_evidence(
            "ev-case-review", "design review: case frozen at release"),
    }
    nodes = {
        "G1": CaseNode("G1", "goal", "The water heater is acceptably safe in operation."),
        "S1": CaseNode("S1", "strategy",
                       "Argue over monitor integrity and adaptation non-interference.",
                       children=["G2", "G3", "G4"]),
        "G2": CaseNode("G2", "goal",
                       "Telemetry adaptation cannot interfere with the safety monitor.",
                       children=["Sn1"], discharges={"T0.B1"}),
        "Sn1": CaseNode("Sn1", "solution", "Independence analysis of the monitor path.",
                        evidence=["ev-independence"]),
        "G3": CaseNode("G3", "goal",
                       "The monitor reliably detects and mitigates over-temperature.",
                       children=["Sn2"]),
        "Sn2": CaseNode("Sn2", "solution", "Monitor verification results.",
                        evidence=["ev-monitor-verif"]),
        "G4": CaseNode("G4", "goal",
                       "The safety case is fixed at design time and never changes.",
                       children=["Sn3"], discharges={"T0.B2"}),
        "Sn3": CaseNode("Sn3", "solution", "Release review of the frozen case.",
                        evidence=["ev-case-review"]),
    }
    nodes["G1"].children = ["S1"]
    return SafetyCase(nodes=nodes, root="G1", evidence=evidence)


def type1_case() -> SafetyCase:
    texts = {
        "TI.B1": "Only the ten design-time gain sets are ever selected.",
        "TI.B2": "Each gain set is safe across the whole operational domain.",
        "TI.B3": "Gain changes are applied atomically between control ticks.",
        "TI.B4": "The safety case is fixed at design time.",
    }
    evidence = {}
    nodes = {
        "G1": CaseNode("G1", "goal", "PID gain adaptation is acceptably safe.",
                       children=["S1"]),
        "S1": CaseNode("S1", "strategy", "Argue each static obligation in turn.",
                       children=[]),
    }
    for index, (obligation, text) in enumerate(texts.items(), start=1):
        goal_id, sol_id, ev_id = f"G-B{index}", f"Sn-B{index}", f"ev-b{index}"
        evidence[ev_id] = _design_simulation(ev_id, text)
        nodes[goal_id] = CaseNode(goal_id, "goal", text, children=[sol_id])
        nodes[sol_id] = CaseNode(sol_id, "solution", f"Design evidence: {text}",
                                 discharges={obligation}, evidence=[ev_id])
        nodes["S1"].children.append(goal_id)
    return SafetyCase(nodes=nodes, root="G1", evidence=evidence)


def type2_case(initial_domain: OperationalDomain = PERMISSIVE_DOMAIN) -> SafetyCase:
    evidence = {
        "ev-b1": _design_evidence("ev-b1", "planner membership proof"),
        "ev-b2": _design_simulation("ev-b2", "per-option domain-conditional safety study"),
        "ev-b3": _design_evidence("ev-b3", "atomic executor analysis"),
        "ev-b4-init": _design_simulation(
            "ev-b4-init", "deployment check: permissive domain holds"),
        "ev-b5": _design_simulation(
            "ev-b5", "constraint-violation response study (guard + shutdown)"),
    }
    nodes = {
        "G1": CaseNode("G1", "goal",
                       "Domain-constrained gain adaptation is acceptably safe.",
                       children=["S1"]),
        "S1": CaseNode("S1", "strategy",
                       "Argue static obligations; constrain and monitor the domain.",
                       children=["C-DOM", "G-B1", "G-B2", "G-B3", "G-B4", "G-B5"]),
        "C-DOM": CaseNode("C-DOM", "context",
                          "Current operational domain constraints.",
                          lifecycle="dynamic", constraint=initial_domain),
        "G-B1": CaseNode("G-B1", "goal",
                         "Only design-time options are executed.", children=["Sn-B1"]),
        "Sn-B1": CaseNode("Sn-B1", "solution", "Planner membership proof.",
                          discharges={"TII.B1"}, evidence=["ev-b1"]),
        "G-B2": CaseNode("G-B2", "goal",
                         "Options are safe subject to domain assumptions.",
                         children=["Sn-B2"]),
        "Sn-B2": CaseNode("Sn-B2", "solution", "Per-option safety study.",
                          discharges={"TII.B2"}, evidence=["ev-b2"]),
        "G-B3": CaseNode("G-B3", "goal",
                         "Adaptation actions execute safely.", children=["Sn-B3"]),
        "Sn-B3": CaseNode("Sn-B3", "solution", "Atomic executor analysis.",
                          discharges={"TII.B3"}, evidence=["ev-b3"]),
        "G-B4": CaseNode("G-B4", "goal",
                         "The current domain satisfies the active option's constraints.",
                         lifecycle="dynamic", children=["Sn-B4"]),
        "Sn-B4": CaseNode("Sn-B4", "solution",
                          "Admission statistics collected at run time.",
                          lifecycle="dynamic", discharges={"TII.B4"},
                          evidence=["ev-b4-init"]),
        "G-B5": CaseNode("G-B5", "goal",
                         "Constraint violations are safely handled.",
                         lifecycle="dynamic", children=["Sn-B5"]),
        "Sn-B5": CaseNode("Sn-B5", "solution",
                          "Violation-response study and run-time observations.",
                          lifecycle="dynamic", discharges={"TII.B5"},
                          evidence=["ev-b5"]),
    }
    return SafetyCase(nodes=nodes, root="G1", evidence=evidence)


def type3_case(baseline: Optional[NetControllerSpec] = None) -> SafetyCase:
    if baseline is None:
        baseline = baseline_net()
    static_texts = {
        "TIII.B1": "The executor applies network updates atomically.",
        "TIII.B2": "The shipped baseline is reasonably safe per design studies.",
        "TIII.B3": "The assessment suite is a suitable run-time decision procedure.",
        "TIII.B4": "Candidates judged unsafe are never applied.",
        "TIII.B5": "SPI changes are detected and answered by fail-safe.",
    }
    evidence = {
        "ev-assess-baseline": EvidenceItem(
            id="ev-assess-baseline", kind="runtime-assessment", verdict="pass",
            produced_at=0.0, freshness=7200.0, payload_ref=spec_hash(baseline),
        ),
        "ev-spi-init": EvidenceItem(
            id="ev-spi-init", kind="runtime-observation", verdict="pass",
            produced_at=0.0, freshness=7200.0, payload_ref="SPI monitoring armed",
        ),
    }
    nodes = {
        "G1": CaseNode("G1", "goal",
                       "Network controller adaptation is acceptably safe.",
                       children=["S1"]),
        "S1": CaseNode("S1", "strategy",
                       "Positive trust balance: static rigour plus run-time assessment.",
                       children=[]),
        "A-SPI": CaseNode("A-SPI", "assumption",
                          "Monitored SPIs remain under their thresholds.",
                          lifecycle="dynamic", predicate="spi-under-threshold"),
        "G-B6": CaseNode("G-B6", "goal",
                         "The active network passed the assessment suite.",
                         lifecycle="dynamic", children=["Sn-B6"]),
        "Sn-B6": CaseNode("Sn-B6", "solution",
                          "Latest assessment results for the active network.",
                          lifecycle="dynamic", discharges={"TIII.B6"},
                          evidence=["ev-assess-baseline"]),
        "G-B7": CaseNode("G-B7", "goal",
                         "Operation continues to be safe per live SPI data.",
                         lifecycle="dynamic", children=["Sn-B7"]),
        "Sn-B7": CaseNode("Sn-B7", "solution", "Windowed SPI observations.",
                          lifecycle="dynamic", discharges={"TIII.B7"},
                          evidence=["ev-spi-init"]),
    }
    for index, (obligation, text) in enumerate(static_texts.items(), start=1):
        goal_id, sol_id, ev_id = f"G-B{index}", f"Sn-B{index}", f"ev-b{index}"
        evidence[ev_id] = _design_evidence(ev_id, text)
        nodes[goal_id] = CaseNode(goal_id, "goal", text, children=[sol_id])
        nodes[sol_id] = CaseNode(sol_id, "solution", f"Design evidence: {text}",
                                 discharges={obligation}, evidence=[ev_id])
    nodes["S1"].children = [
        "G-B1", "G-B2", "G-B3", "G-B4", "G-B5", "A-SPI", "G-B6", "G-B7",
    ]
    return SafetyCase(nodes=nodes, root="G1", evidence=evidence)


# --- adaptation models ------------------------------------------------------

_PID_CONSTRAINTS = (
    ParameterConstraint("interval", "kp", low=0.0, high=5000.0),
    ParameterConstraint("interval", "ki", low=0.0, high=50.0),
    ParameterConstraint("interval", "kd", low=0.0, high=2000.0),
    # Aggressive proportional gains need derivative damping.
    ParameterConstraint("conditional", "kd", low=10.0, condition=("kp", 1000.0)),
)

_PID_OPTIONS = (
    # (id, kp, ki, kd, design rise time, domain)
    ("opt-1", 50.0, 0.5, 0.0, 120.0, PERMISSIVE_DOMAIN),
    ("opt-2", 100.0, 1.0, 0.0, 110.0,
     OperationalDomain({"inflow_temp": (-10.0, 35.0), "inflow_rate": (0.01, 1.0)})),
    ("opt-3", 200.0, 1.0, 10.0, 105.0,
     OperationalDomain({"inflow_temp": (-10.0, 30.0), "inflow_rate": (0.01, 1.0)})),
    ("opt-4", 400.0, 2.0, 20.0, 100.0,
     OperationalDomain({"inflow_temp": (-10.0, 25.0), "inflow_rate": (0.05, 1.0)})),
    ("opt-5", 600.0, 2.0, 50.0, 90.0,
     OperationalDomain({"inflow_temp": (-10.0, 20.0), "inflow_rate": (0.05, 1.0)})),
    ("opt-6", 900.0, 3.0, 80.0, 85.0,
     OperationalDomain({"inflow_temp": (-10.0, 15.0), "inflow_rate": (0.1, 1.0)})),
    ("opt-7", 1200.0, 4.0, 100.0, 75.0,
     OperationalDomain({"inflow_temp": (-10.0, 10.0), "inflow_rate": (0.1, 1.0)})),
    ("opt-8", 2000.0, 6.0, 200.0, 60.0,
     OperationalDomain({"inflow_temp": (-10.0, 5.0), "inflow_rate": (0.15, 1.0)})),
    ("opt-9", 3000.0, 10.0, 500.0, 40.0, COLD_FAST_DOMAIN),
    ("opt-10", 1500.0, 5.0, 150.0, 70.0,
     OperationalDomain({"inflow_temp": (-10.0, 8.0), "inflow_rate": (0.1, 1.0)})),
)


def pid_options(model_id: str, with_domains: bool) -> tuple[AdaptationOption, ...]:
    options = []
    for oid, kp, ki, kd, rise, domain in _PID_OPTIONS:
        options.append(AdaptationOption(
            id=oid,
            model_id=model_id,
            assignment={"kp": kp, "ki": ki, "kd": kd},
            domain=domain if with_domains else None,
            design_time_evidence=(f"ev-sim-{oid}",),
            design_rise_time=rise,
        ))
    return tuple(options)


def type0_model() -> AdaptationModel:
    options = tuple(
        AdaptationOption(
            id=f"tel-{seconds}", model_id="telemetry-interval",
            assignment={"telemetry_interval": float(seconds)},
            design_rise_time=None,
        )
        for seconds in (1, 5, 30)
    )
    return AdaptationModel(
        id="telemetry-interval",
        parameters=("telemetry_interval",),
        constraints=(ParameterConstraint("interval", "telemetry_interval",
                                         low=1.0, high=60.0),),
        descriptor=AdaptationDescriptor(
            affects_safety_critical=False,
            independence_argued=True,
            options_enumerated_at_design_time=True,
        ),
        options=options,
    )


def type1_model() -> AdaptationModel:
    return AdaptationModel(
        id="pid-gains-static",
        parameters=("kp", "ki", "kd"),
        constraints=_PID_CONSTRAINTS,
        descriptor=AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=True,
            design_time_safety="unconditional",
        ),
        options=pid_options("pid-gains-static", with_domains=False),
    )


def type2_model() -> AdaptationModel:
    return AdaptationModel(
        id="pid-gains-constrained",
        parameters=("kp", "ki", "kd"),
        constraints=_PID_CONSTRAINTS,
        descriptor=AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=True,
            design_time_safety="domain-conditional",
            domain_constraints_declared=True,
            case_in_knowledge_repo=True,
        ),
        options=pid_options("pid-gains-constrained", with_domains=True),
    )


def type3_model() -> AdaptationModel:
    return AdaptationModel(
        id="net-controller",
        parameters=("weights", "layer_sizes"),
        descriptor=AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=False,
            runtime_assessment_declared=True,
            case_in_knowledge_repo=True,
        ),
        options=None,
    )


# --- baseline network controller -------------------------------------------

def baseline_net() -> NetControllerSpec:
    """Hand-built proportional-with-damping network, frozen after tuning.

    Hidden unit 0 computes tanh(2 (setpoint - outflow) - 2 dT/dt); the
    output stage amplifies it so the logistic squash acts nearly as a
    soft on/off heating command around the setpoint.
    """
    sizes = (4,)
    weights = [0.0] * weight_count(sizes)
    # Layer 1: 5x4 matrix (row per input), then 4 biases.
    weights[0 * 4 + 0] = 2.0   # setpoint -> unit 0
    weights[1 * 4 + 0] = -2.0  # outflow temp -> unit 0
    weights[4 * 4 + 0] = -2.0  # d(outflow)/dt -> unit 0
    # Output layer: 4x1 matrix after 5*4 + 4 = 24 entries.
    weights[24] = 8.0
    return NetControllerSpec(layer_sizes=sizes, weights=tuple(weights))


#: Plant sized so the 60 s rise-time goal is attainable at 10 kW.
TYPE3_PLANT = PlantParams(volume=4.0)


def assessment_scenarios() -> tuple[Scenario, ...]:
    """Suite probing setpoint steps, inflow extremes, and the worst case."""
    def scn(sid, duration, schedule, tin, rate, init):
        return Scenario(
            id=sid, duration=duration, setpoint_schedule=schedule,
            inflow_temp_trace=Trace.constant(tin),
            inflow_rate_trace=Trace.constant(rate),
            tick=0.1, guard_enabled=False, initial_tank_temp=init,
        )

    return (
        scn("suite-step-small", 90.0, ((0.0, 50.0), (5.0, 52.0)), 10.0, 0.02, 50.0),
        scn("suite-step-large", 90.0, ((0.0, 45.0), (5.0, 55.0)), 10.0, 0.02, 45.0),
        scn("suite-cold-inflow", 60.0, ((0.0, 55.0),), 0.5, 0.05, 55.0),
        scn("suite-hot-inflow", 60.0, ((0.0, 55.0),), 30.0, 0.05, 55.0),
        scn("suite-low-flow", 60.0, ((0.0, 60.0),), 10.0, 0.005, 60.0),
        scn("suite-worst-case", 120.0, ((0.0, 80.0), (5.0, 85.0)), 0.5, 0.008, 80.0),
    )


# --- systems ----------------------------------------------------------------

def type0_system() -> SystemDescription:
    return SystemDescription(
        plant=PlantParams(),
        initial_config=SystemConfiguration("pid", {
            # Deliberately adversarial gains: the guard, not the
            # controller, is what keeps this system hazard-free.
            "kp": 50000.0, "ki": 0.0, "kd": 0.0,
            "telemetry_interval": 5.0,
        }),
        models=[type0_model()],
        safety_case=type0_case(),
        baseline_option_id="tel-5",
        initial_option_id="tel-5",
    )


def type1_system() -> SystemDescription:
    return SystemDescription(
        plant=PlantParams(),
        initial_config=SystemConfiguration("pid", {"kp": 50.0, "ki": 0.5, "kd": 0.0}),
        models=[type1_model()],
        safety_case=type1_case(),
        baseline_option_id="opt-1",
        initial_option_id="opt-1",
    )


def type2_system() -> SystemDescription:
    return SystemDescription(
        plant=PlantParams(),
        initial_config=SystemConfiguration("pid", {"kp": 50.0, "ki": 0.5, "kd": 0.0}),
        models=[type2_model()],
        safety_case=type2_case(),
        admission_policy=AdmissionPolicy(),
        baseline_option_id="opt-1",
        initial_option_id="opt-1",
    )


def type3_system() -> SystemDescription:
    baseline = baseline_net()
    return SystemDescription(
        plant=TYPE3_PLANT,
        initial_config=SystemConfiguration("parametric-net", {}),
        models=[type3_model()],
        safety_case=type3_case(baseline),
        goal=AdaptationGoal(),
        spi_windows=[SpiWindow()],
        baseline_option_id="net-baseline",
        initial_option_id="net-baseline",
        net_controller=baseline,
        assessment_scenarios=assessment_scenarios(),
    )


# --- scenarios --------------------------------------------------------------

def type0_scenario() -> Scenario:
    return Scenario(
        id="type0-guard-supremacy",
        duration=3600.0,
        setpoint_schedule=((0.0, 95.0),),
        inflow_temp_trace=Trace.constant(10.0),
        inflow_rate_trace=Trace.constant(0.01),
        seed=1,
        guard_enabled=True,
        initial_tank_temp=85.0,
    )


def type1_scenario() -> Scenario:
    return Scenario(
        id="type1-closed-options",
        duration=3600.0,
        setpoint_schedule=(
            (0.0, 30.0), (600.0, 35.0), (1200.0, 40.0),
            (1800.0, 45.0), (2400.0, 50.0), (3000.0, 55.0),
        ),
        inflow_temp_trace=Trace.constant(10.0),
        inflow_rate_trace=Trace.constant(0.01),
        seed=2,
        guard_enabled=True,
        initial_tank_temp=30.0,
        manual_triggers=((1500.0, "opt-99"),),
    )


def type2_scenario() -> Scenario:
    # Cold wiggly inflow for 2400 s, then a warm ramp breaking the
    # admitted cold-water constraint.
    points = []
    for k in range(0, 25):
        points.append((k * 100.0, 0.8 if k % 2 == 0 else 1.4))
    points.extend(((2500.0, 5.0), (3600.0, 5.0)))
    return Scenario(
        id="type2-cold-climate",
        duration=3600.0,
        setpoint_schedule=((0.0, 40.0),),
        inflow_temp_trace=Trace(tuple(points), interp="linear"),
        inflow_rate_trace=Trace.constant(0.5),
        seed=3,
        guard_enabled=True,
        initial_tank_temp=40.0,
        manual_triggers=((2000.0, "opt-1"),),
    )


def type3_scenario() -> Scenario:
    return Scenario(
        id="type3-dynamic-assurance",
        duration=3600.0,
        setpoint_schedule=((0.0, 50.0), (600.0, 86.0), (900.0, 60.0)),
        inflow_temp_trace=Trace.constant(10.0),
        inflow_rate_trace=Trace.constant(0.02),
        seed=8,
        guard_enabled=True,
        initial_tank_temp=50.0,
    )


CORPUS = {
    "type0": (type0_system, type0_scenario),
    "type1": (type1_system, type1_scenario),
    "type2": (type2_system, type2_scenario),
    "type3": (type3_system, type3_scenario),
}


def write_corpus(directory: Union[str, Path]) -> list[Path]:
    """Write system, safety-case, and scenario files for every type."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (system_fn, scenario_fn) in CORPUS.items():
        system = system_fn()
        case_path = directory / f"{name}_case.json"
        save_case(system.safety_case, case_path)
        system_path = directory / f"{name}_system.json"
        payload = system.to_dict()
        del payload["safety_case"]
        payload["safety_case_path"] = case_path.name
        with open(system_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        scenario_path = directory / f"{name}_scenario.json"
        save_scenario(scenario_fn(), scenario_path)
        written.extend((system_path, case_path, scenario_path))
    return written
