"""Simulation harness: system description files, the tick pipeline, traces.

Per-tick order: sense -> guard -> control -> plant -> hazard -> SPI ->
MAPE phases. A fail-safe triggered by an SPI breach preempts any other
adaptation within the same tick.

Every adaptation model is classified before the first tick, so a system
with an unclassifiable model fails with ``ClassificationError`` (CLI exit
2) without running. The first model's type picks the planner; manual
triggers are ignored for Type 0 and Type III.
"""
from __future__ import annotations

import copy
import json
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from . import taxonomy
from .assurance import SafetyCase, current_constraints, evaluate_validity, load_case
from .controller import (
    NetControllerSpec,
    PidConfig,
    PidState,
    net_compute,
    pid_compute,
)
from .mapek import (
    AdaptationDecision,
    AdaptationGoal,
    AdaptationTrigger,
    AdmissionPolicy,
    AssessmentSuite,
    GoalTracker,
    execute_adaptation,
    fail_safe,
    plan_type1,
    plan_type2,
    plan_type3,
    spec_hash,
)
from .model import (
    EnvironmentSample,
    KnowledgeRepository,
    SystemConfiguration,
    ValidationError,
    domain_subset,
    history_capacity,
)
from .model import AdaptationModel
from .plant import GuardState, PlantParams, PlantState, guard_step, hazard_update, plant_step
from .scenario import Scenario
from .spi import SpiWindow, spi_breached, spi_update

#: Planner cadence and damping, s.
TYPE2_PLAN_INTERVAL = 10.0
ADAPTATION_COOLDOWN = 60.0
TYPE3_ASSESS_COOLDOWN = 120.0

_GOAL_VIOLATION = AdaptationTrigger("goal-violation")


@dataclass
class SystemDescription:
    plant: PlantParams
    initial_config: SystemConfiguration
    models: list[AdaptationModel]
    safety_case: SafetyCase
    goal: AdaptationGoal = field(default_factory=AdaptationGoal)
    admission_policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    spi_windows: list[SpiWindow] = field(default_factory=list)
    baseline_option_id: str = ""
    initial_option_id: str = ""
    net_controller: Optional[NetControllerSpec] = None
    assessment_scenarios: tuple[Scenario, ...] = ()

    def assessment_suite(self) -> Optional[AssessmentSuite]:
        if not self.assessment_scenarios:
            return None
        return AssessmentSuite(
            scenarios=self.assessment_scenarios, plant=self.plant, goal=self.goal
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "plant": self.plant.to_dict(),
            "initial_configuration": self.initial_config.to_dict(),
            "adaptation_models": [m.to_dict() for m in self.models],
            "safety_case": self.safety_case.to_dict(),
            "goal": self.goal.to_dict(),
            "admission_policy": self.admission_policy.to_dict(),
            "spi_windows": [w.to_dict() for w in self.spi_windows],
            "baseline_option_id": self.baseline_option_id,
            "initial_option_id": self.initial_option_id,
        }
        if self.net_controller is not None:
            out["net_controller"] = self.net_controller.to_dict()
        if self.assessment_scenarios:
            out["assessment_scenarios"] = [s.to_dict() for s in self.assessment_scenarios]
        return out

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], base_dir: Optional[Path] = None
    ) -> "SystemDescription":
        if "safety_case" in data:
            case = SafetyCase.from_dict(data["safety_case"])
        elif "safety_case_path" in data:
            path = Path(data["safety_case_path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            case = load_case(path)
        else:
            raise ValidationError("system description lacks a safety case")
        net = data.get("net_controller")
        return cls(
            plant=PlantParams.from_dict(data.get("plant", {})) if data.get("plant")
            else PlantParams(),
            initial_config=SystemConfiguration.from_dict(data["initial_configuration"]),
            models=[AdaptationModel.from_dict(m) for m in data["adaptation_models"]],
            safety_case=case,
            goal=AdaptationGoal.from_dict(data["goal"]) if "goal" in data
            else AdaptationGoal(),
            admission_policy=AdmissionPolicy.from_dict(data["admission_policy"])
            if "admission_policy" in data else AdmissionPolicy(),
            spi_windows=[SpiWindow.from_dict(w) for w in data.get("spi_windows", ())],
            baseline_option_id=data.get("baseline_option_id", ""),
            initial_option_id=data.get("initial_option_id", data.get("baseline_option_id", "")),
            net_controller=None if net is None else NetControllerSpec.from_dict(net),
            assessment_scenarios=tuple(
                Scenario.from_dict(s) for s in data.get("assessment_scenarios", ())
            ),
        )


def load_system(path: Union[str, Path]) -> SystemDescription:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        return SystemDescription.from_dict(json.load(fh), base_dir=path.parent)


def save_system(system: SystemDescription, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


TRACE_HEADER = (
    "t,inflow_temp,inflow_rate,setpoint,outflow_temp,power,valve_open,"
    "active_option,hazard_accum,hazard_count,guard_tripped,spi_near_limit,"
    "case_revision,case_valid"
)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


@dataclass
class RunReport:
    scenario_id: str
    hazard_count: int = 0
    guard_trips: int = 0
    decisions: list[dict[str, Any]] = field(default_factory=list)
    rise_times: list[dict[str, Any]] = field(default_factory=list)
    spi_breaches: int = 0
    taxonomy_verdicts: list[dict[str, Any]] = field(default_factory=list)
    case_validity_timeline: list[dict[str, Any]] = field(default_factory=list)
    runtime_criteria: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "hazard_count": self.hazard_count,
            "guard_trips": self.guard_trips,
            "decisions": list(self.decisions),
            "rise_times": list(self.rise_times),
            "spi_breaches": self.spi_breaches,
            "taxonomy_verdicts": list(self.taxonomy_verdicts),
            "case_validity_timeline": list(self.case_validity_timeline),
            "runtime_criteria": dict(self.runtime_criteria),
        }

    def clean(self) -> bool:
        """No hazards and every obligation discharged (CI gate)."""
        if self.hazard_count > 0:
            return False
        for verdict in self.taxonomy_verdicts:
            if any(v != "discharged" for v in verdict["discharge"].values()):
                return False
        return True


def run_scenario(
    scenario: Scenario, system: SystemDescription
) -> tuple[list[str], RunReport]:
    """Execute the tick pipeline for a full scenario.

    Deterministic for a fixed (scenario, system, seed); returns the CSV
    trace rows (header included) and the final run report.
    """
    tick = scenario.tick
    plant = replace(system.plant, tick=tick)
    goal = system.goal

    primary_model = system.models[0] if system.models else None
    type_ids = [taxonomy.classify(model.descriptor) for model in system.models]
    type_id = type_ids[0] if type_ids else None
    suite = system.assessment_suite()

    repo = KnowledgeRepository(
        current_config=system.initial_config,
        safety_case=copy.deepcopy(system.safety_case),
        models=list(system.models),
        sample_history=deque(maxlen=history_capacity(tick)),
        spi_windows=[copy.deepcopy(w) for w in system.spi_windows],
        active_option_id=system.initial_option_id,
        active_net=system.net_controller,
        baseline_option_id=system.baseline_option_id,
        baseline_config=system.initial_config,
        baseline_net=system.net_controller,
    )

    state = PlantState(tank_temp=scenario.initial_tank_temp)
    guard = GuardState(enabled=scenario.guard_enabled)
    pid_state = PidState()
    tracker = GoalTracker(goal)
    prev_temp = state.tank_temp

    report = RunReport(scenario_id=scenario.id)
    rows = [TRACE_HEADER]
    pending_manual = sorted(scenario.manual_triggers)
    manual_index = 0
    last_adaptation_time = -1e18
    last_assessment_time = -1e18
    next_type2_plan = 0.0
    candidate_index = 0
    assessed_failures: set[str] = set()
    activated_specs: list[str] = []
    last_domain = current_constraints(repo.safety_case) if type_id == "TII" else None
    monotone = True
    last_timeline_key: Optional[tuple[int, bool]] = None

    def plan(trigger: AdaptationTrigger, t: float) -> Optional[AdaptationDecision]:
        """The one map from the primary model's type to its planner."""
        nonlocal candidate_index
        if type_id == "TI":
            return plan_type1(repo.models, trigger, repo.active_option_id, now=t)
        if type_id == "TII":
            return plan_type2(
                repo.models, repo.sample_history, system.admission_policy,
                repo.safety_case, repo.active_option_id, now=t, trigger=trigger,
            )
        if type_id == "TIII" and trigger.kind != "manual":
            seed = scenario.seed * 1_000_003 + candidate_index
            candidate_index += 1
            return plan_type3(
                repo.models, repo.active_net, suite, seed, now=t, trigger_kind=trigger.kind,
            )
        return None

    def apply_decision(decision: Optional[AdaptationDecision], now: float) -> None:
        nonlocal pid_state, last_adaptation_time, monotone, last_domain
        if decision is None:
            return
        for item in decision.evidence_items:
            if item.kind == "runtime-assessment" and item.verdict == "fail":
                assessed_failures.add(item.payload_ref)
        if decision.applied:
            execute_adaptation(decision, repo, now=now)
        report.decisions.append(decision.to_dict())
        if not decision.applied:  # refused by the planner or rolled back by the executor
            return
        pid_state = PidState()
        last_adaptation_time = now
        if type_id == "TII":
            domain = current_constraints(repo.safety_case)
            if not domain_subset(domain, last_domain):
                monotone = False
            last_domain = domain
        if decision.candidate_net is not None:
            activated_specs.append(spec_hash(decision.candidate_net))

    for k in range(scenario.ticks()):
        t = k * tick
        setpoint = scenario.setpoint_at(t)
        inflow_temp = scenario.inflow_temp_trace.value_at(t)
        inflow_rate = scenario.inflow_rate_trace.value_at(t)

        # sense
        sample = EnvironmentSample(t, inflow_temp, inflow_rate, setpoint, state.outflow_temp)
        repo.sample_history.append(sample)
        tracker.observe(t, setpoint, state.outflow_temp)

        # guard (observes the previous tick's outflow: one-tick latency)
        was_tripped = guard.tripped
        guard, overrides = guard_step(guard, state, now=t)
        if guard.tripped and not was_tripped:
            report.guard_trips += 1
        if overrides.valve_closed and state.valve_open:
            state = replace(state, valve_open=False)

        # control
        temp_rate = (state.tank_temp - prev_temp) / tick
        if repo.current_config.controller_kind == "pid":
            power, pid_state = pid_compute(
                PidConfig.from_configuration(repo.current_config),
                pid_state, setpoint, state.outflow_temp, tick, plant.max_power,
            )
        else:
            if repo.active_net is None:
                raise ValidationError("parametric-net configuration lacks a network spec")
            power = net_compute(
                repo.active_net,
                (setpoint, state.outflow_temp, inflow_temp, inflow_rate, temp_rate),
                plant.max_power,
            )
        if overrides.power_zeroed:
            power = 0.0

        # plant + hazard
        prev_temp = state.tank_temp
        state = plant_step(state, plant, sample, power)
        state = hazard_update(state, plant)

        # SPI
        spi_sample = EnvironmentSample(
            t, inflow_temp, inflow_rate, setpoint, state.outflow_temp
        )
        for window in repo.spi_windows:
            spi_update(window, spi_sample, tick)
        breached = any(spi_breached(w) for w in repo.spi_windows)

        # MAPE: fail-safe preempts any planned adaptation this tick
        if breached:
            fail_safe(repo, now=t)
            pid_state = PidState()
            report.spi_breaches += 1
            report.decisions.append(AdaptationDecision(
                trigger="spi-breach",
                chosen_option=repo.baseline_option_id or None,
                applied=True,
                reason="fail-safe: SPI breach, baseline configuration restored",
                time=t,
                model_id=primary_model.id if primary_model else "",
            ).to_dict())
        else:
            while manual_index < len(pending_manual) and pending_manual[manual_index][0] <= t:
                _, option_id = pending_manual[manual_index]
                manual_index += 1
                apply_decision(plan(AdaptationTrigger("manual", option_id), t), t)

            violated = tracker.take_violation()
            if type_id == "TI" and violated and t - last_adaptation_time >= ADAPTATION_COOLDOWN:
                apply_decision(plan(_GOAL_VIOLATION, t), t)
            elif type_id == "TII" and t >= next_type2_plan:
                next_type2_plan = t + TYPE2_PLAN_INTERVAL
                if t - last_adaptation_time >= ADAPTATION_COOLDOWN:
                    decision = plan(_GOAL_VIOLATION, t)
                    if decision.applied:
                        apply_decision(decision, t)
            elif (
                type_id == "TIII" and violated and suite is not None
                and t - last_assessment_time >= TYPE3_ASSESS_COOLDOWN
            ):
                last_assessment_time = t
                apply_decision(plan(_GOAL_VIOLATION, t), t)

        # trace
        validity = evaluate_validity(repo.safety_case, t, repo)
        timeline_key = (repo.safety_case.revision, validity["valid"])
        if timeline_key != last_timeline_key:
            last_timeline_key = timeline_key
            report.case_validity_timeline.append({
                "time": t,
                "revision": repo.safety_case.revision,
                "valid": validity["valid"],
            })
        spi_near = (
            repo.spi_windows[0].accumulated(tick) if repo.spi_windows else 0.0
        )
        rows.append(",".join((
            _fmt(t),
            _fmt(inflow_temp),
            _fmt(inflow_rate),
            _fmt(setpoint),
            _fmt(state.outflow_temp),
            _fmt(power),
            "1" if state.valve_open else "0",
            repo.active_option_id,
            _fmt(state.hazard_accum),
            str(state.hazard_count),
            "1" if guard.tripped else "0",
            _fmt(spi_near),
            str(repo.safety_case.revision),
            "1" if validity["valid"] else "0",
        )))

    report.hazard_count = state.hazard_count
    report.rise_times = [dict(e) for e in tracker.events]
    end_time = scenario.duration
    for model in repo.models:
        verdict = taxonomy.verdict_for(model, repo.safety_case, end_time, repo)
        report.taxonomy_verdicts.append(verdict.to_dict())
    report.runtime_criteria = {
        "tii_c5_constraints_monotone": monotone if type_id == "TII" else None,
        "tiii_b4_never_applied_failed": (
            not any(h in assessed_failures for h in activated_specs)
            if type_id == "TIII" else None
        ),
    }
    return rows, report


def emit_trace(rows: list[str], path: Union[str, Path]) -> None:
    """Write trace rows as CSV, byte-stable for identical inputs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows))
        fh.write("\n")


def save_report(report: RunReport, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
