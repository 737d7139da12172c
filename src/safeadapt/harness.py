"""Simulation harness: system description files, the tick pipeline, traces.

Per-tick order: sense -> guard -> control -> plant -> hazard -> SPI ->
MAPE phases. A fail-safe triggered by an SPI breach preempts any other
adaptation within the same tick.

Every adaptation model is classified before the first tick, so a system
with an unclassifiable model fails with ``ClassificationError`` (CLI exit
2) without running. The first model's type picks the planner; manual
triggers are ignored for Type 0 and Type III.

A run binds its SPI windows to the scenario's tick and shares the immutable
safety case; PID gains are rebuilt only where the configuration changes.
Scenario inputs are read by forward cursors, not looked up per tick. The
sample, plant and PID states each tick creates are plain tuples in their
`NamedTuple` layouts' field order; a guard state is built only on the trip.
The case's validity is evaluated when the case changes and when the root's
evidence expires, and between those read from the root's dynamic bounds
alone (see `assurance.watch_root`). The trace keeps each tick as seven
floats, stored by one struct pack, and each run of equal tails once, and
formats rows only when they are read or written.
"""
from __future__ import annotations

import math
import struct
from array import array
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Union

import numpy as np

from . import taxonomy
from .assurance import (
    SafetyCase, current_constraints, evaluate_validity, load_case, watch_root,
)
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
    AdaptationModel,
    KnowledgeRepository,
    SystemConfiguration,
    ValidationError,
    domain_subset,
    json_value,
    read_json,
    write_json,
)
from .plant import GuardState, PlantParams, PlantState, guard_step, hazard_update, plant_step
from .scenario import Scenario
# Unused here (`spi_update` returns the breach); perfbench's tracer needs every binding it wraps.
from .spi import SpiWindow, spi_breached, spi_update

#: Planner cadence and damping, s.
TYPE2_PLAN_INTERVAL = 10.0
ADAPTATION_COOLDOWN = 60.0
TYPE3_ASSESS_COOLDOWN = 120.0

_GOAL_VIOLATION = AdaptationTrigger("goal-violation")
_TRACE_CHUNK = 1024  # rows formatted per write: a run's trace is never held as one string


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

    def __post_init__(self) -> None:
        if self.initial_config.controller_kind == "parametric-net" and self.net_controller is None:
            raise ValidationError("parametric-net initial configuration lacks a net_controller")
        # The trace prints option ids unquoted: no CSV delimiter or quote may corrupt a row.
        for option_id in (self.baseline_option_id, self.initial_option_id,
                          *(o.id for m in self.models for o in m.options or ())):
            if any(c in option_id for c in ',"\r\n'):
                raise ValidationError(f"option id {option_id!r} holds a comma, quote or line break")
        # The plant refuses a suite tick it cannot step.
        for tick in {s.tick for s in self.assessment_scenarios} - {self.plant.tick}:
            replace(self.plant, tick=tick)
        # A wrong-lifecycle obligation carrier fails here, not after the last tick.
        taxonomy.check_lifecycles(self.safety_case)

    def assessment_suite(self) -> Optional[AssessmentSuite]:
        if not self.assessment_scenarios:
            return None
        return AssessmentSuite(
            scenarios=self.assessment_scenarios, plant=self.plant, goal=self.goal
        )

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], base_dir: Optional[Path] = None
    ) -> "SystemDescription":
        data = json_value(data, dict, "a system description")
        if "safety_case" in data:
            case = SafetyCase.from_dict(data["safety_case"])
        elif "safety_case_path" in data:
            path = Path(json_value(data["safety_case_path"], str, "safety_case_path"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            case = load_case(path)
        else:
            raise ValidationError("system description lacks a safety case")
        net = data.get("net_controller")
        baseline = json_value(data.get("baseline_option_id", ""), str, "baseline_option_id")
        initial = json_value(data.get("initial_option_id", baseline), str, "initial_option_id")
        return cls(
            plant=PlantParams.from_dict(data.get("plant", {})),
            initial_config=SystemConfiguration.from_dict(data.get("initial_configuration")),
            models=[AdaptationModel.from_dict(m) for m in
                    json_value(data.get("adaptation_models"), list, "adaptation_models")],
            safety_case=case,
            goal=AdaptationGoal.from_dict(data.get("goal", {})),
            admission_policy=AdmissionPolicy.from_dict(data.get("admission_policy", {})),
            spi_windows=[SpiWindow.from_dict(w) for w in
                         json_value(data.get("spi_windows", []), list, "spi_windows")],
            baseline_option_id=baseline,
            initial_option_id=initial,
            net_controller=None if net is None else NetControllerSpec.from_dict(net),
            assessment_scenarios=tuple(Scenario.from_dict(s) for s in json_value(
                data.get("assessment_scenarios", []), list, "assessment_scenarios"
            )),
        )


def load_system(path: Union[str, Path]) -> SystemDescription:
    path = Path(path)
    return SystemDescription.from_dict(read_json(path), base_dir=path.parent)


TRACE_HEADER = (
    "t,inflow_temp,inflow_rate,setpoint,outflow_temp,power,valve_open,"
    "active_option,hazard_accum,hazard_count,guard_tripped,spi_near_limit,"
    "case_revision,case_valid"
)

#: A row's floats after ``t``, which is ``k * tick``: ``inflow_temp`` to ``power``,
#: ``hazard_accum`` and ``spi_near_limit``.
_FLOATS = 7
_PACK = struct.Struct("%dd" % _FLOATS).pack
#: What follows ``power``, ``hazard_accum`` and ``spi_near_limit`` in a row: the tail's fields
#: ``valve_open, active_option | hazard_count, guard_tripped | case_revision, case_valid``.
_ROW_TAIL = (",%d,%s,", ",%s,%d,", ",%s,%d\n")  # bools print as 1/0
#: Ticks a block of the store holds. Blocks of one size are reused from run to run, where one
#: growing array would be copied as it grows and leave each copy's pages resident.
_BLOCK = 1024


class TraceRows:
    """A run's trace rows, the header first, held as numbers and formatted when read.

    Each tick's seven floats are packed by one ``struct`` call, bit for bit, into an
    ``array("d")`` block of ``_BLOCK`` ticks, 56 bytes a tick; ``t`` is ``k * tick``, the
    run's own product. A run of ticks whose tails (the valve, option, hazard count, trip,
    revision and validity) are equal by ``==`` is kept as its first tick and its tail. A
    column whose bits are the same on every row of a written string is formatted once, into
    the string's format; only the other columns are formatted per row."""

    def __init__(self, tick: float) -> None:
        self._tick, self._starts, self._tails, self._tail = tick, array("l"), [], None
        self._block = array("d")
        self._blocks = [self._block]

    def add(self, floats: tuple, tail: tuple) -> None:
        block = self._block
        if len(block) == _FLOATS * _BLOCK:
            block = self._block = array("d")
            self._blocks.append(block)
        block.frombytes(_PACK(*floats))
        if tail != self._tail:
            self._tail = tail
            self._starts.append(len(self) - 2)  # this tick's index; len counts the header
            self._tails.append(tail)

    def __len__(self) -> int:
        return 1 + _BLOCK * (len(self._blocks) - 1) + len(self._block) // _FLOATS

    def __iter__(self) -> Iterator[str]:
        yield TRACE_HEADER
        yield from (row[:-1] for row in self.chunks(1))

    def chunks(self, size: int) -> Iterator[str]:
        """The rows after the header, each ending in a newline, at most ``size`` to a string
        and each string within one block."""
        tick, starts = self._tick, self._starts
        for a, end, tail in zip(starts, [*starts[1:], len(self) - 1], self._tails):
            seps = (",",) * 4 + tuple((gap % fields).replace("%", "%%") for gap, fields in
                                      zip(_ROW_TAIL, (tail[:2], tail[2:4], tail[4:])))
            b = a
            while b < end:
                block, first = divmod(b, _BLOCK)
                n = min(size, end - b, _BLOCK - first)
                floats = self._blocks[block]
                fmt, varying = ["%.6f,"], [map(tick.__mul__, range(b, b + n))]
                for column, sep in enumerate(seps):
                    values = floats[_FLOATS * first + column:_FLOATS * (first + n):_FLOATS]
                    # Bits, not ==: -0.0 == 0.0 but prints differently, and nan != nan.
                    if values.tobytes() == values[:1].tobytes() * n:
                        fmt.append("%.6f" % values[0])
                    else:
                        fmt.append("%.6f")
                        varying.append(values)
                    fmt.append(sep)
                yield ("".join(fmt) * n) % tuple(chain.from_iterable(zip(*varying)))
                b += n


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
        return asdict(self)

    def clean(self) -> bool:
        """No hazards and every obligation discharged (CI gate)."""
        return self.hazard_count == 0 and taxonomy.all_discharged(self.taxonomy_verdicts)


# A net that overflows meets the tick's own finiteness checks; entered per run, not per net call.
@np.errstate(over="ignore", invalid="ignore")
def run_scenario(
    scenario: Scenario, system: SystemDescription
) -> tuple[TraceRows, RunReport]:
    """Execute the tick pipeline for a full scenario.

    Deterministic for a fixed (scenario, system, seed); returns the CSV
    trace rows (header included) and the final run report.
    """
    tick, ticks = scenario.tick, scenario.ticks()
    plant = replace(system.plant, tick=tick)
    goal = system.goal

    primary_model = system.models[0] if system.models else None
    model_id = primary_model.id if primary_model else ""
    type_ids = [taxonomy.classify(model.descriptor) for model in system.models]
    type_id = type_ids[0] if type_ids else None
    if type_id == "TIII" and system.net_controller is None:
        raise ValidationError("a Type III model needs a net_controller to perturb")
    suite = system.assessment_suite()

    repo = KnowledgeRepository(
        current_config=system.initial_config,
        safety_case=system.safety_case,
        # Validity reads the newest sample and admission the last window: one rule for all.
        sample_history=deque(maxlen=system.admission_policy.history_size(tick, ticks)),
        spi_windows=[replace(w, tick=tick) for w in system.spi_windows],
        active_option_id=system.initial_option_id,
        active_net=system.net_controller,
        baseline_option_id=system.baseline_option_id,
        baseline_config=system.initial_config,
        baseline_net=system.net_controller,
    )

    state = PlantState(tank_temp=scenario.initial_tank_temp)
    guard = GuardState(enabled=scenario.guard_enabled)
    use_pid = system.initial_config.controller_kind == "pid"
    pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
    tracker = GoalTracker(goal)
    # The post-hazard state, unpacked once per tick; the outflow is the tank temperature.
    prev_temp = outflow_temp = state.outflow_temp
    valve_open, tripped = state.valve_open, guard.tripped
    spi_windows = repo.spi_windows  # reset in place by fail_safe, never rebound

    report = RunReport(scenario_id=scenario.id)
    rows = TraceRows(tick)
    # The sentinel never fires: load-time checks make every trigger time finite.
    manual_triggers = iter([*sorted(scenario.manual_triggers), (math.inf, "")])
    next_manual, manual_option = next(manual_triggers)
    last_adaptation_time = -1e18
    last_assessment_time = -1e18
    next_type2_plan = 0.0
    candidate_index = 0
    assessed_failures: set[str] = set()
    activated_specs: list[str] = []
    last_domain = current_constraints(repo.safety_case) if type_id == "TII" else None
    monotone = True
    last_revision = last_valid = watched = None
    stale_at, bounds = -1, ()

    def plan(trigger: AdaptationTrigger, t: float) -> Optional[AdaptationDecision]:
        """The one map from the primary model's type to its planner."""
        nonlocal candidate_index
        if type_id == "TI":
            return plan_type1(primary_model, trigger, repo.active_option_id, now=t)
        if type_id == "TII":
            return plan_type2(
                primary_model, trigger, repo.sample_history, system.admission_policy,
                repo.safety_case, repo.active_option_id, now=t,
            )
        if type_id == "TIII" and trigger.kind != "manual":
            seed = scenario.seed * 1_000_003 + candidate_index
            candidate_index += 1
            return plan_type3(
                primary_model, trigger, repo.active_net, suite, seed, repo.safety_case, now=t,
            )
        return None

    def apply_decision(decision: Optional[AdaptationDecision], now: float) -> None:
        nonlocal pid, pid_state, last_adaptation_time, monotone, last_domain
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
        pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
        last_adaptation_time = now
        if type_id == "TII":
            domain = current_constraints(repo.safety_case)
            if not domain_subset(domain, last_domain):
                monotone = False
            last_domain = domain
        if decision.candidate_net is not None:
            activated_specs.append(spec_hash(decision.candidate_net))

    # Bound once per run; each traced layer is still called through its module binding.
    append_sample, append_row, max_power = repo.sample_history.append, rows.add, plant.max_power
    observe, take_violation = tracker.observe, tracker.take_violation

    for k, setpoint, inflow_temp, inflow_rate in scenario.inputs():
        t = k * tick

        # sense: load checks and Trace keep t, inflow_rate >= 0 (test_scenario's rate property)
        sample = (t, inflow_temp, inflow_rate, setpoint, outflow_temp)  # EnvironmentSample order
        append_sample(sample)
        observe(t, setpoint, outflow_temp)

        # guard (observes the previous tick's outflow: one-tick latency)
        was_tripped = tripped
        guard = guard_step(guard, state)
        tripped = guard[1]  # a tripped guard closes the valve and zeroes the power
        if tripped and not was_tripped:
            report.guard_trips += 1
        if tripped and valve_open:
            state = (state[0], False, *state[2:])

        # control
        temp_rate = (outflow_temp - prev_temp) / tick
        if use_pid:
            power, pid_state = pid_compute(
                pid, pid_state, setpoint, outflow_temp, tick, max_power,
            )
        else:
            power = net_compute(
                repo.active_net,
                (setpoint, outflow_temp, inflow_temp, inflow_rate, temp_rate),
                max_power,
            )
        if tripped:
            power = 0.0

        # plant + hazard
        prev_temp = outflow_temp
        state = plant_step(state, plant, sample, power)
        state = hazard_update(state, plant)
        outflow_temp, valve_open, hazard_accum, hazard_count, _ = state

        # SPI: every window takes the tick before a breach is acted on
        breached = False
        for window in spi_windows:
            breached = spi_update(window, outflow_temp) or breached

        # MAPE: fail-safe preempts any planned adaptation this tick
        if breached:
            report.decisions.append(fail_safe(repo, model_id, t).to_dict())
            pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
            report.spi_breaches += 1
        else:
            while t >= next_manual:
                apply_decision(plan(AdaptationTrigger("manual", manual_option), t), t)
                next_manual, manual_option = next(manual_triggers)

            # Only Type I and Type III take the violation edge, each on every such tick.
            if (type_id == "TI" and take_violation()
                    and t - last_adaptation_time >= ADAPTATION_COOLDOWN):
                apply_decision(plan(_GOAL_VIOLATION, t), t)
            elif type_id == "TII" and t >= next_type2_plan:
                next_type2_plan = t + TYPE2_PLAN_INTERVAL
                if t - last_adaptation_time >= ADAPTATION_COOLDOWN:
                    decision = plan(_GOAL_VIOLATION, t)
                    if decision.applied:
                        apply_decision(decision, t)
            elif (
                type_id == "TIII" and take_violation() and suite is not None
                and t - last_assessment_time >= TYPE3_ASSESS_COOLDOWN
            ):
                last_assessment_time = t
                apply_decision(plan(_GOAL_VIOLATION, t), t)

        # trace: the root's validity is evaluated when the case changes and at an expiry;
        # between those it changes only with the bounds it rests on (see watch_root)
        case = repo.safety_case
        if case is not watched or k == stale_at:
            watched, valid = case, case.root not in evaluate_validity(case, t, repo)
            bounds, stale_at = watch_root(case, k, tick, ticks)
        elif bounds:
            valid = True
            for index, low, high in bounds:
                if not low <= sample[index] <= high:
                    valid = False
                    break
        revision = case.revision
        if valid != last_valid or revision != last_revision:
            last_valid, last_revision = valid, revision
            report.case_validity_timeline.append({"time": t, "revision": revision, "valid": valid})
        spi_near = spi_windows[0].accumulated() if spi_windows else 0.0
        append_row((inflow_temp, inflow_rate, setpoint, outflow_temp, power, hazard_accum,
                    spi_near), (valve_open, repo.active_option_id, hazard_count, tripped,
                                revision, valid))

    report.hazard_count = state[3]
    report.rise_times = [dict(e) for e in tracker.events]
    end_time = scenario.duration
    for model in system.models:
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


def emit_trace(rows: TraceRows, path: Union[str, Path]) -> None:
    """Write the bytes of ``"\\n".join(rows) + "\\n"`` as CSV, ``_TRACE_CHUNK`` rows to a write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(rows.chunks(_TRACE_CHUNK))


def save_report(report: RunReport, path: Union[str, Path]) -> None:
    write_json(path, report.to_dict())
