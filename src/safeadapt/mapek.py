"""The managing system: analyzer, per-type planners, executor, fail-safe.

The planner policies realize the taxonomy's behavioural obligations:
Type I only ever selects design-time options, Type II admits options by
statistical analysis under monotonically tightening domain constraints,
Type III assesses run-time generated candidates in embedded simulations
and refuses any candidate that fails.

Each planner, and the fail-safe, states the whole decision, including its
safety-case patches; the executor applies a plan without knowing its type.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .assurance import (
    AttachEvidence,
    DEFAULT_RUNTIME_FRESHNESS,
    EvidenceItem,
    Patch,
    ReplaceConstraintContext,
    StaticNodeError,
    adapt_case,
    constraint_context,
    nodes_discharging,
)
from .controller import NetControllerSpec, net_compute, zero_spec
from .model import (
    AdaptationModel,
    AdaptationOption,
    EnvironmentSample,
    KnowledgeRepository,
    OperationalDomain,
    UNBOUNDED_DOMAIN,
    ValidationError,
    domain_subset,
    json_number,
    json_value,
)
from .plant import PlantParams, PlantState, hazard_update, plant_step
from .scenario import Scenario
from .spi import spi_reset


@dataclass(frozen=True)
class AdaptationGoal:
    rise_time_limit: float = 60.0  # s
    settle_band: float = 1.0  # degC

    def __post_init__(self) -> None:
        if not (0 < self.rise_time_limit < math.inf and 0 < self.settle_band < math.inf):
            raise ValidationError("goal limits must be finite and positive")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdaptationGoal":
        data = json_value(data, dict, "goal")
        return cls(**{k: json_number(data[k], k) for k in ("rise_time_limit", "settle_band")
                      if k in data})


class GoalTracker:
    """Incremental rise-time tracking over a sample stream.

    Opens an event on every setpoint increase; records the first time the
    outflow enters the settle band, and flags a violation either when the
    entry is late or when the limit elapses without entry.
    """

    def __init__(self, goal: AdaptationGoal):
        self.goal = goal
        self.events: list[dict[str, Any]] = []
        self._prev_setpoint: Optional[float] = None
        self._open: Optional[dict[str, Any]] = None
        self._violations_seen = 0
        self._violations_taken = 0

    def observe(self, t: float, setpoint: float, outflow: float) -> None:
        if self._prev_setpoint is not None and setpoint > self._prev_setpoint + 1e-12:
            self._open = {
                "event_time": t,
                "setpoint": setpoint,
                "rise_time": None,
                "violation": False,
            }
            self.events.append(self._open)
        elif self._open is not None and setpoint != self._open["setpoint"]:
            self._open = None  # setpoint moved again without an increase
        self._prev_setpoint = setpoint

        event = self._open
        if event is None:
            return
        elapsed = t - event["event_time"]
        if abs(outflow - event["setpoint"]) <= self.goal.settle_band:
            event["rise_time"] = elapsed
            self._open = None
        if elapsed > self.goal.rise_time_limit and not event["violation"]:
            event["violation"] = True
            self._violations_seen += 1

    def at_rest(self) -> Optional[tuple[Optional[float], int]]:
        """What `observe` and `take_violation` would read, when a held setpoint can change
        none of it: the last setpoint and the violations not yet taken. None while a rise
        event is open, whose elapsed time reads the clock."""
        if self._open is not None:
            return None
        return self._prev_setpoint, self._violations_seen - self._violations_taken

    def take_violation(self) -> bool:
        """True once per newly observed violation (planner trigger edge)."""
        if self._violations_seen > self._violations_taken:
            self._violations_taken = self._violations_seen
            return True
        return False

    @property
    def any_violation(self) -> bool:
        return self._violations_seen > 0


# --- decisions --------------------------------------------------------------

@dataclass
class AdaptationDecision:
    trigger: str  # "goal-violation" | "spi-breach" | "manual"
    chosen_option: Optional[str]
    applied: bool
    reason: str
    time: float = 0.0
    model_id: str = ""
    evidence_items: list[EvidenceItem] = field(default_factory=list)
    candidate_net: Optional[NetControllerSpec] = None
    admission: Optional["AdmissionReport"] = None
    #: The design-time option to activate; None activates ``candidate_net``.
    option: Optional[AdaptationOption] = None
    patches: list[Patch] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        out = {
            "time": self.time,
            "trigger": self.trigger,
            "model_id": self.model_id,
            "chosen_option": self.chosen_option,
            "applied": self.applied,
            "reason": self.reason,
            "assessment_evidence": [item.id for item in self.evidence_items],
        }
        if self.admission is not None:
            out["admission"] = self.admission.to_dict()
        return out


@dataclass(frozen=True)
class AdaptationTrigger:
    kind: str  # "goal-violation" | "spi-breach" | "manual"
    requested_option_id: Optional[str] = None


def _rank(option: AdaptationOption) -> tuple[float, str]:
    rise = option.design_rise_time
    return (math.inf if rise is None else rise, option.id)


def _solution_discharging(case, obligation: str):
    for node in nodes_discharging(case, obligation):
        if node.kind == "solution":
            return node
    return None


def _refused(trigger: AdaptationTrigger, model: AdaptationModel, now: float, reason: str,
             admission: Optional["AdmissionReport"] = None) -> AdaptationDecision:
    return AdaptationDecision(
        trigger=trigger.kind, chosen_option=None, applied=False, reason=reason,
        time=now, model_id=model.id, admission=admission,
    )


def _design_time_choices(
    model: AdaptationModel, trigger: AdaptationTrigger, active_option_id: str, now: float,
    clause: str,
) -> list[AdaptationOption] | AdaptationDecision:
    """The requested option, or else the options ranked better than the active one, best
    first. A requested option outside the design-time set is refused, citing ``clause``."""
    options = model.options or ()
    by_id = {o.id: o for o in options}
    if trigger.requested_option_id is not None:
        requested = by_id.get(trigger.requested_option_id)
        if requested is None:
            return _refused(trigger, model, now, (
                f"refused: option {trigger.requested_option_id!r} is not "
                f"among the design-time options ({clause})"
            ))
        return [requested]
    active = by_id.get(active_option_id)
    ranked = sorted((o for o in options if o.id != active_option_id), key=_rank)
    return ranked if active is None else [o for o in ranked if _rank(o) < _rank(active)]


def _runtime_evidence(prefix: str, kind: str, verdict: str, now: float,
                      payload: str) -> EvidenceItem:
    return EvidenceItem(
        id=f"{prefix}-r{int(round(now * 10))}", kind=kind, verdict=verdict,
        produced_at=now, freshness=DEFAULT_RUNTIME_FRESHNESS, payload_ref=payload,
    )


def plan_type1(
    model: AdaptationModel,
    trigger: AdaptationTrigger,
    active_option_id: str = "",
    now: float = 0.0,
) -> AdaptationDecision:
    """Type I policy: select strictly from the design-time option set.

    A requested option outside the enumerated set is refused (never
    synthesized); otherwise the eligible option with the smallest
    design-time rise time is chosen, ties broken by lowest id.
    """
    choices = _design_time_choices(model, trigger, active_option_id, now, "TI.B1")
    if isinstance(choices, AdaptationDecision):
        return choices
    if not choices:
        return _refused(trigger, model, now, "no better design-time option available")
    best = choices[0]
    return AdaptationDecision(
        trigger=trigger.kind,
        chosen_option=best.id,
        applied=True,
        reason=("requested design-time option" if trigger.requested_option_id is not None
                else f"best design-time rise time {best.design_rise_time}"),
        time=now,
        model_id=model.id,
        option=best,
    )


# --- Type II admission ------------------------------------------------------

@dataclass(frozen=True)
class AdmissionPolicy:
    window: float = 300.0  # s
    min_samples: int = 300
    confidence_z: float = 2.326  # one-sided 99%

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValidationError(f"admission window must be finite and > 0, got {self.window}")
        if self.min_samples < 2:
            raise ValidationError("min_samples must be >= 2")
        if not 0 < self.confidence_z < math.inf:
            raise ValidationError("confidence_z must be finite and positive")

    def history_size(self, tick: float, ticks: int) -> int:
        """Samples a history ring of a ``ticks``-tick run must keep for `admission_test` to
        read what the run's whole history would give it: the window's samples, the one before
        them (the span check) and one for rounding in the times; never past the run, at least 1."""
        return max(1, min(ticks, math.ceil(min(self.window / tick, ticks)) + 2))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdmissionPolicy":
        data = json_value(data, dict, "admission_policy")
        return cls(
            window=json_number(data.get("window", 300.0), "admission 'window'"),
            min_samples=json_value(data.get("min_samples", 300), int, "'min_samples'"),
            confidence_z=json_number(data.get("confidence_z", 2.326), "'confidence_z'"),
        )


@dataclass
class AdmissionReport:
    status: str  # "admit" | "reject" | "not-ready"
    variables: dict[str, dict[str, float]] = field(default_factory=dict)
    n: int = 0
    window_start: float = 0.0
    window_end: float = 0.0

    @property
    def admit(self) -> bool:
        return self.status == "admit"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def admission_test(
    samples: Sequence[EnvironmentSample],
    option_domain: OperationalDomain,
    policy: AdmissionPolicy,
) -> AdmissionReport:
    """Statistical admission of an option's operational domain.

    For each bounded variable the one-sided confidence bound
    (mean +/- z s / sqrt(n)) and the sample extremum must both respect
    the bound. Insufficient data yields not-ready, never a reject. ``samples`` are tuples in
    `EnvironmentSample` order, in time order: the window's first sample is found by bisection.
    """
    if not samples:
        return AdmissionReport(status="not-ready")
    latest = samples[-1][0]
    first = bisect_left(samples, latest - policy.window, key=lambda s: s[0])
    n = len(samples) - first
    span = latest - samples[0][0]
    if n < policy.min_samples or span < policy.window:
        return AdmissionReport(
            status="not-ready",
            n=n,
            window_start=samples[first][0],
            window_end=latest,
        )

    windowed = list(islice(samples, first, None))
    root_n = math.sqrt(n)
    all_ok = True
    variables: dict[str, dict[str, float]] = {}
    for name, (low, high) in sorted(option_domain.normalized().bounds.items()):
        index = EnvironmentSample._fields.index(name)
        values = [s[index] for s in windowed]
        mean = statistics.fmean(values)
        stdev = statistics.stdev(values) if n > 1 else 0.0
        margin = policy.confidence_z * stdev / root_n
        stats: dict[str, float] = {
            "mean": mean,
            "stdev": stdev,
            "min": min(values),
            "max": max(values),
        }
        ok = True
        if math.isfinite(high):
            stats["upper_cb"] = mean + margin
            stats["bound_high"] = high
            ok = ok and mean + margin <= high and stats["max"] <= high
        if math.isfinite(low):
            stats["lower_cb"] = mean - margin
            stats["bound_low"] = low
            ok = ok and mean - margin >= low and stats["min"] >= low
        stats["ok"] = float(ok)
        variables[name] = stats
        all_ok = all_ok and ok

    return AdmissionReport(
        status="admit" if all_ok else "reject",
        variables=variables,
        n=n,
        window_start=windowed[0][0],
        window_end=latest,
    )


def plan_type2(
    model: AdaptationModel,
    trigger: AdaptationTrigger,
    samples: Sequence[EnvironmentSample],
    policy: AdmissionPolicy,
    case,
    active_option_id: str = "",
    now: float = 0.0,
) -> AdaptationDecision:
    """Type II policy: statistical admission under monotone constraints.

    An option is admitted only if the admission test passes on the
    sample window and the option's domain is a subset of the case's
    current constraints (TII.C5). The admission statistics are recorded
    as runtime evidence on the decision. The planner's own search skips
    an option outside the constraints, tries the next after a reject and
    stops at not-ready; a requested option gets one try.
    """
    choices = _design_time_choices(model, trigger, active_option_id, now, "TII.B1")
    if isinstance(choices, AdaptationDecision):
        return choices
    requested = trigger.requested_option_id is not None
    context = constraint_context(case)
    constraints = UNBOUNDED_DOMAIN if context is None else context.constraint
    report: Optional[AdmissionReport] = None
    for option in choices:
        if option.domain is None or not domain_subset(option.domain, constraints):
            if requested:
                return _refused(trigger, model, now, (
                    f"refused: option {option.id!r} would relax the current "
                    "operational constraints (TII.C5)"
                ))
            continue
        report = admission_test(samples, option.domain, policy)
        if report.admit:
            item = _runtime_evidence(
                f"adm-{option.id}", "runtime-observation", "pass", now,
                json.dumps(report.to_dict(), sort_keys=True),
            )
            patches: list[Patch] = []
            if context is not None:
                patches.append(ReplaceConstraintContext(context.id, option.domain))
            target = _solution_discharging(case, "TII.B4")
            if target is not None:
                patches.append(AttachEvidence(target.id, item))
            return AdaptationDecision(
                trigger=trigger.kind,
                chosen_option=option.id,
                applied=True,
                reason=f"admission passed on {report.n} samples",
                time=now,
                model_id=model.id,
                evidence_items=[item],
                admission=report,
                option=option,
                patches=patches,
            )
        if requested:
            return _refused(trigger, model, now,
                            f"admission {report.status} for requested option {option.id!r}",
                            report)
        if report.status == "not-ready":
            break
    reason = "no admissible option" if report is None else f"admission {report.status}"
    return _refused(trigger, model, now, reason, report)


# --- Type III candidates ----------------------------------------------------

WEIGHT_NOISE_SCALE = 0.1
WEIGHT_BRANCH_PROBABILITY = 0.9
MAX_LAYER_SIZE = 16
MAX_LAYER_COUNT = 2


def propose_candidate(current: NetControllerSpec, seed: int) -> NetControllerSpec:
    """Seeded perturbation of the active network controller.

    With probability 0.9 the weights receive additive Gaussian noise
    (scale 0.1); otherwise exactly one hyperparameter mutates (a layer
    size by +/-1 within [1, 16], or the layer count within [1, 2]) and
    the weights are re-initialized to zero.
    """
    rng = random.Random(seed)
    if rng.random() < WEIGHT_BRANCH_PROBABILITY:
        weights = tuple(w + rng.gauss(0.0, WEIGHT_NOISE_SCALE) for w in current.weights)
        return NetControllerSpec(current.layer_sizes, weights, current.activation)

    sizes = list(current.layer_sizes)
    moves: list[tuple[str, int]] = []
    for index, size in enumerate(sizes):
        if size + 1 <= MAX_LAYER_SIZE:
            moves.append(("grow", index))
        if size - 1 >= 1:
            moves.append(("shrink", index))
    if len(sizes) + 1 <= MAX_LAYER_COUNT:
        moves.append(("add-layer", len(sizes)))
    if len(sizes) - 1 >= 1:
        moves.append(("drop-layer", len(sizes) - 1))
    kind, index = rng.choice(moves)
    if kind == "grow":
        sizes[index] += 1
    elif kind == "shrink":
        sizes[index] -= 1
    elif kind == "add-layer":
        sizes.insert(index, 1)
    else:
        sizes.pop(index)
    return zero_spec(sizes)


def spec_hash(spec: NetControllerSpec) -> str:
    payload = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class AssessmentSuite:
    """Embedded simulation scenarios probing a candidate controller."""

    scenarios: tuple[Scenario, ...]
    plant: PlantParams
    goal: AdaptationGoal

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValidationError("assessment suite must not be empty")


def _run_assessment_scenario(
    candidate: NetControllerSpec,
    scenario: Scenario,
    plant: PlantParams,
    goal: AdaptationGoal,
) -> dict[str, Any]:
    """One embedded simulation: candidate controller, guard disabled."""
    tick = scenario.tick
    plant = replace(plant, tick=tick)  # the physics steps at the scenario's tick
    max_power = plant.max_power
    state = PlantState(tank_temp=scenario.initial_tank_temp)
    tracker = GoalTracker(goal)
    prev_temp = tank_temp = state.tank_temp  # the post-hazard state, read once per tick
    for k, setpoint, inflow_temp, inflow_rate in scenario.inputs():
        t = k * tick
        temp_rate = (tank_temp - prev_temp) / tick
        power = net_compute(
            candidate, (setpoint, tank_temp, inflow_temp, inflow_rate, temp_rate), max_power,
        )
        if not math.isfinite(power):
            return {"scenario": scenario.id, "ok": False, "fault": "non-finite output"}
        # load checks and Trace keep t, inflow_rate >= 0 (test_scenario's rate property)
        sample = (t, inflow_temp, inflow_rate, setpoint, tank_temp)  # EnvironmentSample order
        prev_temp = tank_temp
        state = hazard_update(plant_step(state, plant, sample, power), plant)
        tank_temp = state[0]
        tracker.observe(t + tick, setpoint, tank_temp)
    hazard_count = state[3]
    return {
        "scenario": scenario.id,
        "ok": hazard_count == 0 and not tracker.any_violation,
        "hazard_count": hazard_count,
        "rise_violation": tracker.any_violation,
    }


# A net that overflows meets the assessment's own non-finite check; entered once per assessment.
@np.errstate(over="ignore", invalid="ignore")
def assess_candidate(
    candidate: NetControllerSpec,
    suite: AssessmentSuite,
    now: float = 0.0,
) -> dict[str, Any]:
    """Decide whether a candidate controller is safe to apply.

    Pass requires zero hazards and the rise-time goal met in every
    suite scenario; non-finite controller output fails immediately.
    """
    results = [
        _run_assessment_scenario(candidate, scenario, suite.plant, suite.goal)
        for scenario in suite.scenarios
    ]
    verdict = "pass" if all(r["ok"] for r in results) else "fail"
    digest = spec_hash(candidate)  # plan_type3 reads the candidate id from payload_ref
    evidence = _runtime_evidence(f"assess-{digest[:12]}", "runtime-assessment", verdict, now,
                                 digest)
    return {"verdict": verdict, "evidence": evidence, "results": results}


def plan_type3(
    model: AdaptationModel,
    trigger: AdaptationTrigger,
    current: NetControllerSpec,
    suite: AssessmentSuite,
    seed: int,
    case,
    now: float = 0.0,
) -> AdaptationDecision:
    """Type III policy: propose, assess, and only apply on a pass verdict. A failed
    candidate's decision carries its evidence, but neither the network nor a patch."""
    candidate = propose_candidate(current, seed)
    outcome = assess_candidate(candidate, suite, now)
    evidence: EvidenceItem = outcome["evidence"]
    candidate_id = f"candidate-{evidence.payload_ref[:12]}"
    passed = outcome["verdict"] == "pass"
    target = _solution_discharging(case, "TIII.B6") if passed else None
    return AdaptationDecision(
        trigger=trigger.kind,
        chosen_option=candidate_id if passed else None,
        applied=passed,
        reason=("candidate passed assessment suite" if passed
                else f"candidate {candidate_id} failed assessment (TIII.B4)"),
        time=now,
        model_id=model.id,
        evidence_items=[evidence],
        candidate_net=candidate if passed else None,
        patches=[] if target is None else [AttachEvidence(target.id, evidence)],
    )


# --- executor ---------------------------------------------------------------

def execute_adaptation(
    decision: AdaptationDecision,
    repo: KnowledgeRepository,
    now: float = 0.0,
) -> None:
    """Apply a planned adaptation atomically between ticks.

    Case patches are attempted first; if any patch is rejected (static
    target) the whole adaptation rolls back, leaving configuration and
    case untouched and marking the decision unapplied.
    """
    if not decision.applied:
        return
    if decision.patches:
        try:
            new_case = adapt_case(
                repo.safety_case, decision.patches, now=now,
                cause=f"apply {decision.chosen_option}",
            )
        except StaticNodeError as exc:
            decision.applied = False
            decision.reason += f"; rolled back: {exc}"
            return
        repo.safety_case = new_case

    if decision.option is None:
        repo.active_net = decision.candidate_net
        repo.active_option_id = decision.chosen_option or ""
        for window in repo.spi_windows:
            spi_reset(window)
    else:
        repo.current_config = repo.current_config.with_assignment(decision.option.assignment)
        repo.active_option_id = decision.option.id


def fail_safe(repo: KnowledgeRepository, model_id: str, now: float) -> AdaptationDecision:
    """Revert to the designated baseline configuration after an SPI breach, and state the
    revert as the tick's ``spi-breach`` decision."""
    if repo.baseline_config is not None:
        repo.current_config = repo.baseline_config
    repo.active_net = repo.baseline_net
    repo.active_option_id = repo.baseline_option_id
    for window in repo.spi_windows:
        spi_reset(window)
    target = _solution_discharging(repo.safety_case, "TIII.B7")
    if target is not None and repo.safety_case.node(target.id).lifecycle == "dynamic":
        item = _runtime_evidence("failsafe", "runtime-observation", "pass", now,
                                 "fail-safe engaged after SPI breach")
        repo.safety_case = adapt_case(
            repo.safety_case, [AttachEvidence(target.id, item)],
            now=now, cause="fail-safe",
        )
    return AdaptationDecision(
        trigger="spi-breach",
        chosen_option=repo.baseline_option_id or None,
        applied=True,
        reason="fail-safe: SPI breach, baseline configuration restored",
        time=now,
        model_id=model_id,
    )
