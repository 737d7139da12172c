"""Simulation harness: system description files, the tick pipeline, traces.

Per-tick order: sense -> guard -> control -> plant -> hazard -> SPI ->
MAPE phases. A fail-safe triggered by an SPI breach preempts any other
adaptation within the same tick.

Every adaptation model is classified before the first tick, so a system
with an unclassifiable model fails with ``ClassificationError`` (CLI exit
2) without running. The first model's type picks its policy from
`_POLICIES` once a run, the one place that dispatches on adaptation type:
the type's planner, trigger rule, bookkeeping after an applied decision
and runtime criteria (see `_Policy`).

A run binds its SPI windows to the scenario's tick and shares the immutable
safety case; PID gains are rebuilt only where the configuration changes.
Scenario inputs are read by forward cursors, not looked up per tick. The
sample, plant and PID states each tick creates are plain tuples in their
`NamedTuple` layouts' field order; a guard state is built only on the trip.
The case's validity is evaluated when the case changes and when the root's
evidence expires, and between those read from the root's dynamic bounds
alone (see `assurance.watch_root`). The trace keeps each tick as seven
floats, stored by one struct pack, and each run of equal tails once, and
formats rows only when they are read or written, a piece of up to
``_TRACE_CHUNK`` rows at a time. A piece's varying columns go through one
NumPy kernel, `_fixed6`, which prints ``"%.6f"`` without formatting a float
in Python: ``rint(|v| * 1e6)`` gives the digits, except near a tie, where
the exact ratio of integers decides; digit tables give the bytes; a narrow
integer part is left-padded with ``0xFF``, a byte UTF-8 never holds, and the
pads are deleted from the piece's bytes. A piece holding a non-finite value
or one at or past ``2**52 / 1e6`` goes through the ``%`` operator instead,
`_rows_reference`, which the property tests also use as the reference.

Between events a managed plant often chatters with period 2, and the loop then advances to
the next event instead of stepping (next-event time advance). It steps ``_SPAN`` ticks, marks
the state after tick ``k - 2`` and steps two more. The state is all that tick ``k + 1`` reads
besides its inputs and ``t``: the plant tuple, the previous outflow, the guard and PID
states, the PID gains, net and case (by identity), the validity, the active option, each SPI
window's count, the lengths of the decision log and validity timeline, and the goal tracker
at rest. When the state after ``k`` equals the mark, every later tick repeats the one two
before it until a horizon, the earliest of: the next input segment start, the first tick at
or past the next manual trigger or the policy's ``due`` time, the tick a watched evidence item is
stale, the tick that evicts an SPI window's oldest 1, and the run's end. The run then appends
the last two rows an even number of times up to the horizon (`TraceRows.repeat_pair`), the
samples the history ring would keep, their outflows alternating between the two phases, and
clear pushes to each SPI window, advances the input iterator, and resumes stepping at the
horizon. It never skips while a rise event is open (its elapsed time reads ``t``), while
either phase's outflow reaches a window's threshold, or inside a linear input segment.
"""
from __future__ import annotations

import math
import struct
from array import array
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, islice
from operator import is_
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

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
from .scenario import Scenario, ticks_before
# Unused here (`spi_update` returns the breach); perfbench's tracer needs every binding it wraps.
from .spi import SpiWindow, spi_breached, spi_evicts_in, spi_push_clear, spi_update

#: Planner cadence and damping, s.
TYPE2_PLAN_INTERVAL = 10.0
ADAPTATION_COOLDOWN = 60.0
TYPE3_ASSESS_COOLDOWN = 120.0

_GOAL_VIOLATION = AdaptationTrigger("goal-violation")
_TRACE_CHUNK = 1024  # rows formatted per write: a run's trace is never held as one string
_SPAN = 256  # ticks stepped between two cycle checks


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
#: What follows the commas after ``power``, ``hazard_accum`` and ``spi_near_limit`` in a row: the
#: tail's fields ``valve_open, active_option | hazard_count, guard_tripped | case_revision,
#: case_valid``.
_ROW_TAIL = ("%d,%s,", "%s,%d,", "%s,%d\n")  # bools print as 1/0
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
    the string's text; the other columns go through `_fixed6`, or `_rows_reference` when it
    declines."""

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

    def repeat_pair(self, n: int) -> None:
        """Append the last two rows ``n`` more times, as ``2 * n`` calls of `add` would: a block
        at a time, from a view of one block-sized run of the pair."""
        last = len(self) - 1  # the next row's index
        pair = b"".join(self._blocks[i // _BLOCK][_FLOATS * (i % _BLOCK):
                                                   _FLOATS * (i % _BLOCK + 1)].tobytes()
                        for i in (last - 2, last - 1))
        pattern, row, phase = memoryview(pair * (_BLOCK // 2 + 1)), len(pair) // 2, 0
        left = 2 * n
        while left:
            block = self._block
            if len(block) == _FLOATS * _BLOCK:
                block = self._block = array("d")
                self._blocks.append(block)
            take = min(left, _BLOCK - len(block) // _FLOATS)
            block.frombytes(pattern[row * phase:row * (phase + take)])
            phase, left = (phase + take) % 2, left - take
        if self._starts[-1] == last - 1:  # the pair's tails differ: each row opens a run
            self._starts.extend(range(last, last + 2 * n))
            self._tails.extend(self._tails[-2:] * n)

    def __len__(self) -> int:
        return 1 + _BLOCK * (len(self._blocks) - 1) + len(self._block) // _FLOATS

    def __iter__(self) -> Iterator[str]:
        yield TRACE_HEADER
        for chunk in self.chunks(_TRACE_CHUNK):
            yield from chunk.decode()[:-1].split("\n")

    def chunks(self, size: int) -> Iterator[bytes]:
        """The rows after the header as UTF-8, each ending in a newline, at most ``size`` to a
        piece and each piece within one block."""
        tick, starts = self._tick, self._starts
        for a, end, tail in zip(starts, [*starts[1:], len(self) - 1], self._tails):
            seps = ("",) * 5 + tuple(gap % fields for gap, fields in
                                      zip(_ROW_TAIL, (tail[:2], tail[2:4], tail[4:])))
            b = a
            while b < end:
                block, first = divmod(b, _BLOCK)
                n = min(size, end - b, _BLOCK - first)
                floats = np.frombuffer(  # a column to a row
                    self._blocks[block][_FLOATS * first:_FLOATS * (first + n)], np.float64,
                ).reshape(n, _FLOATS).T.copy()
                bits = floats.view(np.int64)
                # Bits, not ==: -0.0 == 0.0 but prints differently, and nan != nan.
                baked = (bits.min(axis=1) == bits.max(axis=1)).tolist()
                texts, varying = ["", ""], [None]  # t, which is k * tick, varies
                for column, (value, sep) in enumerate(zip(floats[:, 0].tolist(), seps)):
                    texts[-1] += sep
                    if baked[column]:
                        texts[-1] += "%.6f," % value
                    else:
                        texts.append("")
                        varying.append(column)
                texts[-1] += seps[-1]
                # Each k * tick is below _LIMIT, and NumPy's product cannot overflow, when the
                # last one is: |k * tick| grows with k.
                rows = None
                if abs(tick) * (b + n) < _LIMIT:
                    columns = np.empty((len(varying), n))
                    columns[0] = np.arange(b, b + n) * tick
                    columns[1:] = floats[varying[1:]]
                    rows = _fixed6([text.encode() for text in texts], columns)
                if rows is None:
                    rows = _rows_reference(texts, [
                        map(tick.__mul__, range(b, b + n)),
                        *(floats[column].tolist() for column in varying[1:])], n).encode()
                yield rows
                b += n


#: Magnitudes `_fixed6` formats: below ``2**52 / 1e6`` each ``|v| * 1e6`` is below ``2**52``,
#: where its nearest integer is exact in a float.
_LIMIT = 2.0 ** 52 / 1e6
#: A pad byte: never in UTF-8 text, so it is deleted from the rows after they are laid out.
_PAD = 0xFF


def _words(width: int, before: str = "", after: str = "", lead: bool = False) -> np.ndarray:
    """``0 .. 10**width - 1`` as four-byte words: ``before``, the digits and ``after``. The
    digits are zero-padded, or with ``lead`` right-aligned after pads, the units always shown."""
    value = np.arange(10 ** width, dtype=np.int16)
    words = np.empty((10 ** width, 4), np.uint8)
    words[:, :len(before)] = np.frombuffer(before.encode(), np.uint8)
    words[:, 4 - len(after):] = np.frombuffer(after.encode(), np.uint8)
    for column in range(width):  # a digit column at a time, small temporaries
        place = 10 ** (width - 1 - column)
        digit = words[:, len(before) + column]
        digit[:] = value // place % 10 + ord("0")
        if lead and place > 1:
            digit[value < place] = _PAD
    return words.view(np.uint32).ravel()


#: Word tables, 88 KB together: four integer digits zero-padded and pad-led, then a value's
#: first three decimals after the point and its last three before its comma.
_GROUP, _LEAD = _words(4), _words(4, lead=True)
_POINT, _LAST = _words(3, before="."), _words(3, after=",")
#: All pads, and a minus sign after pads.
_PADS, _MINUS = np.array([[_PAD] * 4, [_PAD] * 3 + [ord("-")]], np.uint8).view(np.uint32).ravel()


def _micros(columns: np.ndarray) -> Optional[np.ndarray]:
    """``round(|v| * 10**6)`` of each value, half to even, as ``"%.6f"`` rounds the exact
    value; None when a value is not finite or not below ``_LIMIT``.

    ``s = |v| * 1e6`` lies within half an ulp of the exact product, so ``rint(s)`` is the
    answer unless ``s`` lies within ``spacing(s.max())`` of a half: those near-ties are
    rounded from the exact ratio of integers."""
    scaled = np.abs(columns)
    if not scaled.max() < _LIMIT:  # a NaN compares false too; checked before any cast
        return None
    scaled *= 1e6
    nearest = np.rint(scaled)
    for i in zip(*np.nonzero(np.abs(scaled - nearest) >= 0.5 - np.spacing(scaled.max()))):
        p, q = abs(float(columns[i])).as_integer_ratio()
        micros, rest = divmod(p * 10 ** 6, q)
        nearest[i] = micros + (2 * rest + (micros & 1) > q)
    return nearest.astype(np.int64)


def _fixed6(texts: list[bytes], columns: np.ndarray) -> Optional[bytes]:
    """``n`` rows of ``texts[0]``, then ``"%.6f,"`` of the row's value in the first column,
    ``texts[1]``, and so on to ``texts[-1]``, as UTF-8, from ``m`` columns as an ``(m, n)``
    float array and ``m + 1`` texts; None where `_micros` declines, and `_rows_reference`
    formats.

    No float is formatted in Python. Each value is laid out as four-byte words from the
    tables above, the sign (from ``signbit``, so ``-0.0`` prints ``-0.000000``) first when
    any value is negative, and the rows as one ``(n, W)`` byte matrix with the texts
    broadcast into it. A narrow integer part is left-padded with ``_PAD``, and the pads are
    deleted from the matrix's bytes when any was written."""
    decimals = _micros(columns)
    if decimals is None:
        return None
    whole = decimals // 10 ** 6
    decimals -= whole * 10 ** 6
    high = decimals // 1000
    decimals -= high * 1000
    negative = np.signbit(columns)
    signed, widest = negative.any(axis=1).tolist(), whole.max(axis=1).tolist()
    # A pad is left where a minus sign or a narrower integer part is written.
    padded = any(signed) or any(len(str(w)) != len(str(v))
                                for w, v in zip(widest, whole.min(axis=1).tolist()))
    sign, top = int(any(signed)), max(widest)
    groups = 1 + (top >= 10 ** 4) + (top >= 10 ** 8)
    m, n = columns.shape
    words = np.empty((m, n, sign + groups + 2), np.uint32)
    if sign:
        words[..., 0] = np.where(negative, _MINUS, _PADS)
    for group in range(groups):  # the integer part, the leading group first
        place = 10 ** (4 * (groups - 1 - group))
        digits = whole if groups == 1 else whole // place % 10 ** 4
        word = _LEAD[digits]
        if group:  # zero-padded after a digit
            word = np.where(whole >= 10 ** 4 * place, _GROUP[digits], word)
        if place > 1:  # all pads before the number's first digit
            word = np.where(whole >= place, word, _PADS)
        words[..., sign + group] = word
    words[..., -2] = _POINT[high]
    words[..., -1] = _LAST[decimals]
    # A column starts at its first byte that is not a pad on every row: its minus sign, or
    # the first digit of its widest integer part.
    field = words.view(np.uint8)
    starts = [3 if minus else 4 * (sign + groups) - len(str(w)) for minus, w in zip(signed, widest)]
    out = np.empty((n, sum(map(len, texts)) + m * field.shape[2] - sum(starts)), np.uint8)
    at = 0
    for column, text in enumerate(texts):
        out[:, at:at + len(text)] = np.frombuffer(text, np.uint8)
        at += len(text)
        if column < m:
            value = field[column, :, starts[column]:]
            out[:, at:at + value.shape[1]] = value
            at += value.shape[1]
    data = out.tobytes()
    del out, words  # copied into data
    return data.replace(b"\xff", b"") if padded else data


def _rows_reference(texts: list[str], columns: list[Iterable[float]], n: int) -> str:
    """What `_fixed6` returns, by one ``%`` operation: the reference, and the path for the
    values it declines."""
    fmt = "%.6f,".join(text.replace("%", "%%") for text in texts)
    return (fmt * n) % tuple(chain.from_iterable(zip(*columns)))


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


class _Policy:
    """Type 0's adaptation policy, which never plans, and the base of the other types'. The
    run tests a policy's trigger inline, on the violation edge where ``edge`` and at ``due``,
    and only then calls `fire`, which moves ``due`` on by ``interval`` and plans once
    ``cooldown`` has passed since ``since``. `applied` keeps the records behind `criteria`.
    Planners are called through this module's bindings, which the benchmark's tracer wraps."""

    edge, due, interval, cooldown, since = False, math.inf, math.inf, ADAPTATION_COOLDOWN, -1e18
    monotone = failed = None  # TII.C5's and TIII.B4's records, kept by those types

    def __init__(self, system: SystemDescription, scenario: Scenario,
                 repo: KnowledgeRepository) -> None:
        self.system, self.scenario, self.repo = system, scenario, repo
        self.model = system.models[0] if system.models else None

    def plan(self, trigger: AdaptationTrigger, t: float) -> Optional[AdaptationDecision]:
        return None

    def fire(self, t: float) -> Optional[AdaptationDecision]:
        self.due = t + self.interval
        return self.plan(_GOAL_VIOLATION, t) if t - self.since >= self.cooldown else None

    def applied(self, decision: AdaptationDecision, t: float) -> None:
        self.since = t

    def criteria(self) -> dict[str, Optional[bool]]:
        return {"tii_c5_constraints_monotone": self.monotone, "tiii_b4_never_applied_failed":
                None if self.failed is None else self.failed.isdisjoint(self.activated)}


class _TypeI(_Policy):
    """Picks a design-time option on a violation edge."""

    edge = True

    def plan(self, trigger: AdaptationTrigger, t: float) -> AdaptationDecision:
        return plan_type1(self.model, trigger, self.repo.active_option_id, now=t)


class _TypeII(_Policy):
    """Plans every ``TYPE2_PLAN_INTERVAL``, logging a refusal only on a manual trigger, and
    records whether each applied decision keeps the constraints monotone (TII.C5)."""

    due, interval, monotone = 0.0, TYPE2_PLAN_INTERVAL, True

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.domain = current_constraints(self.repo.safety_case)

    def plan(self, trigger: AdaptationTrigger, t: float) -> Optional[AdaptationDecision]:
        decision = plan_type2(self.model, trigger, self.repo.sample_history,
                              self.system.admission_policy, self.repo.safety_case,
                              self.repo.active_option_id, now=t)
        return decision if decision.applied or trigger.kind == "manual" else None

    def applied(self, decision: AdaptationDecision, t: float) -> None:
        super().applied(decision, t)
        domain = current_constraints(self.repo.safety_case)
        self.monotone, self.domain = domain_subset(domain, self.domain) and self.monotone, domain


class _TypeIII(_Policy):
    """Assesses a new candidate on a violation edge, never on a manual trigger, its cooldown
    running from the last assessment, and records the failed and the activated candidates."""

    edge, cooldown, candidates = True, TYPE3_ASSESS_COOLDOWN, 0

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.suite, self.failed, self.activated = self.system.assessment_suite(), set(), set()
        if self.system.net_controller is None:
            raise ValidationError("a Type III model needs a net_controller to perturb")
        if self.suite is None:
            raise ValidationError("a Type III model needs assessment_scenarios to assess")

    def plan(self, trigger: AdaptationTrigger, t: float) -> Optional[AdaptationDecision]:
        if trigger.kind == "manual":
            return None
        self.since, seed = t, self.scenario.seed * 1_000_003 + self.candidates
        self.candidates += 1
        decision = plan_type3(self.model, trigger, self.repo.active_net, self.suite, seed,
                              self.repo.safety_case, now=t)
        self.failed.update(item.payload_ref for item in decision.evidence_items
                           if item.kind == "runtime-assessment" and item.verdict == "fail")
        return decision

    def applied(self, decision: AdaptationDecision, t: float) -> None:
        self.activated.add(spec_hash(decision.candidate_net))


#: Each adaptation type's policy, keyed by `taxonomy.TYPES`.
_POLICIES = {"T0": _Policy, "TI": _TypeI, "TII": _TypeII, "TIII": _TypeIII}


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
    # Every model is classified before the first tick; the first one's type picks the policy.
    types = [taxonomy.classify(model.descriptor) for model in system.models] or ["T0"]

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
    policy = _POLICIES[types[0]](system, scenario, repo)  # the one dispatch on adaptation type
    edge, due = policy.edge, policy.due
    model_id = policy.model.id if policy.model else ""

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
    last_revision = last_valid = watched = None
    stale_at, bounds = -1, ()

    def apply_decision(decision: Optional[AdaptationDecision], now: float) -> None:
        nonlocal pid, pid_state
        if decision is None:
            return
        execute_adaptation(decision, repo, now=now)  # a no-op on a refused decision
        report.decisions.append(decision.to_dict())
        if decision.applied:  # not refused by the planner nor rolled back by the executor
            pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
            policy.applied(decision, now)

    # Bound once per run; each traced layer is still called through its module binding.
    append_sample, append_row, max_power = repo.sample_history.append, rows.add, plant.max_power
    observe, take_violation = tracker.observe, tracker.take_violation

    inputs, held_until, history = scenario.inputs(), scenario.held_until(), repo.sample_history
    k, span, mark = -1, _SPAN, None
    while k + 1 < ticks:
        for k, setpoint, inflow_temp, inflow_rate in islice(inputs, span):
            t = k * tick

            # sense: load checks and Trace keep t, inflow_rate >= 0 (test_scenario's rate
            # property); the sample is in EnvironmentSample order
            sample = (t, inflow_temp, inflow_rate, setpoint, outflow_temp)
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
                    apply_decision(policy.plan(AdaptationTrigger("manual", manual_option), t), t)
                    next_manual, manual_option = next(manual_triggers)
                # Tested here on locals; the policy is called only when its trigger may fire.
                if (edge and take_violation()) or t >= due:
                    apply_decision(policy.fire(t), t)
                    due = policy.due

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
                report.case_validity_timeline.append(
                    {"time": t, "revision": revision, "valid": valid})
            spi_near = spi_windows[0].accumulated() if spi_windows else 0.0
            append_row((inflow_temp, inflow_rate, setpoint, outflow_temp, power, hazard_accum,
                        spi_near), (valve_open, repo.active_option_id, hazard_count, tripped,
                                    revision, valid))

        # Next-event advance: a span of _SPAN ticks marks the state, two more compare it.
        if span == 2 and state != mark[1][0]:  # the plant tuple first, the rest on a match
            span = _SPAN
            continue
        # All tick k + 1 reads but its inputs and t: objects, then values.
        now = (pid, repo.active_net, repo.safety_case), (
            state, prev_temp, guard, pid_state, valid, repo.active_option_id,
            len(report.decisions), len(report.case_validity_timeline), tracker.at_rest(),
            [w.true_count for w in spi_windows])
        if span == _SPAN:
            span, mark = 2, now
            continue
        span = _SPAN
        # Objects by identity; values by repr, whose floats are exact and tell -0.0 from 0.0.
        if (not all(map(is_, now[0], mark[0])) or repr(now[1]) != repr(mark[1])
                or tracker.at_rest() is None
                or any(max(outflow_temp, prev_temp) >= w.temp_threshold for w in spi_windows)):
            continue
        # Ticks k - 1 and k repeat k - 3 and k - 2, and so does each later pair until an
        # event: the first tick whose inputs change, that may fire a trigger or plan, whose
        # evidence expires, or that evicts an SPI window's oldest 1.
        horizon = min(
            held_until(k - 1),
            ticks_before(next_manual, k + 1, ticks, tick),
            ticks_before(due, k + 1, ticks, tick),
            stale_at if stale_at > k else ticks,
            *(k + spi_evicts_in(w) for w in spi_windows),
        )
        m = (horizon - k - 1) // 2 * 2
        if m <= 0:
            continue
        rows.repeat_pair(m // 2)
        # Each sample's outflow is the tick before's: the phases alternate.
        history.extend((j * tick, inflow_temp, inflow_rate, setpoint,
                        outflow_temp if (j - k) % 2 else prev_temp)
                       for j in range(max(k + 1, k + m + 1 - history.maxlen), k + m + 1))
        for window in spi_windows:
            spi_push_clear(window, m)
        next(islice(inputs, m, m), None)
        k += m

    report.hazard_count = state[3]
    report.rise_times = [dict(e) for e in tracker.events]
    end_time = scenario.duration
    for model in system.models:
        verdict = taxonomy.verdict_for(model, repo.safety_case, end_time, repo)
        report.taxonomy_verdicts.append(verdict.to_dict())
    report.runtime_criteria = policy.criteria()
    return rows, report


def emit_trace(rows: TraceRows, path: Union[str, Path]) -> None:
    """Write the bytes of ``"\\n".join(rows) + "\\n"`` as CSV, ``_TRACE_CHUNK`` rows to a write."""
    with open(path, "wb") as fh:
        fh.write(TRACE_HEADER.encode() + b"\n")
        fh.writelines(rows.chunks(_TRACE_CHUNK))


def save_report(report: RunReport, path: Union[str, Path]) -> None:
    write_json(path, report.to_dict())
