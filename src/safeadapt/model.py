"""Core domain types shared across the toolkit.

Houses system configurations, adaptation models and options,
operational domains, environment samples, and the knowledge repository
that the managing system reads and writes.
"""
from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from .assurance import SafetyCase
    from .controller import NetControllerSpec
    from .spi import SpiWindow
    from .taxonomy import AdaptationDescriptor


class ValidationError(ValueError):
    """A domain value violates its declared invariants."""


class SimulationFault(RuntimeError):
    """A numerical fault (non-finite value) occurred during simulation."""


CONTROLLER_KINDS = ("pid", "parametric-net")

#: The environment variables an operational domain may bound: fields of `EnvironmentSample`.
DOMAIN_VARIABLES = ("inflow_temp", "inflow_rate")

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


# JSON readers: every `from_dict` reads raw JSON through them, so a value of the wrong
# type, or a missing key (read as None), is a ValidationError at load.

_KINDS = {str: "a string", bool: "true or false", int: "an integer", list: "a list",
          dict: "a JSON object"}


def json_value(value: Any, kind: type, what: str) -> Any:
    """``value`` if its type is exactly ``kind`` (str, bool, int, list, dict); a bool is no int."""
    if type(value) is kind:
        return value
    raise ValidationError(f"{what} must be {_KINDS[kind]}, got {value!r:.40}")


def json_number(value: Any, what: str) -> float:
    """A JSON number (not a bool) in the float range, as a float."""
    try:
        if type(value) is float or type(value) is int:
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise ValidationError(f"{what} must be a number in the float range, got {value!r:.40}")


def json_ids(value: Any, what: str) -> list[str]:
    """A JSON list of strings, copied."""
    if type(value) is list:
        for item in value:
            if type(item) is not str:
                break
        else:
            return list(value)
    raise ValidationError(f"{what} must be a list of ids, got {value!r:.40}")


def json_numbers(value: Any, what: str) -> dict[str, float]:
    """A JSON object of numbers, each as a float; a bad value's message names its key."""
    return {name: json_number(v, name) for name, v in json_value(value, dict, what).items()}


#: A JSON escape of a UTF-16 surrogate: the only way a lone surrogate enters decoded UTF-8 text.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89abcdefABCDEF]")


def read_json(path: Union[str, Path]) -> Any:
    """The JSON document in a file; bytes that are not UTF-8 JSON, JSON nested too deeply
    for the decoder, or a string holding a lone surrogate, which no output could encode, are
    a ValidationError. Strings are walked only when the text escapes a surrogate."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            data = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if _SURROGATE_ESCAPE.search(text):
        items = [data]
        while items:
            item = items.pop()
            if type(item) is dict:
                items += item
                items += item.values()
            elif type(item) is list:
                items += item
            elif type(item) is str and not item.isascii():
                try:
                    item.encode()
                except UnicodeEncodeError:
                    raise ValidationError(
                        f"{path}: {item!r:.40} holds a lone surrogate") from None
    return data


def write_json(path: Union[str, Path], data: Any) -> None:
    """Write ``data`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class OperationalDomain:
    """Axis-aligned interval box over named environment variables.

    A missing variable is unbounded; explicit bounds may use +/- infinity.
    """

    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, (low, high) in self.bounds.items():
            if name not in DOMAIN_VARIABLES:
                raise ValidationError(f"a domain may bound only {DOMAIN_VARIABLES}, not {name!r}")
            if not low <= high:  # NaN fails too
                raise ValidationError(
                    f"domain bound {name!r} must be [low, high], low <= high, got [{low}, {high}]"
                )

    def interval(self, name: str) -> tuple[float, float]:
        return self.bounds.get(name, (_NEG_INF, _POS_INF))

    def normalized(self) -> "OperationalDomain":
        """Drop axes that are fully unbounded."""
        kept = {
            name: bound
            for name, bound in self.bounds.items()
            if bound != (_NEG_INF, _POS_INF)
        }
        return OperationalDomain(kept)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OperationalDomain":
        bounds = {}
        for name, pair in json_value(data, dict, "an operational domain").items():
            try:
                low, high = json_value(pair, list, name)
                bounds[name] = (_NEG_INF if low is None else json_number(low, name),
                                _POS_INF if high is None else json_number(high, name))
            except ValueError:  # a reader's ValidationError, or not two items
                raise ValidationError(
                    f"domain bound {name!r} must be [low, high], number or null"
                ) from None
        return cls(bounds)


#: The fully permissive domain.
UNBOUNDED_DOMAIN = OperationalDomain({})


def domain_subset(inner: OperationalDomain, outer: OperationalDomain) -> bool:
    """True iff ``inner`` is contained in ``outer`` on every axis.

    Axes absent from a domain are treated as unbounded, so an axis bounded
    only in ``inner`` never violates containment.
    """
    for name, (olow, ohigh) in outer.bounds.items():
        ilow, ihigh = inner.interval(name)
        if ilow < olow or ihigh > ohigh:
            return False
    return True


@dataclass(frozen=True)
class SystemConfiguration:
    """A concrete configuration of the managed system."""

    controller_kind: str
    parameters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.controller_kind not in CONTROLLER_KINDS:
            raise ValidationError(
                f"unknown controller kind {self.controller_kind!r}"
            )
        for name, value in self.parameters.items():
            _check_finite(f"parameter {name!r}", value)

    def with_assignment(self, assignment: Mapping[str, float]) -> "SystemConfiguration":
        merged = dict(self.parameters)
        merged.update(assignment)
        return SystemConfiguration(self.controller_kind, merged)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemConfiguration":
        data = json_value(data, dict, "initial_configuration")
        return cls(
            controller_kind=json_value(data.get("controller_kind"), str, "controller_kind"),
            parameters=json_numbers(data.get("parameters"), "parameters"),
        )


@dataclass(frozen=True)
class ParameterConstraint:
    """Interval or conditional bound on one configuration parameter.

    A conditional constraint applies only while its guard parameter
    exceeds the guard threshold; otherwise it is vacuously satisfied.
    """

    kind: str  # "interval" | "conditional"
    target: str
    low: Optional[float] = None
    high: Optional[float] = None
    condition: Optional[tuple[str, float]] = None  # (guard param, threshold)

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "conditional"):
            raise ValidationError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "conditional" and self.condition is None:
            raise ValidationError(
                f"conditional constraint on {self.target!r} lacks a condition"
            )
        for bound in (self.low, self.high, self.condition[1] if self.condition else None):
            if bound is not None and not math.isfinite(bound):
                raise ValidationError(f"constraint on {self.target!r} has a non-finite bound")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ValidationError(
                f"constraint on {self.target!r} has low {self.low} > high {self.high}"
            )

    def satisfied_by(self, assignment: Mapping[str, float]) -> bool:
        if self.kind == "conditional":
            guard_name, threshold = self.condition  # type: ignore[misc]
            guard_value = assignment.get(guard_name)
            if guard_value is None or guard_value <= threshold:
                return True
        value = assignment[self.target]
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParameterConstraint":
        data = json_value(data, dict, "a parameter constraint")
        low, high, condition = data.get("low"), data.get("high"), data.get("condition")
        if condition is not None:
            try:
                guard, threshold = json_value(condition, list, "condition")
                condition = (json_value(guard, str, "guard"), json_number(threshold, "threshold"))
            except ValueError:  # a reader's ValidationError, or not two items
                raise ValidationError("constraint 'condition' must be [name, threshold]") from None
        return cls(
            kind=json_value(data.get("kind"), str, "constraint 'kind'"),
            target=json_value(data.get("target"), str, "constraint 'target'"),
            low=None if low is None else json_number(low, "constraint 'low'"),
            high=None if high is None else json_number(high, "constraint 'high'"),
            condition=condition,
        )


@dataclass(frozen=True)
class AdaptationOption:
    """A concrete parameter assignment reachable by one adaptation."""

    id: str
    model_id: str
    assignment: dict[str, float] = field(default_factory=dict)
    domain: Optional[OperationalDomain] = None
    design_time_evidence: tuple[str, ...] = ()
    #: Rise time (s) recorded for this option by design-time simulation;
    #: used by the planner's selection rule.
    design_rise_time: Optional[float] = None

    def __post_init__(self) -> None:
        for name, value in self.assignment.items():
            _check_finite(f"assignment {name!r}", value)
        if self.design_rise_time is not None:
            _check_finite("design_rise_time", self.design_rise_time)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdaptationOption":
        data = json_value(data, dict, "an adaptation option")
        domain, rise = data.get("domain"), data.get("design_rise_time")
        return cls(
            id=json_value(data.get("id"), str, "option 'id'"),
            model_id=json_value(data.get("model_id"), str, "option 'model_id'"),
            assignment=json_numbers(data.get("assignment"), "option 'assignment'"),
            domain=None if domain is None else OperationalDomain.from_dict(domain),
            design_time_evidence=tuple(
                json_ids(data.get("design_time_evidence", []), "design_time_evidence")
            ),
            design_rise_time=None if rise is None else json_number(rise, "design_rise_time"),
        )


@dataclass(frozen=True)
class AdaptationModel:
    """A parameterized template for one kind of change to the managed system."""

    id: str
    parameters: tuple[str, ...]
    constraints: tuple[ParameterConstraint, ...] = ()
    descriptor: "AdaptationDescriptor" = None  # type: ignore[assignment]
    options: Optional[tuple[AdaptationOption, ...]] = None

    def __post_init__(self) -> None:
        if len(set(self.parameters)) != len(self.parameters):
            raise ValidationError(f"model {self.id!r} repeats a parameter name")
        for constraint in self.constraints:
            if constraint.target not in self.parameters:
                raise ValidationError(
                    f"constraint targets unknown parameter {constraint.target!r}"
                )
        if self.descriptor is not None and self.descriptor.options_enumerated_at_design_time:
            if not self.options:
                raise ValidationError(
                    f"model {self.id!r} declares enumerated options but lists none"
                )
        seen: set[str] = set()
        for option in self.options or ():
            if option.id in seen:  # the planners would resolve the id two ways
                raise ValidationError(f"model {self.id!r} repeats option id {option.id!r}")
            seen.add(option.id)
            if not option_satisfies_model(option, self):
                raise ValidationError(
                    f"option {option.id!r} breaks the constraints of model {self.id!r}"
                )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdaptationModel":
        from .taxonomy import AdaptationDescriptor

        data = json_value(data, dict, "an adaptation model")
        options = data.get("options")
        return cls(
            id=json_value(data.get("id"), str, "model 'id'"),
            parameters=tuple(json_ids(data.get("parameters"), "model 'parameters'")),
            constraints=tuple(ParameterConstraint.from_dict(c) for c in
                              json_value(data.get("constraints", []), list, "'constraints'")),
            descriptor=AdaptationDescriptor.from_dict(data.get("descriptor")),
            options=None if options is None else tuple(
                AdaptationOption.from_dict(o) for o in json_value(options, list, "'options'")
            ),
        )


def option_satisfies_model(option: AdaptationOption, model: AdaptationModel) -> bool:
    """Check an option's assignment against its model's contract.

    The assignment must cover exactly the model's parameters and satisfy
    every constraint; conditional constraints are checked only while their
    guard condition holds.
    """
    declared = set(model.parameters)
    unknown = sorted(set(option.assignment) - declared)
    if unknown:
        raise ValidationError(
            f"option {option.id!r} of model {model.id!r} names unknown "
            f"parameter(s): {', '.join(unknown)}"
        )
    if set(option.assignment) != declared:
        return False
    return all(c.satisfied_by(option.assignment) for c in model.constraints)


class EnvironmentSample(NamedTuple):
    """One observation of the environment and the plant's response; a plain record."""

    time: float
    inflow_temp: float
    inflow_rate: float
    setpoint: float
    outflow_temp: float


@dataclass
class KnowledgeRepository:
    """Shared state maintained by the managing system.

    Single-writer contract: only the simulation loop's owner mutates it.
    """

    current_config: SystemConfiguration
    safety_case: "SafetyCase"
    #: A bounded ring; the default holds the newest sample, all that validity reads.
    sample_history: deque = field(default_factory=lambda: deque(maxlen=1))
    spi_windows: list["SpiWindow"] = field(default_factory=list)
    active_option_id: str = ""
    #: Active network controller spec when controller_kind is parametric-net.
    active_net: Optional["NetControllerSpec"] = None
    baseline_option_id: str = ""
    baseline_config: Optional[SystemConfiguration] = None
    baseline_net: Optional["NetControllerSpec"] = None

    def __post_init__(self) -> None:
        if self.sample_history.maxlen is None or self.sample_history.maxlen < 1:
            raise ValidationError("sample history must be a bounded ring")
