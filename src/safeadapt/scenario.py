"""Scenario definitions: environment schedules driving one simulation run."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, Union

from .model import ValidationError


def _check_points(points: Sequence[tuple[float, float]], what: str) -> None:
    """One pass: every time and value finite, times non-decreasing."""
    prev = -math.inf
    for t, v in points:
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValidationError(f"{what} ({t!r}, {v!r}) is not finite")
        if t < prev:
            raise ValidationError(f"{what}s must be sorted by time")
        prev = t


#: The types of a JSON number, matched by `type()` so that a bool is not one.
_NUMBER = (int, float)


def _number(value: Any, what: str) -> float:
    """A JSON number as a float."""
    if type(value) in _NUMBER:
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ValidationError(f"{what} must be a number in the float range, got {value!r:.40}")


def _number_pairs(points: Any, what: str) -> tuple[tuple[float, float], ...]:
    """A JSON list of [number, number] lists as float pairs."""
    try:
        if type(points) is list:
            pairs = tuple([(float(t), float(v)) for t, v in points
                           if type(t) in _NUMBER and type(v) in _NUMBER])
            if len(pairs) == len(points):
                return pairs
    except (TypeError, ValueError, OverflowError):  # not a pair; an int past the float range
        pass
    raise ValidationError(f"{what}s must be a list of [number, number] lists in the float range")


@dataclass(frozen=True)
class Trace:
    """Piecewise trace of (time, value) points.

    "hold" keeps each value until the next point (default); "linear"
    interpolates between points. Before the first point the first value
    applies, after the last point the last value applies. Every time and
    value must be finite.
    """

    points: tuple[tuple[float, float], ...]
    interp: str = "hold"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("trace needs at least one point")
        if self.interp not in ("hold", "linear"):
            raise ValidationError(f"unknown interpolation {self.interp!r}")
        _check_points(self.points, "trace point")

    def value_at(self, t: float) -> float:
        points = self.points
        if t <= points[0][0]:
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t < t1:
                if self.interp == "hold":
                    return v0
                frac = (t - t0) / (t1 - t0)
                return v0 + frac * (v1 - v0)
        return points[-1][1]

    def values(self, n: int, tick: float) -> Iterator[float]:
        """Yield ``value_at(k * tick)`` for ``k in range(n)``, reading forward (tick > 0)."""
        points = self.points
        t0, v0 = points[0]
        k = 0
        while k < n and k * tick <= t0:
            yield v0
            k += 1
        hold = self.interp == "hold"
        for t1, v1 in points[1:]:
            while k < n:
                t = k * tick
                if t >= t1:
                    break
                yield v0 if hold else v0 + (t - t0) / (t1 - t0) * (v1 - v0)
                k += 1
            t0, v0 = t1, v1
        for _ in range(k, n):
            yield v0

    def to_dict(self) -> dict[str, Any]:
        return {"points": [list(p) for p in self.points], "interp": self.interp}

    @classmethod
    def from_dict(cls, data: Union[Mapping[str, Any], Sequence[Any]]) -> "Trace":
        if isinstance(data, Mapping):
            points = data["points"]
            interp = data.get("interp", "hold")
        else:
            points, interp = data, "hold"
        return cls(_number_pairs(points, "trace point"), interp)

    @classmethod
    def constant(cls, value: float) -> "Trace":
        return cls(((0.0, float(value)),))


@dataclass(frozen=True)
class Scenario:
    id: str
    duration: float
    setpoint_schedule: tuple[tuple[float, float], ...]
    inflow_temp_trace: Trace
    inflow_rate_trace: Trace
    tick: float = 0.1
    seed: int = 0
    guard_enabled: bool = True
    initial_tank_temp: float = 20.0
    #: Optional operator-injected adaptation requests: (time, option id).
    manual_triggers: tuple[tuple[float, str], ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValidationError(f"duration must be finite and >= 0, got {self.duration}")
        if not (math.isfinite(self.tick) and self.tick > 0):
            raise ValidationError(f"tick must be finite and > 0, got {self.tick}")
        if not math.isfinite(self.initial_tank_temp):
            raise ValidationError(f"initial_tank_temp {self.initial_tank_temp} is not finite")
        if not self.setpoint_schedule:
            raise ValidationError("setpoint schedule needs at least one step")
        _check_points(self.setpoint_schedule, "setpoint step")
        if any(v < 0 for _, v in self.inflow_rate_trace.points):
            raise ValidationError("inflow rate trace has a negative value")
        for t, _ in self.manual_triggers:
            if not math.isfinite(t):
                raise ValidationError(f"manual trigger time {t!r} is not finite")

    def setpoint_at(self, t: float) -> float:
        value = self.setpoint_schedule[0][1]
        for step_time, step_value in self.setpoint_schedule:
            if t >= step_time:
                value = step_value
            else:
                break
        return value

    def setpoints(self, n: int, tick: float) -> Iterator[float]:
        """Yield ``setpoint_at(k * tick)`` for ``k in range(n)``, reading forward (tick > 0)."""
        value = self.setpoint_schedule[0][1]
        k = 0
        for step_time, step_value in self.setpoint_schedule:
            while k < n and k * tick < step_time:
                yield value
                k += 1
            value = step_value
        for _ in range(k, n):
            yield value

    def ticks(self) -> int:
        return int(round(self.duration / self.tick))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tick": self.tick,
            "duration": self.duration,
            "setpoint_schedule": [list(p) for p in self.setpoint_schedule],
            "inflow_temp_trace": self.inflow_temp_trace.to_dict(),
            "inflow_rate_trace": self.inflow_rate_trace.to_dict(),
            "seed": self.seed,
            "guard_enabled": self.guard_enabled,
            "initial_tank_temp": self.initial_tank_temp,
            "manual_triggers": [list(p) for p in self.manual_triggers],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ValidationError(f"a scenario must be a JSON object, got {type(data).__name__}")
        seed, guard_enabled = data.get("seed", 0), data.get("guard_enabled", True)
        triggers = data.get("manual_triggers", [])
        if type(seed) is not int:  # a bool is not a seed
            raise ValidationError(f"scenario seed must be an integer, got {seed!r}")
        if type(guard_enabled) is not bool:
            raise ValidationError(f"guard_enabled must be true or false, got {guard_enabled!r}")
        if not (isinstance(triggers, list)
                and all(type(p) is list and len(p) == 2 for p in triggers)):
            raise ValidationError("manual triggers must be a list of [time, option id] lists")
        return cls(
            id=data["id"],
            tick=_number(data.get("tick", 0.1), "scenario tick"),
            duration=_number(data["duration"], "scenario duration"),
            setpoint_schedule=_number_pairs(data["setpoint_schedule"], "setpoint step"),
            inflow_temp_trace=Trace.from_dict(data["inflow_temp_trace"]),
            inflow_rate_trace=Trace.from_dict(data["inflow_rate_trace"]),
            seed=seed,
            guard_enabled=guard_enabled,
            initial_tank_temp=_number(data.get("initial_tank_temp", 20.0), "initial_tank_temp"),
            manual_triggers=tuple(
                (_number(t, "manual trigger time"), str(o)) for t, o in triggers
            ),
        )


def load_scenario(path: Union[str, Path]) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return Scenario.from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
