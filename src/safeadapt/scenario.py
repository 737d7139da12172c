"""Scenario definitions: environment schedules driving one simulation run."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, Union

from .model import ValidationError, json_number, json_value, read_json

#: Most ticks a run may take; a day at 0.1 s fits.
MAX_RUN_TICKS = 1_000_000


def _check_points(points: Sequence[tuple[float, float]], what: str, linear: bool = False) -> None:
    """One pass: every time and value finite, times non-decreasing and, for a linear
    trace, every step's time and value difference finite (an infinite step would read
    inf, or 0.0 at its midpoint)."""
    t0, v0 = points[0]
    for t, v in points:
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValidationError(f"{what} ({t!r}, {v!r}) is not finite")
        if t < t0:
            raise ValidationError(f"{what}s must be sorted by time")
        if linear and not (math.isfinite(t - t0) and math.isfinite(v - v0)):
            raise ValidationError(
                f"linear trace step from ({t0!r}, {v0!r}) to ({t!r}, {v!r}) overflows")
        t0, v0 = t, v


def _pairs(points: Any, what: str, second: Callable[[Any, str], Any] = json_number) -> tuple:
    """A JSON list of [time, value] lists: a number, then a value read by ``second``."""
    try:  # a JSON string or object that unpacks to two items holds no number
        return tuple([(json_number(t, what), second(v, what))
                      for t, v in json_value(points, list, what)])
    except (TypeError, ValueError):  # a reader's ValidationError, or not two items
        raise ValidationError(f"{what}s must be [time, value] lists in the float range") from None


def _ticks_before(t1: float, k: int, n: int, tick: float) -> int:
    """The first ``j`` in ``k..n`` with ``j * tick >= t1``, else ``n``; ``j * tick`` never falls."""
    q = t1 / tick  # a guess from the quotient, corrected by the exact test
    end = n if q >= n else k if q <= k else math.ceil(q)
    while end > k and (end - 1) * tick >= t1:
        end -= 1
    while end < n and end * tick < t1:
        end += 1
    return end


def _ramp(t0: float, v0: float, t1: float, v1: float, k: int, end: int,
          tick: float) -> Iterator[float]:
    """A linear segment's values at ticks ``k`` to ``end``."""
    for j in range(k, end):
        yield v0 + (j * tick - t0) / (t1 - t0) * (v1 - v0)


@dataclass(frozen=True)
class Trace:
    """Piecewise trace of (time, value) points.

    "hold" keeps each value until the next point (default); "linear"
    interpolates between points. Before the first point the first value
    applies, after the last point the last value applies. Every time and
    value must be finite, and so must each linear step's time and value
    difference. Times may repeat: from a repeated time on, the last point
    at that time applies, the first time included.
    """

    points: tuple[tuple[float, float], ...]
    interp: str = "hold"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("trace needs at least one point")
        if self.interp not in ("hold", "linear"):
            raise ValidationError(f"unknown interpolation {self.interp!r}")
        _check_points(self.points, "trace point", self.interp == "linear")

    def value_at(self, t: float) -> float:
        points = self.points
        if t < points[0][0]:
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t < t1:
                if self.interp == "hold":
                    return v0
                frac = (t - t0) / (t1 - t0)
                return v0 + frac * (v1 - v0)
        return points[-1][1]

    def values(self, n: int, tick: float) -> Iterator[float]:
        """``value_at(k * tick)`` for ``k in range(n)``, read forward (tick > 0): one iterator
        a segment, a held value repeated by ``itertools.repeat``."""
        hold, k, segments = self.interp == "hold", 0, []
        # The first point paired with itself: its value holds until its time.
        for (t0, v0), (t1, v1) in zip(self.points[:1] + self.points, self.points):
            end = _ticks_before(t1, k, n, tick)
            segments.append(repeat(v0, end - k) if hold or t0 == t1 else
                            _ramp(t0, v0, t1, v1, k, end, tick))
            k = end
        segments.append(repeat(self.points[-1][1], n - k))
        return chain.from_iterable(segments)

    @classmethod
    def from_dict(cls, data: Any, what: str = "trace point") -> "Trace":
        if isinstance(data, Mapping):  # an object, or the bare list of points
            points = data.get("points")
            interp = json_value(data.get("interp", "hold"), str, "trace 'interp'")
        else:
            points, interp = data, "hold"
        return cls(_pairs(points, what), interp)


@dataclass(frozen=True)
class Scenario:
    """One run's inputs: setpoint steps (read as a hold `Trace`), inflow traces, tick, options."""

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
        # A quotient, not a rounded count: 1e300 / 1e-300 is infinite and would not round.
        ticks = self.duration / self.tick
        if ticks > MAX_RUN_TICKS:
            raise ValidationError(
                f"a run of {ticks:.4g} ticks (duration {self.duration:g} s over "
                f"tick {self.tick:g} s) passes the cap of {MAX_RUN_TICKS}")
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

    @cached_property  # built on first read; the schedule is checked at load
    def setpoint_trace(self) -> Trace:
        return Trace(self.setpoint_schedule)

    def setpoint_at(self, t: float) -> float:
        return self.setpoint_trace.value_at(t)

    def setpoints(self, n: int, tick: float) -> Iterator[float]:
        return self.setpoint_trace.values(n, tick)

    def ticks(self) -> int:
        return int(round(self.duration / self.tick))

    def inputs(self) -> Iterator[tuple[int, float, float, float]]:
        """``(k, setpoint, inflow_temp, inflow_rate)`` for each tick ``k``, read forward."""
        n, tick = self.ticks(), self.tick
        return zip(range(n), self.setpoints(n, tick), self.inflow_temp_trace.values(n, tick),
                   self.inflow_rate_trace.values(n, tick))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        data = json_value(data, dict, "a scenario")
        return cls(
            id=json_value(data.get("id"), str, "scenario 'id'"),
            tick=json_number(data.get("tick", 0.1), "scenario tick"),
            duration=json_number(data.get("duration"), "scenario duration"),
            setpoint_schedule=_pairs(data.get("setpoint_schedule"), "setpoint step"),
            inflow_temp_trace=Trace.from_dict(data.get("inflow_temp_trace"),
                                              "inflow_temp_trace point"),
            inflow_rate_trace=Trace.from_dict(data.get("inflow_rate_trace"),
                                              "inflow_rate_trace point"),
            seed=json_value(data.get("seed", 0), int, "scenario seed"),
            guard_enabled=json_value(data.get("guard_enabled", True), bool, "guard_enabled"),
            initial_tank_temp=json_number(
                data.get("initial_tank_temp", 20.0), "initial_tank_temp"
            ),
            manual_triggers=_pairs(data.get("manual_triggers", []), "manual trigger",
                                   lambda o, what: json_value(o, str, what)),
        )


def load_scenario(path: Union[str, Path]) -> Scenario:
    return Scenario.from_dict(read_json(path))
