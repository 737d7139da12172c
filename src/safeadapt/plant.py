"""Discrete-time water heater physics, hazard accounting, and the guard.

The plant is a well-mixed single tank advanced by explicit Euler. The
hazard of interest is outflowing water above 90 degC for more than 2 s;
the guard is an independent safety monitor that latches power off and
closes the valve when it observes an over-limit outflow temperature.

The tick's values (`PlantState`, `GuardState`) are immutable tuples. A step unpacks its
record once (CPython 3.11 does not specialise a `NamedTuple` field read) and builds the next
with `tuple.__new__(PlantState, (...))`, every field in order, skipping the Python frame of
the generated constructor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import EnvironmentSample, SimulationFault, ValidationError, json_number, json_value

HAZARD_TEMP = 90.0  # degC, strict
HAZARD_DURATION = 2.0  # s, strict

# Guards float accumulation drift at the exact duration boundary.
_EPS = 1e-6

_PARAMS = ("volume", "density", "specific_heat", "max_power", "tick")


@dataclass(frozen=True)
class PlantParams:
    volume: float = 50.0  # L
    density: float = 1.0  # kg/L
    specific_heat: float = 4186.0  # J/(kg K)
    max_power: float = 10000.0  # W
    tick: float = 0.1  # s

    def __post_init__(self) -> None:
        for name in _PARAMS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"plant {name} must be positive, got {value!r}")
        # The 2 s hazard window must span at least 4 ticks.
        if self.tick > 0.5:
            raise ValidationError(f"tick must be <= 0.5 s, got {self.tick}")

    @cached_property
    def heat_capacity(self) -> float:
        """Thermal mass of the tank contents, J/K."""
        return self.density * self.specific_heat * self.volume

    @classmethod
    def from_dict(cls, data) -> "PlantParams":
        data = json_value(data, dict, "plant")
        return cls(**{k: json_number(data[k], k) for k in _PARAMS if k in data})


class PlantState(NamedTuple):
    tank_temp: float
    valve_open: bool = True
    hazard_accum: float = 0.0
    hazard_count: int = 0
    #: True once the current contiguous over-limit episode has been counted.
    episode_counted: bool = False

    @property
    def outflow_temp(self) -> float:
        # Well-mixed tank: outflow equals tank temperature.
        return self.tank_temp


class GuardState(NamedTuple):
    enabled: bool = True
    tripped: bool = False


def plant_step(
    state: PlantState,
    params: PlantParams,
    env: EnvironmentSample,
    power_in: float,
) -> PlantState:
    """Advance the tank temperature one tick by explicit Euler.

    dT/dt = (q/V) (T_in - T) + P/(rho c V), with q = 0 while the valve
    is closed. ``power_in`` must already be clamped to [0, max_power].
    """
    tank_temp, valve_open, accum, count, counted = state
    _, inflow_temp, inflow_rate, _, _ = env
    if not (math.isfinite(power_in) and math.isfinite(tank_temp)
            and math.isfinite(inflow_temp) and math.isfinite(inflow_rate)):
        raise SimulationFault("non-finite input to plant step")
    if not 0.0 <= power_in <= params.max_power:
        raise ValidationError(
            f"power {power_in} outside [0, {params.max_power}]"
        )
    flow = inflow_rate if valve_open else 0.0
    rate = (flow / params.volume) * (inflow_temp - tank_temp)
    rate += power_in / params.heat_capacity
    new_temp = tank_temp + params.tick * rate
    if not math.isfinite(new_temp):
        raise SimulationFault("non-finite tank temperature")
    return tuple.__new__(PlantState, (new_temp, valve_open, accum, count, counted))


def hazard_update(state: PlantState, params: PlantParams) -> PlantState:
    """Accumulate over-limit outflow time and count completed episodes.

    The hazard condition is strict (> 90 degC) and requires the valve
    open; an episode is counted once, when its duration first exceeds
    2 s.
    """
    tank_temp, valve_open, accum, count, counted = state
    if tank_temp > HAZARD_TEMP and valve_open:  # well mixed: the outflow is at tank temperature
        accum += params.tick
        if not counted and accum > HAZARD_DURATION + _EPS:
            count += 1
            counted = True
        return tuple.__new__(PlantState, (tank_temp, valve_open, accum, count, counted))
    return tuple.__new__(PlantState, (tank_temp, valve_open, 0.0, count, False))


def guard_step(guard: GuardState, state: PlantState) -> GuardState:
    """Evaluate the independent safety monitor for one tick.

    The guard observes the previous tick's outflow temperature, so the
    trip latency is exactly one tick. Once tripped it stays latched for the
    rest of the run, and the caller zeroes the power and closes the valve.
    """
    enabled, tripped = guard
    if enabled and not tripped and state.tank_temp > HAZARD_TEMP:  # the outflow, well mixed
        return tuple.__new__(GuardState, (True, True))
    return guard
