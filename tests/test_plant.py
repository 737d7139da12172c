import math

import pytest
from hypothesis import given, strategies as st

from safeadapt.model import EnvironmentSample, SimulationFault, ValidationError
from safeadapt.plant import (
    GuardState,
    HAZARD_TEMP,
    PlantParams,
    PlantState,
    guard_step,
    hazard_update,
    plant_step,
)
from corpus_files import write


def _env(temp=10.0, rate=0.1, t=0.0):
    return EnvironmentSample(t, temp, rate, 50.0, 0.0)


class TestPlantStep:
    def test_hand_balanced_steady_state(self):
        # Inflow cooling -0.02 K/s exactly cancels 4186 W of heating.
        state = plant_step(PlantState(tank_temp=20.0), PlantParams(), _env(), 4186.0)
        assert state.tank_temp == pytest.approx(20.0, abs=1e-12)

    def test_equilibrium_without_power(self):
        state = PlantState(tank_temp=20.0)
        for _ in range(100):
            state = plant_step(state, PlantParams(), _env(temp=20.0), 0.0)
        assert state.tank_temp == pytest.approx(20.0, abs=1e-12)

    def test_hand_net_heating(self):
        # 8372 W: +0.04 K/s heating against -0.02 K/s cooling.
        state = plant_step(PlantState(tank_temp=20.0), PlantParams(), _env(), 8372.0)
        assert state.tank_temp == pytest.approx(20.002, abs=1e-9)

    def test_closed_valve_stops_flow(self):
        state = PlantState(tank_temp=20.0, valve_open=False)
        state = plant_step(state, PlantParams(), _env(temp=90.0, rate=1.0), 0.0)
        assert state.tank_temp == pytest.approx(20.0, abs=1e-12)

    def test_power_out_of_range(self):
        with pytest.raises(ValidationError):
            plant_step(PlantState(tank_temp=20.0), PlantParams(), _env(), 10001.0)
        with pytest.raises(ValidationError):
            plant_step(PlantState(tank_temp=20.0), PlantParams(), _env(), -1.0)

    def test_non_finite_input_is_a_fault(self):
        with pytest.raises(SimulationFault):
            plant_step(PlantState(tank_temp=math.nan), PlantParams(), _env(), 0.0)

    def test_tick_bound(self):
        with pytest.raises(ValidationError):
            PlantParams(tick=0.6)

    @given(
        st.floats(0.0, 99.0),
        st.floats(0.0, 99.0),
        st.floats(0.001, 0.2),
    )
    def test_powerless_tank_converges_to_inflow(self, t0, tin, rate):
        params = PlantParams()
        state = PlantState(tank_temp=t0)
        prev_gap = abs(state.tank_temp - tin)
        for _ in range(200):
            state = plant_step(state, params, _env(temp=tin, rate=rate), 0.0)
            gap = abs(state.tank_temp - tin)
            assert gap <= prev_gap + 1e-9
            prev_gap = gap

    @given(st.floats(5.0, 95.0), st.floats(5.0, 95.0), st.floats(0.0, 10000.0))
    def test_temperature_floor_with_nonnegative_power(self, t0, tin, power):
        params = PlantParams()
        state = PlantState(tank_temp=t0)
        floor = min(t0, tin)
        for _ in range(100):
            state = plant_step(state, params, _env(temp=tin, rate=0.1), power)
            assert state.tank_temp >= floor - 1e-9


class TestHazardUpdate:
    def _run(self, temps, valve_open=True):
        params = PlantParams()
        state = PlantState(tank_temp=temps[0], valve_open=valve_open)
        for temp in temps:
            state = PlantState(
                tank_temp=temp, valve_open=valve_open,
                hazard_accum=state.hazard_accum, hazard_count=state.hazard_count,
                episode_counted=state.episode_counted,
            )
            state = hazard_update(state, params)
        return state

    def test_21_ticks_over_limit_counts(self):
        state = self._run([91.0] * 21)
        assert state.hazard_count == 1

    def test_19_ticks_then_recovery_does_not_count(self):
        state = self._run([91.0] * 19 + [85.0])
        assert state.hazard_count == 0
        assert state.hazard_accum == 0.0

    def test_exactly_90_is_not_hazardous(self):
        state = self._run([90.0] * 100)
        assert state.hazard_count == 0
        assert state.hazard_accum == 0.0

    def test_episode_counted_once(self):
        state = self._run([91.0] * 100)
        assert state.hazard_count == 1

    def test_two_separate_episodes(self):
        state = self._run([91.0] * 25 + [50.0] * 5 + [92.0] * 25)
        assert state.hazard_count == 2

    def test_closed_valve_never_accumulates(self):
        state = self._run([95.0] * 50, valve_open=False)
        assert state.hazard_count == 0
        assert state.hazard_accum == 0.0

    def test_exact_boundary_twenty_ticks_is_not_counted(self):
        # 20 ticks x 0.1 s = 2.0 s: "more than 2 s" is strict.
        state = self._run([91.0] * 20)
        assert state.hazard_count == 0

    def test_accumulation_is_tick_sized(self):
        state = self._run([91.0] * 5)
        assert state.hazard_accum == pytest.approx(0.5)


class TestGuard:
    def test_trips_one_tick_after_crossing(self):
        guard = GuardState(enabled=True)
        below = PlantState(tank_temp=89.0)
        above = PlantState(tank_temp=90.5)
        guard = guard_step(guard, below)
        assert not guard.tripped
        guard = guard_step(guard, above)
        assert guard.tripped

    def test_never_trips_at_or_below_limit(self):
        guard = GuardState(enabled=True)
        for temp in (50.0, 89.9, 90.0):
            guard = guard_step(guard, PlantState(tank_temp=temp))
            assert not guard.tripped

    def test_latched_after_cooldown_until_reset(self):
        # Nothing resets the latch: a tripped guard stays tripped for the rest of the run.
        guard = GuardState(enabled=True, tripped=True)
        for _ in range(2):
            guard = guard_step(guard, PlantState(tank_temp=50.0))
            assert guard.tripped

    def test_disabled_guard_never_trips(self):
        guard = GuardState(enabled=False)
        guard = guard_step(guard, PlantState(tank_temp=120.0))
        assert not guard.tripped

    def test_guard_caps_hazard_duration(self):
        # Once the valve closes, the over-limit-with-outflow condition
        # cannot persist, so a completed episode is impossible.
        params = PlantParams()
        guard = GuardState(enabled=True)
        state = PlantState(tank_temp=89.9)
        for k in range(100):
            guard = guard_step(guard, state)
            if guard.tripped and state.valve_open:
                state = PlantState(
                    tank_temp=state.tank_temp, valve_open=False,
                    hazard_accum=state.hazard_accum, hazard_count=state.hazard_count,
                    episode_counted=state.episode_counted,
                )
            power = 0.0 if guard.tripped else params.max_power
            state = plant_step(state, params, _env(rate=0.001, t=k * 0.1), power)
            state = hazard_update(state, params)
        assert state.hazard_count == 0
        assert state.hazard_accum <= 2.0


def test_outflow_equals_tank_temperature():
    assert PlantState(tank_temp=42.5).outflow_temp == 42.5


def test_params_round_trip():
    params = PlantParams(volume=4.0)
    assert PlantParams.from_dict(write(params)) == params


def test_hazard_temp_constant():
    assert HAZARD_TEMP == 90.0
