"""The tick's state-building layers against plain reference bodies.

`plant_step`, `hazard_update` and `pid_compute` unpack each state by
position and return plain tuples in the field order of `PlantState` and
`PidState`; `guard_step` returns a `GuardState`, built only on the trip. The
references below read fields by name and build through the generated
constructors and `_replace`. Every plant and PID result must equal
`tuple(expected)`, be a plain `tuple` and have the same repr, and a guard
must be the same `GuardState` (so `-0.0`, and `True` against `1`, count as
different). Every input that makes a reference raise must make the layer
raise the same exception type.
"""
import math

from hypothesis import example, given, strategies as st

from safeadapt.controller import PidConfig, PidState, pid_compute
from safeadapt.model import EnvironmentSample, SimulationFault, ValidationError
from safeadapt.plant import (
    _EPS,
    HAZARD_DURATION,
    HAZARD_TEMP,
    GuardState,
    PlantParams,
    PlantState,
    guard_step,
    hazard_update,
    plant_step,
)


def _reference_plant_step(state, params, env, power_in):
    if not (math.isfinite(power_in) and math.isfinite(state.tank_temp)
            and math.isfinite(env.inflow_temp) and math.isfinite(env.inflow_rate)):
        raise SimulationFault("non-finite input to plant step")
    if not 0.0 <= power_in <= params.max_power:
        raise ValidationError(
            f"power {power_in} outside [0, {params.max_power}]"
        )
    flow = env.inflow_rate if state.valve_open else 0.0
    rate = (flow / params.volume) * (env.inflow_temp - state.tank_temp)
    rate += power_in / params.heat_capacity
    new_temp = state.tank_temp + params.tick * rate
    if not math.isfinite(new_temp):
        raise SimulationFault("non-finite tank temperature")
    return PlantState(new_temp, state.valve_open, state.hazard_accum,
                      state.hazard_count, state.episode_counted)


def _reference_hazard_update(state, params):
    if state.outflow_temp > HAZARD_TEMP and state.valve_open:
        accum = state.hazard_accum + params.tick
        count = state.hazard_count
        counted = state.episode_counted
        if not counted and accum > HAZARD_DURATION + _EPS:
            count += 1
            counted = True
        return PlantState(state.tank_temp, state.valve_open, accum, count, counted)
    return PlantState(state.tank_temp, state.valve_open, 0.0, state.hazard_count, False)


def _reference_guard_step(guard, state):
    if guard.enabled and not guard.tripped and state.outflow_temp > HAZARD_TEMP:
        guard = guard._replace(tripped=True)
    return guard


def _reference_pid_compute(cfg, st, setpoint, measured, tick, max_power=10000.0):
    if tick <= 0:
        raise ValidationError(f"tick must be positive, got {tick}")
    error = setpoint - measured
    derivative = (error - st.prev_error) / tick
    tentative_integral = st.integral + error * tick
    raw = cfg.kp * error + cfg.ki * tentative_integral + cfg.kd * derivative
    if 0.0 <= raw <= max_power:
        return raw, PidState(integral=tentative_integral, prev_error=error)
    raw = cfg.kp * error + cfg.ki * st.integral + cfg.kd * derivative
    power = min(max(raw, 0.0), max_power)
    return power, PidState(integral=st.integral, prev_error=error)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SimulationFault, ValidationError) as exc:
        return type(exc)


def _assert_same(got, expected):
    assert type(got) is type(expected)
    assert got == expected
    assert repr(got) == repr(expected)


# Temperatures around the 90 degC hazard limit, and the values that must raise.
_temp = st.one_of(st.floats(-50.0, 150.0), st.sampled_from([HAZARD_TEMP, -0.0, 0.0]))
_non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
_states = st.builds(
    PlantState, _temp, st.booleans(),
    st.one_of(st.floats(0.0, 5.0), st.just(HAZARD_DURATION)), st.integers(0, 5), st.booleans(),
)
_params = st.builds(
    PlantParams, volume=st.floats(1.0, 500.0), max_power=st.floats(1.0, 2e4),
    tick=st.one_of(st.floats(1e-3, 0.5), st.just(0.1)),
)
_envs = st.builds(
    EnvironmentSample, st.floats(0.0, 1e4), st.one_of(_temp, _non_finite),
    st.one_of(st.floats(0.0, 2.0), st.just(math.inf)), _temp, _temp,
)
# Powers inside [0, max_power], outside it, and non-finite.
_powers = st.one_of(st.floats(0.0, 2e4), st.floats(-1e3, 0.0), st.just(3e4), _non_finite)


_ENV = EnvironmentSample(0.0, 10.0, 0.1, 50.0, 0.0)


@given(_states, _params, _envs, _powers, st.booleans())
@example(PlantState(20.0), PlantParams(), _ENV, 4186.0, False)
@example(PlantState(20.0), PlantParams(), _ENV, 4186.0, True)  # non-finite tank temperature
@example(PlantState(20.0), PlantParams(), _ENV._replace(inflow_rate=math.inf), 0.0, False)
@example(PlantState(20.0), PlantParams(), _ENV, math.nan, False)  # non-finite power
@example(PlantState(20.0), PlantParams(), _ENV, -1.0, False)  # power below 0
@example(PlantState(20.0), PlantParams(), _ENV, 1e4 + 1.0, False)  # power above max_power
@example(PlantState(20.0), PlantParams(specific_heat=5e-324), _ENV, 1e4, False)  # overflows
# Finite inputs whose sum overflows: no fault, as each input is finite.
@example(PlantState(1.7e308), PlantParams(), _ENV._replace(inflow_temp=1.7e308), 0.0, False)
def test_plant_step_matches_reference(state, params, env, power, non_finite_temp):
    if non_finite_temp:
        state = state._replace(tank_temp=math.inf)
    expected = _outcome(_reference_plant_step, state, params, env, power)
    if not isinstance(expected, type):
        assert type(expected) is PlantState
        expected = tuple(expected)
    _assert_same(_outcome(plant_step, state, params, env, power), expected)
    # A run passes the layer's own plain tuples back in.
    _assert_same(_outcome(plant_step, tuple(state), params, tuple(env), power), expected)


@given(_states, _params)
@example(PlantState(95.0, True, HAZARD_DURATION), PlantParams())  # the episode is counted
@example(PlantState(95.0, True, 3.0, 1, True), PlantParams())  # and counted once
@example(PlantState(95.0, False, 3.0, 1, True), PlantParams())  # a closed valve resets it
def test_hazard_update_matches_reference(state, params):
    expected = _reference_hazard_update(state, params)
    assert type(expected) is PlantState
    _assert_same(hazard_update(state, params), tuple(expected))
    _assert_same(hazard_update(tuple(state), params), tuple(expected))


@given(st.builds(GuardState, st.booleans(), st.booleans()), _states)
@example(GuardState(), PlantState(95.0))  # the trip
@example(GuardState(True, True), PlantState(95.0))  # the latch
def test_guard_step_matches_reference(guard, state):
    expected = _reference_guard_step(guard, state)
    _assert_same(guard_step(guard, state), expected)
    _assert_same(guard_step(guard, tuple(state)), expected)
    assert type(expected) is GuardState


_gain = st.floats(-1e3, 1e4)


@given(
    st.builds(PidConfig, _gain, _gain, _gain),
    st.builds(PidState, st.floats(-1e3, 1e3), st.floats(-200.0, 200.0)),
    _temp, _temp,
    st.one_of(st.floats(1e-3, 0.5), st.sampled_from([0.0, -0.1])),
    st.floats(1.0, 2e4),
)
@example(PidConfig(kp=1e4), PidState(5.0), 60.0, 20.0, 0.1, 1e4)  # saturated high
@example(PidConfig(kp=1e4), PidState(5.0), 20.0, 60.0, 0.1, 1e4)  # saturated low
@example(PidConfig(1.0, 0.5, 0.1), PidState(), 60.0, 20.0, 0.1, 1e4)  # unsaturated
@example(PidConfig(), PidState(), 1.0, 0.0, 0.0, 1e4)  # tick <= 0
def test_pid_compute_matches_reference(cfg, state, setpoint, measured, tick, max_power):
    args = cfg, state, setpoint, measured, tick, max_power
    expected = _outcome(_reference_pid_compute, *args)
    if not isinstance(expected, type):
        assert type(expected[1]) is PidState
        expected = (expected[0], tuple(expected[1]))
    _assert_same(_outcome(pid_compute, *args), expected)
    _assert_same(_outcome(pid_compute, cfg, tuple(state), *args[2:]), expected)
