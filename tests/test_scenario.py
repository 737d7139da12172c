"""Scenario inputs: the per-time lookups, the forward cursors, load-time checks.

``Trace.value_at`` and ``Scenario.setpoint_at`` are the reference; the
cursors ``Trace.values`` and ``Scenario.setpoints`` that a run reads must
yield exactly ``reference(k * tick)`` for every tick ``k``.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeadapt.model import ValidationError
from safeadapt.scenario import MAX_RUN_TICKS, Scenario, Trace
from corpus_files import write

POINTS = ((0.0, 1.0), (10.0, 2.0), (10.0, 3.0), (20.0, 4.0))
SCHEDULE = ((5.0, 40.0), (10.0, 50.0), (10.0, 55.0), (20.0, 60.0))


def _scenario(**overrides):
    fields = dict(
        id="s", duration=10.0, setpoint_schedule=((0.0, 40.0),),
        inflow_temp_trace=Trace(((0.0, 10.0),)), inflow_rate_trace=Trace(((0.0, 0.1),)),
    )
    fields.update(overrides)
    return Scenario(**fields)


@pytest.mark.parametrize("t, expected", [
    (-5.0, 1.0),   # before the first point
    (0.0, 1.0),    # at the first point
    (5.0, 1.0),    # between points: the earlier value holds
    (10.0, 3.0),   # duplicate times: the last of them applies from that time
    (15.0, 3.0),
    (20.0, 4.0),   # at the last point
    (99.0, 4.0),   # after the last point
])
def test_hold_value_at(t, expected):
    assert Trace(POINTS).value_at(t) == expected


@pytest.mark.parametrize("t, expected", [
    (-5.0, 1.0),
    (0.0, 1.0),
    (2.5, 1.25),   # 1 + 0.25 * (2 - 1)
    (10.0, 3.0),   # the zero-length segment is skipped
    (15.0, 3.5),
    (20.0, 4.0),
    (99.0, 4.0),
])
def test_linear_value_at(t, expected):
    assert Trace(POINTS, "linear").value_at(t) == expected


@pytest.mark.parametrize("t, expected", [
    (0.0, 40.0),   # before the first step: its value applies
    (5.0, 40.0),
    (7.0, 40.0),
    (10.0, 55.0),  # duplicate step times: the last one wins
    (15.0, 55.0),
    (20.0, 60.0),
    (99.0, 60.0),
])
def test_setpoint_at(t, expected):
    assert _scenario(setpoint_schedule=SCHEDULE).setpoint_at(t) == expected


def test_cursors_on_hand_cases():
    tick, n = 2.5, 10
    for trace in (Trace(POINTS), Trace(POINTS, "linear")):
        assert list(trace.values(n, tick)) == [trace.value_at(k * tick) for k in range(n)]
    scenario = _scenario(setpoint_schedule=SCHEDULE)
    assert list(scenario.setpoints(n, tick)) == [scenario.setpoint_at(k * tick) for k in range(n)]
    assert list(Trace(POINTS).values(0, tick)) == []


def test_repeated_first_time():
    # One rule for traces and setpoint schedules: the last point at a time applies from it on.
    for trace in (Trace(((0.0, 1.0), (0.0, 2.0))), Trace(((0.0, 1.0), (0.0, 2.0)), "linear")):
        assert [trace.value_at(t) for t in (-0.1, 0.0, 0.1)] == [1.0, 2.0, 2.0]
        assert list(trace.values(2, 0.1)) == [2.0, 2.0]
    scenario = _scenario(setpoint_schedule=((0.0, 40.0), (0.0, 45.0)))
    assert scenario.setpoint_at(0.0) == 45.0 and list(scenario.setpoints(2, 0.1)) == [45.0, 45.0]


def test_linear_first_point_reads_as_interpolated():
    # At its own time a linear trace's first point reads v0 + 0.0 * (v1 - v0), as an interior
    # point does: -0.0 then reads 0.0 when the next value is not lower. A hold trace keeps -0.0.
    linear, hold = Trace(((0.0, -0.0), (10.0, 1.0)), "linear"), Trace(((0.0, -0.0), (10.0, 1.0)))
    assert math.copysign(1.0, linear.value_at(0.0)) == 1.0
    assert [math.copysign(1.0, v) for v in linear.values(1, 0.1)] == [1.0]
    assert [math.copysign(1.0, v) for v in (linear.value_at(-1.0), hold.value_at(0.0))] == [-1.0] * 2


TICKS = st.sampled_from([0.05, 0.1, 0.3]) | st.floats(0.01, 0.5)
VALUES = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def _points(draw, tick):
    """1-30 sorted points: negative first times, duplicates, times on the tick grid."""
    count = draw(st.integers(1, 30))
    first = draw(st.floats(-20.0, 20.0) | st.integers(-50, 50).map(lambda k: k * tick))
    gaps = draw(st.lists(
        st.just(0.0) | st.floats(0.0, 15.0) | st.integers(1, 40).map(lambda k: k * tick),
        min_size=count - 1, max_size=count - 1,
    ))
    times = [first]
    for gap in gaps:
        times.append(times[-1] + gap)
    return tuple((t, draw(VALUES)) for t in times)


@settings(max_examples=300)
@given(data=st.data(), tick=TICKS, interp=st.sampled_from(["hold", "linear"]),
       n=st.integers(0, 1500))
def test_trace_cursor_equals_value_at(data, tick, interp, n):
    # n * tick ends before, inside or past the last point.
    trace = Trace(data.draw(_points(tick)), interp)
    assert list(trace.values(n, tick)) == [trace.value_at(k * tick) for k in range(n)]
    # A run builds its samples unchecked: a trace of non-negative rates yields none below 0.
    rates = Trace(tuple((t, abs(v)) for t, v in trace.points), interp)
    assert min(rates.values(n, tick), default=0.0) >= 0.0


@settings(max_examples=300)
@given(data=st.data(), tick=TICKS, n=st.integers(0, 1500))
def test_setpoint_cursor_equals_setpoint_at(data, tick, n):
    scenario = _scenario(setpoint_schedule=data.draw(_points(tick)))
    assert list(scenario.setpoints(n, tick)) == [
        scenario.setpoint_at(k * tick) for k in range(n)
    ]


@settings(max_examples=300)
@given(data=st.data(), tick=TICKS)
def test_setpoint_at_equals_the_last_step_at_or_before(data, tick):
    schedule = data.draw(_points(tick))
    t = data.draw(st.sampled_from([time for time, _ in schedule]) | st.floats(-60.0, 1500.0))
    # Reference, independent of Trace: the value of the last step at or before t, and
    # the first value before the first time.
    expected = schedule[0][1]
    for time, value in schedule:
        if time <= t:
            expected = value
    assert _scenario(setpoint_schedule=schedule).setpoint_at(t) == expected


@pytest.mark.parametrize("points, interp", [
    (((0.0, math.nan),), "hold"), (((math.nan, 1.0),), "hold"),
    (((0.0, 1.0), (math.nan, 2.0)), "hold"), (((0.0, math.inf),), "hold"),
    (((-math.inf, 1.0),), "hold"), (((5.0, 1.0), (0.0, 2.0)), "hold"),
    # Finite points whose step overflows: the time step would read 0.0 at its midpoint t = 0.
    (((-1.7e308, 0.0), (1.7e308, 10.0)), "linear"), (((0.0, -1e308), (100.0, 1e308)), "linear"),
], ids=["nan-value", "nan-time", "nan-later-time", "inf-value", "inf-time", "unsorted",
        "linear-time-step-overflow", "linear-value-step-overflow"])
def test_malformed_trace_rejected(points, interp):
    with pytest.raises(ValidationError):
        Trace(points, interp)


def test_hold_trace_may_step_across_the_float_range():
    trace = Trace(((-1.7e308, 0.0), (1.7e308, 10.0)))  # a hold trace takes no difference
    assert [trace.value_at(t) for t in (0.0, 1.7e308)] == [0.0, 10.0]


@pytest.mark.parametrize("overrides", [
    dict(duration=math.nan), dict(duration=math.inf), dict(duration=-1.0),
    dict(tick=0.0), dict(tick=-0.1), dict(tick=math.nan), dict(tick=math.inf),
    dict(initial_tank_temp=math.nan),
    dict(setpoint_schedule=((0.0, 40.0), (5.0, math.nan))),
    dict(setpoint_schedule=((math.nan, 40.0),)),
    dict(setpoint_schedule=((5.0, 40.0), (0.0, 50.0))),
    dict(inflow_rate_trace=Trace(((0.0, 0.1), (5.0, -1.0)))),
    dict(manual_triggers=((math.nan, "opt-1"),)),
    dict(manual_triggers=((1.0, "opt-1"), (math.inf, "opt-2"))),
    dict(duration=1e300), dict(duration=100_000.2), dict(tick=1e-300), dict(tick=5e-324),
    dict(tick=9e-6),
], ids=[
    "duration-nan", "duration-inf", "duration-negative", "tick-zero", "tick-negative",
    "tick-nan", "tick-inf", "initial-temp-nan", "setpoint-nan", "setpoint-time-nan",
    "setpoint-unsorted", "negative-inflow-rate", "manual-trigger-nan", "manual-trigger-inf",
    "duration-huge", "ticks-past-cap", "tick-tiny", "tick-subnormal", "short-run-past-cap",
])
def test_malformed_scenario_rejected(overrides):
    with pytest.raises(ValidationError):
        _scenario(**overrides)


def test_run_at_the_tick_cap_loads():
    assert _scenario(duration=MAX_RUN_TICKS * 0.1).ticks() == MAX_RUN_TICKS
    # Only the run counts: a short run may take a tick whose hour would pass the cap.
    assert _scenario(tick=10.0 / MAX_RUN_TICKS).ticks() == MAX_RUN_TICKS


@pytest.mark.parametrize("points", [
    5, "ab", {"points": 7}, [[0, 1, 2]], [[0]], [["0", 1]], [[0, None]], [[True, 1]],
    ["ab"], [{"a": 1, "b": 2}], [[10 ** 400, 1]],
], ids=["number", "string", "points-number", "three-items", "one-item", "string-time",
        "null-value", "bool-time", "string-point", "object-point", "int-overflow"])
def test_malformed_trace_document_rejected(points):
    with pytest.raises(ValidationError, match="trace points must be"):
        Trace.from_dict(points)


@pytest.mark.parametrize("change", [
    lambda d: [d], lambda d: d.update(seed=True), lambda d: d.update(seed=1.5),
    lambda d: d.update(guard_enabled="false"), lambda d: d.update(tick=True),
    lambda d: d.update(duration="10"), lambda d: d.update(manual_triggers=5),
    lambda d: d.update(manual_triggers=[[1.0]]), lambda d: d.update(manual_triggers=[["1", "o"]]),
    lambda d: d.update(setpoint_schedule=[[0.0, "x"]]),
], ids=["root-list", "seed-bool", "seed-float", "guard-string", "tick-bool", "duration-string",
        "triggers-number", "trigger-one-item", "trigger-string-time", "setpoint-string"])
def test_malformed_scenario_document_rejected(change):
    document = write(_scenario(manual_triggers=((1.0, "opt-1"),)))
    document = change(document) or document
    with pytest.raises(ValidationError):
        Scenario.from_dict(document)


def test_document_numbers_load_as_floats():
    document = write(_scenario(manual_triggers=((1.0, "opt-1"),)))
    document.update(tick=1, duration=10, setpoint_schedule=[[0, 40]])
    scenario = Scenario.from_dict(document)
    assert Scenario.from_dict(write(scenario)) == scenario
    assert all(type(x) is float for x in (scenario.tick, scenario.duration,
                                          *scenario.setpoint_schedule[0]))


def test_zero_inflow_rate_is_legal():
    assert _scenario(inflow_rate_trace=Trace(((0.0, 0.0),))).ticks() == 100
