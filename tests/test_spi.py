import copy
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from safeadapt.model import ValidationError
from safeadapt.spi import (
    SpiWindow, spi_breached, spi_evicts_in, spi_push_clear, spi_reset, spi_update,
)
from corpus_files import write


def _feed(window, temps):
    for temp in temps:
        spi_update(window, temp)
    return window


class TestAccumulation:
    def test_70_seconds_near_limit(self):
        w = _feed(SpiWindow(), [86.0] * 700)
        assert w.accumulated() == pytest.approx(70.0)
        assert spi_breached(w)

    def test_cool_samples_accumulate_nothing(self):
        w = _feed(SpiWindow(), [50.0] * 1000)
        assert w.accumulated() == 0.0
        assert not spi_breached(w)

    def test_threshold_temperature_is_inclusive(self):
        w = _feed(SpiWindow(), [85.5] * 10)
        assert w.accumulated() == pytest.approx(1.0)

    def test_just_below_threshold_does_not_count(self):
        w = _feed(SpiWindow(), [85.499] * 10)
        assert w.accumulated() == 0.0

    def test_exactly_sixty_seconds_is_not_a_breach(self):
        w = _feed(SpiWindow(), [86.0] * 600)
        assert w.accumulated() == pytest.approx(60.0)
        assert not spi_breached(w)

    def test_one_more_tick_breaches(self):
        w = _feed(SpiWindow(), [86.0] * 601)
        assert spi_breached(w)

    def test_old_samples_evicted_past_window(self):
        w = SpiWindow(window=10.0, threshold=5.0)
        _feed(w, [86.0] * 200)  # 20 s of true samples into a 10 s window
        assert w.accumulated() == pytest.approx(10.0)

    def test_eviction_forgets_stale_truths(self):
        w = SpiWindow(window=10.0, threshold=5.0)
        _feed(w, [86.0] * 40 + [50.0] * 100)
        assert w.accumulated() == 0.0


class TestResetAndLifecycle:
    def test_reset_clears_breach(self):
        w = _feed(SpiWindow(), [86.0] * 700)
        assert spi_breached(w)
        spi_reset(w)
        assert w.accumulated() == 0.0
        assert not spi_breached(w)

    def test_fresh_window_is_not_breached(self):
        assert not spi_breached(SpiWindow())

    def test_threshold_must_fit_window(self):
        with pytest.raises(ValidationError):
            SpiWindow(window=10.0, threshold=11.0)

    @pytest.mark.parametrize("fields", [
        dict(window=float("nan")), dict(window=float("inf")),
        dict(window=-5.0, threshold=-10.0), dict(window=0.0, threshold=0.0),
        dict(tick=0.0), dict(tick=float("nan")), dict(temp_threshold=float("nan")),
        dict(threshold=float("nan")), dict(threshold=-1.0), dict(window=1e300),
    ])
    def test_malformed_window_rejected(self, fields):
        with pytest.raises(ValidationError):
            SpiWindow(**fields)

    def test_binding_a_tick_builds_a_fresh_ring(self):
        template = _feed(SpiWindow(window=10.0, threshold=5.0), [86.0] * 50)
        bound = replace(template, tick=0.5)
        assert (bound.capacity, len(bound.ring), bound.true_count) == (20, 0, 0)
        assert (len(template.ring), template.true_count) == (50, 50)

    def test_ring_capacity_is_bounded(self):
        w = _feed(SpiWindow(window=10.0, threshold=5.0), [86.0] * 500)
        assert len(w.ring) == w.capacity == 100

    def test_a_window_longer_than_any_run_holds_only_its_ticks(self):
        # 1e18 ticks of 0.1 s: the ring grows one byte a push and is never sized to the window.
        w = _feed(SpiWindow(window=1e17, threshold=1e17), [86.0] * 50 + [50.0] * 50)
        assert (w.capacity, len(w.ring), w.true_count, spi_evicts_in(w)) == (10 ** 18, 100, 50,
                                                                           10 ** 18 - 99)

    def test_round_trip(self):
        w = SpiWindow(id="x", temp_threshold=80.0, window=100.0, threshold=10.0)
        restored = SpiWindow.from_dict(write(w))
        assert (restored.id, restored.temp_threshold, restored.window, restored.threshold) == (
            "x", 80.0, 100.0, 10.0,
        )


def test_running_count_matches_brute_force_recount():
    rng = random.Random(42)
    tick = 0.1
    w = SpiWindow(window=30.0, threshold=10.0, tick=tick)
    raw = []
    for _ in range(2000):
        temp = rng.choice([50.0, 84.0, 85.5, 86.0, 91.0])
        raw.append(temp >= w.temp_threshold)
        spi_update(w, temp)
        capacity = int(round(w.window / tick))
        expected = sum(raw[-capacity:]) * tick
        assert w.accumulated() == pytest.approx(expected)


# A step per tick: a temperature pushed (around the 85.5 degC threshold) or a reset.
_RESET = None
_steps = st.lists(st.one_of(
    st.sampled_from([50.0, 85.4, 85.5, 86.0, 91.0]), st.floats(80.0, 90.0), st.just(_RESET),
), max_size=300)


@given(
    st.sampled_from([0.1, 0.25, 0.5]), st.floats(0.5, 6.0), st.floats(0.0, 1.0), _steps,
)
@example(0.1, 1.0, 0.5, [86.0] * 12 + [50.0] * 12)  # crosses the threshold both ways
@example(0.1, 1.0, 0.5, [86.0] * 8 + [_RESET] + [86.0] * 8)  # a reset, then a new breach
@example(0.25, 0.5, 0.0, [86.0, 50.0, 50.0, 86.0])  # a 2-tick window evicts every push
def test_update_returns_the_breach_after_its_push(tick, window, share, steps):
    w = SpiWindow(window=window, threshold=share * window, tick=tick)
    for temp in steps:
        if temp is _RESET:
            spi_reset(w)
        else:
            assert spi_update(w, temp) is spi_breached(w)


@given(st.integers(1, 12), st.lists(st.sampled_from([50.0, 86.0]), max_size=40),
       st.integers(0, 30))
@example(5, [86.0, 50.0, 50.0, 50.0, 50.0, 50.0, 86.0], 3)  # a 1 two pushes from leaving
@example(4, [50.0] * 9, 25)  # many laps of an all-zero ring
def test_clear_pushes_equal_single_updates(capacity, temps, pushes):
    # The push that evicts the oldest 1 is the spi_evicts_in-th, and up to it, n pushes below
    # the threshold leave the ring exactly as n `spi_update` calls do.
    w = _feed(SpiWindow(window=capacity * 0.5, threshold=capacity * 0.5, tick=0.5), temps)
    flags = [t >= w.temp_threshold for t in temps][-capacity:]
    assert bytes(w.ring[w.head:] + w.ring[:w.head]) == bytes(flags)
    clear = min(pushes, spi_evicts_in(w) - 1)
    stepped, evicted_at, expected = copy.deepcopy(w), None, (bytes(w.ring), w.head, w.true_count)
    for push in range(1, pushes + 1):
        count = stepped.true_count
        spi_update(stepped, 50.0)
        if evicted_at is None and stepped.true_count < count:
            evicted_at = push
        if push == clear:
            expected = (bytes(stepped.ring), stepped.head, stepped.true_count)
    assert evicted_at == (spi_evicts_in(w) if spi_evicts_in(w) <= pushes else None)
    spi_push_clear(w, clear)
    assert (bytes(w.ring), w.head, w.true_count) == expected
