import random
from dataclasses import replace

import pytest

from safeadapt.model import ValidationError
from safeadapt.spi import SpiWindow, spi_breached, spi_reset, spi_update


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
        assert (bound.ring.maxlen, len(bound.ring), bound.true_count) == (20, 0, 0)
        assert (len(template.ring), template.true_count) == (50, 50)

    def test_ring_capacity_is_bounded(self):
        w = _feed(SpiWindow(window=10.0, threshold=5.0), [86.0] * 500)
        assert len(w.ring) == w.ring.maxlen == 100

    def test_round_trip(self):
        w = SpiWindow(id="x", temp_threshold=80.0, window=100.0, threshold=10.0)
        restored = SpiWindow.from_dict(w.to_dict())
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
