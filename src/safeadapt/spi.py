"""Sliding-window safety performance indicators and breach detection."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from .model import EnvironmentSample, ValidationError
from .plant import HAZARD_TEMP

# Absorbs float accumulation drift at the exact threshold boundary.
_EPS = 1e-6

#: Default fraction of the hazardous limit counted as "near limit".
NEAR_LIMIT_FRACTION = 0.95


@dataclass
class SpiWindow:
    """Windowed duration for which a state predicate held.

    The predicate is a temperature threshold test on the outflow
    (inclusive, >=). The ring holds one boolean per tick; a running
    count keeps updates O(1).
    """

    id: str = "near-limit"
    temp_threshold: float = NEAR_LIMIT_FRACTION * HAZARD_TEMP  # 85.5 degC
    window: float = 3600.0  # s
    threshold: float = 60.0  # s
    ring: deque = field(default_factory=deque)
    true_count: int = 0
    #: Tick of the latest update; None until the first one.
    tick: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threshold > self.window:
            raise ValidationError(
                f"threshold {self.threshold} exceeds window {self.window}"
            )

    def _ensure_capacity(self, tick: float) -> None:
        capacity = max(1, int(round(self.window / tick)))
        if self.ring.maxlen != capacity:
            self.ring = deque(self.ring, maxlen=capacity)

    def accumulated(self, tick: float) -> float:
        """Duration (s) for which the predicate held within the window."""
        return self.true_count * tick

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "temp_threshold": self.temp_threshold,
            "window": self.window,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpiWindow":
        return cls(
            id=data.get("id", "near-limit"),
            temp_threshold=float(data.get("temp_threshold", NEAR_LIMIT_FRACTION * HAZARD_TEMP)),
            window=float(data.get("window", 3600.0)),
            threshold=float(data.get("threshold", 60.0)),
        )


def spi_update(w: SpiWindow, sample: EnvironmentSample, tick: float) -> SpiWindow:
    """Push one tick's predicate result, evicting entries past the window."""
    w._ensure_capacity(tick)
    if len(w.ring) == w.ring.maxlen:
        w.true_count -= w.ring[0]
    flag = sample.outflow_temp >= w.temp_threshold
    w.ring.append(1 if flag else 0)
    w.true_count += 1 if flag else 0
    w.tick = tick
    return w


def spi_breached(w: SpiWindow) -> bool:
    """True iff the accumulated duration strictly exceeds the threshold."""
    if w.tick is None:
        return False
    return w.accumulated(w.tick) > w.threshold + _EPS


def spi_reset(w: SpiWindow) -> SpiWindow:
    """Zero the accumulator, e.g. after an adaptation's reset-spi step."""
    w.ring.clear()
    w.true_count = 0
    return w
