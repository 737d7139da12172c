"""Sliding-window safety performance indicators and breach detection."""
from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from .model import ValidationError, json_number, json_value
from .plant import HAZARD_TEMP

# Absorbs float accumulation drift at the exact threshold boundary.
_EPS = 1e-6

#: Default fraction of the hazardous limit counted as "near limit".
NEAR_LIMIT_FRACTION = 0.95


@dataclass
class SpiWindow:
    """Windowed duration for which a state predicate held.

    The predicate is a temperature threshold test on the outflow
    (inclusive, >=). The ring holds one boolean per tick, sized at
    construction; a run binds its own copy with ``replace(w, tick=...)``.
    A running count keeps updates O(1).
    """

    id: str = "near-limit"
    temp_threshold: float = NEAR_LIMIT_FRACTION * HAZARD_TEMP  # 85.5 degC
    window: float = 3600.0  # s
    threshold: float = 60.0  # s
    tick: float = 0.1  # s
    ring: deque = field(init=False, repr=False)
    true_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        for name in ("window", "tick"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"SPI {name} must be finite and positive, got {value}")
        if not math.isfinite(self.temp_threshold):
            raise ValidationError(f"SPI temp_threshold must be finite, got {self.temp_threshold}")
        if not 0.0 <= self.threshold <= self.window:
            raise ValidationError(f"threshold {self.threshold} outside [0, window {self.window}]")
        ticks = self.window / self.tick
        if not ticks < sys.maxsize:
            raise ValidationError(f"SPI window {self.window} spans too many ticks of {self.tick}")
        self.ring = deque(maxlen=max(1, int(round(ticks))))

    def accumulated(self) -> float:
        """Duration (s) for which the predicate held within the window."""
        return self.true_count * self.tick

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpiWindow":
        data = json_value(data, dict, "an SPI window")
        numbers = ("temp_threshold", "window", "threshold")
        return cls(json_value(data.get("id", cls.id), str, "SPI 'id'"),
                   **{k: json_number(data[k], k) for k in numbers if k in data})


def spi_update(w: SpiWindow, outflow_temp: float) -> bool:
    """Push one tick's predicate result, evicting past the window; return ``spi_breached(w)``."""
    ring = w.ring
    if len(ring) == ring.maxlen:
        w.true_count -= ring[0]
    flag = 1 if outflow_temp >= w.temp_threshold else 0
    ring.append(flag)
    w.true_count = true_count = w.true_count + flag
    return true_count * w.tick > w.threshold + _EPS


def spi_breached(w: SpiWindow) -> bool:
    """True iff the accumulated duration strictly exceeds the threshold; ``spi_update``
    returns the same test inline, so a change to one must be made to the other."""
    return w.accumulated() > w.threshold + _EPS


def spi_reset(w: SpiWindow) -> None:
    """Zero the accumulator, e.g. after an adaptation's reset-spi step."""
    w.ring.clear()
    w.true_count = 0
