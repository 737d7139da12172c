"""Managed-system control laws: PID and the parametric network controller."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .model import SystemConfiguration, ValidationError, json_number, json_value

#: Inputs consumed by the network controller, in order.
NET_INPUTS = ("setpoint", "outflow_temp", "inflow_temp", "inflow_rate", "outflow_temp_rate")
NET_INPUT_COUNT = len(NET_INPUTS)


@dataclass(frozen=True)
class PidConfig:
    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"PID gain {name} must be finite")

    @classmethod
    def from_configuration(cls, config: SystemConfiguration) -> "PidConfig":
        p = config.parameters
        return cls(kp=p.get("kp", 0.0), ki=p.get("ki", 0.0), kd=p.get("kd", 0.0))


class PidState(NamedTuple):
    integral: float = 0.0  # degC s
    prev_error: float = 0.0  # degC


def pid_compute(
    cfg: PidConfig,
    st: tuple[float, float],
    setpoint: float,
    measured: float,
    tick: float,
    max_power: float = 10000.0,
) -> tuple[float, tuple[float, float]]:
    """Positional-form PID with output clamp and clamped anti-windup.

    The integral is frozen (not advanced) on any tick where the output saturates at either
    clamp. ``st`` is in `PidState` order; the result is ``(power, (integral, error))``.
    """
    if tick <= 0:
        raise ValidationError(f"tick must be positive, got {tick}")
    integral, prev_error = st
    error = setpoint - measured
    derivative = (error - prev_error) / tick
    tentative_integral = integral + error * tick
    raw = cfg.kp * error + cfg.ki * tentative_integral + cfg.kd * derivative
    if 0.0 <= raw <= max_power:
        return raw, (tentative_integral, error)
    # Saturated: freeze the integral and clamp the output.
    raw = cfg.kp * error + cfg.ki * integral + cfg.kd * derivative
    power = 0.0 if raw < 0.0 else raw  # min(max(raw, 0.0), max_power), without the two calls
    return (max_power if power > max_power else power), (integral, error)


@dataclass(frozen=True)
class NetControllerSpec:
    """Feed-forward network mapping five plant signals to a heating level.

    Hidden activations are tanh; the scalar output passes through a
    logistic squash and is scaled by max_power. Weights are stored flat,
    per layer: row-major (fan_in x fan_out) matrix followed by the bias
    vector.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[float, ...]
    activation: str = "tanh"
    # net_compute's last two calls on this spec, older first: (inputs tuple, max_power, power).
    _recent: list = field(default_factory=lambda: [((), 0.0, 0.0)] * 2,
                          init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.activation != "tanh":
            raise ValidationError(f"unsupported activation {self.activation!r}")
        if not self.layer_sizes:
            raise ValidationError("at least one hidden layer is required")
        for size in self.layer_sizes:
            if size < 1:
                raise ValidationError(f"layer size must be positive, got {size}")
        expected = weight_count(self.layer_sizes)
        if len(self.weights) != expected:
            raise ValidationError(
                f"topology {self.layer_sizes} needs {expected} weights, "
                f"got {len(self.weights)}"
            )
        if not all(math.isfinite(w) for w in self.weights):
            raise ValidationError("weights must be finite")

    @cached_property
    def layers(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray, float]:
        """Hidden (matrix, bias) pairs, the output matrix and float bias; built once per spec."""
        dims = (NET_INPUT_COUNT, *self.layer_sizes, 1)
        out = []
        pos = 0
        flat = np.array(self.weights, dtype=float)
        flat.setflags(write=False)  # shared by every call on this spec
        for fan_in, fan_out in zip(dims, dims[1:]):
            matrix = flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += fan_in * fan_out
            bias = flat[pos:pos + fan_out]
            pos += fan_out
            out.append((matrix, bias))
        matrix, bias = out.pop()
        return tuple(out), matrix, float(bias[0])

    def to_dict(self) -> dict[str, Any]:
        return {
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation,
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetControllerSpec":
        data = json_value(data, dict, "net_controller")
        sizes = json_value(data.get("layer_sizes"), list, "net 'layer_sizes'")
        weights = json_value(data.get("weights"), list, "net 'weights'")
        return cls(
            layer_sizes=tuple([json_value(s, int, "net layer size") for s in sizes]),
            weights=tuple([json_number(w, "net weight") for w in weights]),
            activation=json_value(data.get("activation", "tanh"), str, "net 'activation'"),
        )


def weight_count(layer_sizes: Sequence[int]) -> int:
    dims = (NET_INPUT_COUNT, *layer_sizes, 1)
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def zero_spec(layer_sizes: Sequence[int]) -> NetControllerSpec:
    sizes = tuple(int(s) for s in layer_sizes)
    return NetControllerSpec(sizes, (0.0,) * weight_count(sizes))


def net_compute(
    spec: NetControllerSpec, inputs: Sequence[float], max_power: float
) -> float:
    """Deterministic forward pass; returns a power in [0, max_power].

    A call whose inputs and max_power equal (by ``==``) the call two before on this spec
    returns that call's power without a pass: the controlled plant chatters with period 2.
    """
    if len(inputs) != NET_INPUT_COUNT:
        raise ValidationError(
            f"expected {NET_INPUT_COUNT} inputs, got {len(inputs)}"
        )
    key, recent = tuple(inputs), spec._recent  # immutable: a list mutated in place never hits
    older = recent[0]
    if older[0] == key and older[1] == max_power:
        recent[0], recent[1] = recent[1], older
        return older[2]
    # x.dot(m) makes the BLAS call of x @ m at half the dispatch cost, bit for bit.
    x = np.array(key, dtype=float)
    hidden, matrix, bias = spec.layers
    for hidden_matrix, hidden_bias in hidden:
        x = np.tanh(x.dot(hidden_matrix) + hidden_bias)
    z = float(x.dot(matrix)[0]) + bias
    # Logistic squash keeps the command in [0, 1] before power scaling.
    power = 0.5 * (1.0 + math.tanh(0.5 * z)) * max_power
    recent[0], recent[1] = recent[1], (key, max_power, power)
    return power
