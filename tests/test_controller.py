import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from safeadapt.controller import (
    NET_INPUT_COUNT,
    NetControllerSpec,
    PidConfig,
    PidState,
    net_compute,
    pid_compute,
    weight_count,
    zero_spec,
)
from safeadapt.mapek import MAX_LAYER_COUNT, MAX_LAYER_SIZE, WEIGHT_NOISE_SCALE, propose_candidate
from safeadapt.model import SystemConfiguration, ValidationError
from net_oracle import matmul_net


class TestPid:
    def test_zero_gains_zero_power(self):
        power, _ = pid_compute(PidConfig(), PidState(), 60.0, 20.0, 0.1)
        assert power == 0.0

    def test_proportional_term(self):
        power, _ = pid_compute(PidConfig(kp=100.0), PidState(), 22.0, 20.0, 0.1)
        assert power == pytest.approx(200.0)

    def test_clamp_and_frozen_integral(self):
        cfg = PidConfig(kp=10000.0, ki=1.0)
        power, state = pid_compute(cfg, PidState(), 25.0, 20.0, 0.1)
        assert power == 10000.0
        assert state.integral == 0.0  # frozen while saturated

    def test_integral_accumulates_when_unsaturated(self):
        cfg = PidConfig(kp=100.0, ki=1.0)
        power, state = pid_compute(cfg, PidState(), 22.0, 20.0, 0.1)
        assert state.integral == pytest.approx(0.2)
        assert power == pytest.approx(200.0 + 0.2)

    def test_integral_bounded_under_persistent_saturation(self):
        cfg = PidConfig(kp=1.0, ki=50.0)
        state = PidState()
        for _ in range(10000):
            power, state = pid_compute(cfg, state, 90.0, 20.0, 0.1)
        # With anti-windup the integral stops growing at the clamp edge,
        # holding the output near (not past) the saturation level.
        assert 9000.0 <= power <= 10000.0
        assert cfg.ki * state.integral <= 10000.0 + 1e-6

    def test_derivative_on_error(self):
        cfg = PidConfig(kd=10.0)
        power, state = pid_compute(cfg, PidState(prev_error=1.0), 22.0, 20.0, 0.1)
        assert power == pytest.approx(10.0 * (2.0 - 1.0) / 0.1)

    def test_negative_output_clamped_to_zero(self):
        power, state = pid_compute(PidConfig(kp=100.0), PidState(), 20.0, 25.0, 0.1)
        assert power == 0.0
        assert state.integral == 0.0

    def test_from_configuration(self):
        cfg = PidConfig.from_configuration(
            SystemConfiguration("pid", {"kp": 1.0, "ki": 2.0, "kd": 3.0})
        )
        assert (cfg.kp, cfg.ki, cfg.kd) == (1.0, 2.0, 3.0)

    def test_tick_must_be_positive(self):
        with pytest.raises(ValidationError):
            pid_compute(PidConfig(), PidState(), 1.0, 0.0, 0.0)

    @given(
        st.floats(0, 1e4), st.floats(0, 1e2), st.floats(0, 1e3),
        st.floats(-50, 150), st.floats(-50, 150), st.floats(-100, 100),
    )
    def test_output_always_clamped(self, kp, ki, kd, setpoint, measured, integral):
        power, _ = pid_compute(
            PidConfig(kp, ki, kd), PidState(integral=integral), setpoint, measured, 0.1
        )
        assert 0.0 <= power <= 10000.0


def _reference_net(spec, inputs, max_power):
    """Straight-line scalar reimplementation of the forward pass."""
    dims = (NET_INPUT_COUNT, *spec.layer_sizes, 1)
    flat = list(spec.weights)
    x = list(inputs)
    pos = 0
    activations = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        out = []
        for j in range(fan_out):
            acc = 0.0
            for i in range(fan_in):
                acc += x[i] * flat[pos + i * fan_out + j]
            acc += flat[pos + fan_in * fan_out + j]
            out.append(acc)
        pos += fan_in * fan_out + fan_out
        activations.append(out)
        x = [math.tanh(v) for v in out]
    z = activations[-1][0]
    return (0.5 * (1.0 + math.tanh(0.5 * z))) * max_power


@st.composite
def _net_specs(draw):
    """Every topology a Type III run can reach, with zero weights (``zero_spec``), weights
    that ``propose_candidate`` has perturbed a number of times, or wider Gaussian weights."""
    sizes = draw(st.lists(st.integers(1, MAX_LAYER_SIZE), min_size=1, max_size=MAX_LAYER_COUNT))
    spec = zero_spec(sizes)
    kind = draw(st.sampled_from(["zero", "proposed", "gaussian"]))
    if kind == "proposed":
        for seed in draw(st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=40)):
            candidate = propose_candidate(spec, seed)
            if candidate.layer_sizes == spec.layer_sizes:  # the weight branch
                spec = candidate
    elif kind == "gaussian":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        scale = draw(st.sampled_from([WEIGHT_NOISE_SCALE, 1.0, 4.0]))
        spec = NetControllerSpec(spec.layer_sizes, tuple(
            rng.gauss(0.0, scale) for _ in spec.weights))
    return spec


_net_inputs = st.tuples(*[st.floats(-300.0, 300.0)] * NET_INPUT_COUNT)


@settings(max_examples=300)
@given(spec=_net_specs(), first=_net_inputs, second=_net_inputs)
def test_forward_pass_is_bit_identical_to_the_matmul_oracle(spec, first, second):
    # The first call builds the spec's cached layers, the second reads them.
    for inputs in (first, second):
        assert net_compute(spec, inputs, 10000.0) == matmul_net(spec, inputs, 10000.0)


# Calls drawn from a small pool repeat at distances 1, 2 and 3, on two specs and two
# max_power values; inputs hold signed zeros, infinities and NaN.
_memo_floats = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                         st.floats(-300.0, 300.0))
_SPECS = (zero_spec([2]), NetControllerSpec((2,), tuple(k / 10 for k in range(weight_count([2])))))
_POOL = [(50.0, 40.0, 10.0, 0.1, 0.0), (0.0, -0.0, math.inf, -math.inf, 1.0),
         (math.nan, 60.0, -0.0, 0.5, 2.0)]


def _same_bits(got, want):
    return math.isnan(got) and math.isnan(want) or struct.pack("<d", got) == struct.pack("<d", want)


@settings(max_examples=200)
@given(specs=st.tuples(_net_specs(), _net_specs()),
       pool=st.lists(st.tuples(*[_memo_floats] * NET_INPUT_COUNT), min_size=1, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([10000.0, 2500.0]),
                                st.integers(0, 2), st.booleans()), max_size=12))
@example(specs=_SPECS, pool=_POOL, calls=[(0, 10000.0, k, False) for k in [0, 0, 1, 0, 2, 1, 0]])
# A repeat at distance 2 with another max_power, a list that was mutated since it was
# passed, and a repeat on the other spec.
@example(specs=_SPECS, pool=_POOL, calls=[(1, 10000.0, 0, False), (1, 10000.0, 1, False),
                                          (1, 2500.0, 0, False)])
@example(specs=_SPECS, pool=_POOL, calls=[(1, 10000.0, 0, True), (1, 10000.0, 1, False),
                                          (1, 10000.0, 1, True)])
@example(specs=_SPECS, pool=_POOL, calls=[(0, 10000.0, 0, False), (0, 10000.0, 1, False),
                                          (1, 10000.0, 0, False)])
def test_memoised_calls_are_bit_identical_to_the_matmul_oracle(specs, pool, calls):
    specs = [NetControllerSpec(s.layer_sizes, s.weights) for s in specs]  # cold memos
    shared = [0.0] * NET_INPUT_COUNT  # one list, mutated in place between calls
    with np.errstate(over="ignore", invalid="ignore"):
        for which, max_power, pick, through_list in calls:
            inputs = pool[pick % len(pool)]
            if through_list:
                shared[:] = inputs
                inputs = shared
            got = net_compute(specs[which], inputs, max_power)
            assert _same_bits(got, matmul_net(specs[which], inputs, max_power))


class TestNet:
    def test_zero_weights_half_power(self):
        assert net_compute(zero_spec([4]), (50, 40, 10, 0.1, 0.0), 10000.0) == pytest.approx(5000.0)

    def test_large_negative_preactivation_saturates_low(self):
        weights = [0.0] * weight_count([1])
        weights[6] = 100.0  # output weight
        weights[5] = -50.0  # hidden bias -> tanh ~ -1
        spec = NetControllerSpec((1,), tuple(weights))
        assert net_compute(spec, (0, 0, 0, 0, 0), 10000.0) < 1e-10

    def test_matches_straight_line_reference(self):
        # Two calls per spec: the second runs on the layers cached by the first.
        rng = random.Random(7)
        for _ in range(50):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
            weights = tuple(rng.uniform(-2, 2) for _ in range(weight_count(sizes)))
            spec = NetControllerSpec(tuple(sizes), weights)
            for _ in range(2):
                inputs = tuple(rng.uniform(-10, 100) for _ in range(5))
                got = net_compute(spec, inputs, 10000.0)
                want = _reference_net(spec, inputs, 10000.0)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
                assert 0.0 <= got <= 10000.0

    def test_weight_count(self):
        assert weight_count([4]) == 5 * 4 + 4 + 4 * 1 + 1
        assert weight_count([3, 2]) == 5 * 3 + 3 + 3 * 2 + 2 + 2 * 1 + 1

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NetControllerSpec((4,), (0.0,) * 10)

    def test_bad_topology_rejected(self):
        with pytest.raises(ValidationError):
            NetControllerSpec((), ())
        with pytest.raises(ValidationError):
            NetControllerSpec((0,), ())
        with pytest.raises(ValidationError):
            NetControllerSpec((1,), (0.0,) * weight_count([1]), activation="relu")

    def test_wrong_input_arity(self):
        with pytest.raises(ValidationError):
            net_compute(zero_spec([1]), (1.0, 2.0), 10000.0)

    def test_lipschitz_bounded_slope(self):
        rng = random.Random(11)
        spec = NetControllerSpec(
            (4,), tuple(rng.uniform(-1, 1) for _ in range(weight_count([4])))
        )
        # d(output)/d(input) is bounded by max_power/4 * prod |W|_max terms;
        # a generous analytic ceiling for unit-bounded weights and width 4.
        ceiling = 10000.0 * 0.25 * 4.0
        for _ in range(50):
            x = [rng.uniform(-10, 100) for _ in range(5)]
            base = net_compute(spec, x, 10000.0)
            for i in range(5):
                bumped = list(x)
                bumped[i] += 1e-4
                slope = abs(net_compute(spec, bumped, 10000.0) - base) / 1e-4
                assert slope <= ceiling

    def test_round_trip(self):
        spec = zero_spec([3, 2])
        assert NetControllerSpec.from_dict(spec.to_dict()) == spec
