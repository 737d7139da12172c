import math

import pytest
from hypothesis import given, strategies as st

from safeadapt.controller import PidState
from safeadapt.model import (
    AdaptationModel,
    AdaptationOption,
    EnvironmentSample,
    OperationalDomain,
    ParameterConstraint,
    SystemConfiguration,
    UNBOUNDED_DOMAIN,
    ValidationError,
    domain_subset,
    history_capacity,
    option_satisfies_model,
)
from safeadapt.plant import GuardState, PlantState
from safeadapt.taxonomy import AdaptationDescriptor

COLD_FAST = OperationalDomain({"inflow_temp": (-10.0, 2.0), "inflow_rate": (0.2, 1.0)})
PERMISSIVE = OperationalDomain({"inflow_temp": (-10.0, 40.0), "inflow_rate": (0.01, 1.0)})


class TestOperationalDomain:
    def test_low_above_high_rejected(self):
        with pytest.raises(ValidationError):
            OperationalDomain({"inflow_temp": (3.0, 1.0)})

    def test_missing_variable_unbounded(self):
        assert UNBOUNDED_DOMAIN.interval("inflow_temp") == (-math.inf, math.inf)

    def test_round_trip(self):
        half_open = OperationalDomain({"inflow_temp": (-math.inf, 2.0)})
        for domain in (COLD_FAST, PERMISSIVE, UNBOUNDED_DOMAIN, half_open):
            assert OperationalDomain.from_dict(domain.to_dict()) == domain

    def test_none_maps_to_infinity(self):
        domain = OperationalDomain.from_dict({"inflow_temp": [None, 2.0]})
        assert domain.interval("inflow_temp") == (-math.inf, 2.0)

    @pytest.mark.parametrize("name", ["setpoint", "outflow_temp", "time", "inflow"])
    def test_only_sample_inputs_may_be_bounded(self, name):
        # Validity and `admission_test` read each bound's variable off the
        # sample, so a bound may name only an environment input.
        with pytest.raises(ValidationError, match="may bound only"):
            OperationalDomain({name: (0.0, 100.0)})
        with pytest.raises(ValidationError, match="may bound only"):
            OperationalDomain.from_dict({"inflow_temp": [0, 5], name: [0, 100]})

    def test_explicit_infinity_is_legal(self):
        domain = OperationalDomain.from_dict({"inflow_temp": [-math.inf, math.inf]})
        assert domain.interval("inflow_temp") == (-math.inf, math.inf)


class TestDomainSubset:
    def test_cold_fast_inside_permissive(self):
        assert domain_subset(COLD_FAST, PERMISSIVE)

    def test_reflexive(self):
        assert domain_subset(PERMISSIVE, PERMISSIVE)

    def test_reversed_containment_fails(self):
        assert not domain_subset(
            OperationalDomain({"inflow_temp": (-10.0, 40.0)}),
            OperationalDomain({"inflow_temp": (-10.0, 2.0)}),
        )

    def test_axis_bounded_only_in_inner_is_fine(self):
        assert domain_subset(OperationalDomain({"inflow_rate": (0.2, 0.4)}), UNBOUNDED_DOMAIN)


_interval = st.tuples(
    st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
).map(lambda p: (min(p), max(p)))
_domains = st.dictionaries(
    st.sampled_from(["inflow_temp", "inflow_rate"]), _interval, max_size=2
).map(OperationalDomain)


@given(_domains)
def test_domain_subset_reflexive(d):
    assert domain_subset(d, d)


@given(_domains, _domains, _domains)
def test_domain_subset_transitive(a, b, c):
    if domain_subset(a, b) and domain_subset(b, c):
        assert domain_subset(a, c)


@given(_domains, _domains)
def test_domain_subset_antisymmetric_on_normalized(a, b):
    if domain_subset(a, b) and domain_subset(b, a):
        assert a.normalized().bounds == b.normalized().bounds


class TestSystemConfiguration:
    def test_unknown_controller_kind(self):
        with pytest.raises(ValidationError):
            SystemConfiguration("bang-bang", {})

    def test_non_finite_parameter(self):
        with pytest.raises(ValidationError):
            SystemConfiguration("pid", {"kp": math.nan})

    def test_with_assignment_merges(self):
        config = SystemConfiguration("pid", {"kp": 1.0, "ki": 2.0})
        merged = config.with_assignment({"kp": 5.0, "kd": 3.0})
        assert merged.parameters == {"kp": 5.0, "ki": 2.0, "kd": 3.0}
        assert config.parameters == {"kp": 1.0, "ki": 2.0}

    def test_round_trip(self):
        config = SystemConfiguration("pid", {"kp": 1.5})
        assert SystemConfiguration.from_dict(config.to_dict()) == config


def _conditional_model():
    # One parameter must stay above a floor whenever a second parameter
    # exceeds its threshold.
    return AdaptationModel(
        id="m",
        parameters=("P1", "P2"),
        constraints=(
            ParameterConstraint("conditional", "P1", low=1.0, condition=("P2", 0.0)),
        ),
        descriptor=AdaptationDescriptor(affects_safety_critical=True),
    )


class TestOptionSatisfiesModel:
    def test_condition_met_and_satisfied(self):
        option = AdaptationOption("o", "m", {"P1": 2.0, "P2": 1.0})
        assert option_satisfies_model(option, _conditional_model())

    def test_condition_met_and_violated(self):
        option = AdaptationOption("o", "m", {"P1": 0.5, "P2": 1.0})
        assert not option_satisfies_model(option, _conditional_model())

    def test_condition_inactive_is_vacuous(self):
        option = AdaptationOption("o", "m", {"P1": 0.5, "P2": -1.0})
        assert option_satisfies_model(option, _conditional_model())

    def test_unknown_parameter_named_in_error(self):
        option = AdaptationOption("o", "m", {"P1": 1.0, "P2": 0.0, "P9": 1.0})
        with pytest.raises(ValidationError, match="P9"):
            option_satisfies_model(option, _conditional_model())

    def test_partial_assignment_rejected(self):
        option = AdaptationOption("o", "m", {"P1": 2.0})
        assert not option_satisfies_model(option, _conditional_model())


class TestParameterConstraint:
    def test_interval_bounds(self):
        constraint = ParameterConstraint("interval", "kp", low=0.0, high=10.0)
        assert constraint.satisfied_by({"kp": 0.0})
        assert constraint.satisfied_by({"kp": 10.0})
        assert not constraint.satisfied_by({"kp": 10.5})

    def test_conditional_requires_condition(self):
        with pytest.raises(ValidationError):
            ParameterConstraint("conditional", "kp", low=0.0)

    def test_round_trip(self):
        constraint = ParameterConstraint("conditional", "kd", low=10.0, condition=("kp", 1000.0))
        assert ParameterConstraint.from_dict(constraint.to_dict()) == constraint


class TestAdaptationModel:
    def test_constraint_on_unknown_parameter(self):
        with pytest.raises(ValidationError):
            AdaptationModel(
                id="m", parameters=("kp",),
                constraints=(ParameterConstraint("interval", "ki", low=0.0),),
                descriptor=AdaptationDescriptor(affects_safety_critical=False),
            )

    def test_enumerated_descriptor_needs_options(self):
        with pytest.raises(ValidationError):
            AdaptationModel(
                id="m", parameters=("kp",),
                descriptor=AdaptationDescriptor(
                    affects_safety_critical=True,
                    options_enumerated_at_design_time=True,
                    design_time_safety="unconditional",
                ),
                options=None,
            )

    def test_round_trip(self):
        model = _conditional_model()
        assert AdaptationModel.from_dict(model.to_dict()) == model


@pytest.mark.parametrize("record", [
    EnvironmentSample(0.0, 10.0, 0.1, 50.0, 40.0),
    PlantState(tank_temp=20.0),
    GuardState(),
    PidState(),
], ids=lambda r: type(r).__name__)
def test_tick_records_reject_field_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0  # no instance dict either


def test_history_capacity_covers_an_hour():
    assert history_capacity(0.1) == 36000
    assert history_capacity(0.5) == 7200
