import itertools

import pytest

from safeadapt.assurance import CaseNode, EvidenceItem, SafetyCase
from safeadapt.model import ValidationError
from safeadapt.taxonomy import (
    AdaptationDescriptor,
    ClassificationError,
    DYNAMIC_OBLIGATIONS,
    LifecycleMismatchError,
    OBLIGATIONS,
    all_discharged,
    check_obligations,
    classify,
    matched_criteria,
    obligations_for,
    verdict_for,
)
from corpus_files import write

T0_DESC = AdaptationDescriptor(affects_safety_critical=False, independence_argued=True)
TI_DESC = AdaptationDescriptor(
    affects_safety_critical=True,
    options_enumerated_at_design_time=True,
    design_time_safety="unconditional",
)
TII_DESC = AdaptationDescriptor(
    affects_safety_critical=True,
    options_enumerated_at_design_time=True,
    design_time_safety="domain-conditional",
    domain_constraints_declared=True,
)
TIII_DESC = AdaptationDescriptor(
    affects_safety_critical=True,
    options_enumerated_at_design_time=False,
    runtime_assessment_declared=True,
    case_in_knowledge_repo=True,
)


class TestClassify:
    def test_four_worked_descriptors(self):
        assert classify(T0_DESC) == "T0"
        assert classify(TI_DESC) == "TI"
        assert classify(TII_DESC) == "TII"
        assert classify(TIII_DESC) == "TIII"

    def test_unassessed_open_set_is_an_error(self):
        descriptor = AdaptationDescriptor(
            affects_safety_critical=True,
            options_enumerated_at_design_time=False,
            runtime_assessment_declared=False,
        )
        with pytest.raises(ClassificationError) as excinfo:
            classify(descriptor)
        assert excinfo.value.nearest_type == "TIII"
        assert excinfo.value.unmet_criterion == "TIII.C3"

    def test_matched_criteria_listing(self):
        assert matched_criteria(TI_DESC, "TI") == ["TI.C1", "TI.C2", "TI.C3"]
        assert matched_criteria(TIII_DESC, "TIII") == [
            "TIII.C1", "TIII.C2", "TIII.C3", "TIII.C4",
        ]

    def test_descriptor_invariant(self):
        with pytest.raises(ValidationError):
            AdaptationDescriptor(
                affects_safety_critical=True,
                options_enumerated_at_design_time=False,
                design_time_safety="unconditional",
            )
        with pytest.raises(ValidationError):
            AdaptationDescriptor(affects_safety_critical=True, design_time_safety="maybe")

    def test_round_trip(self):
        for descriptor in (T0_DESC, TI_DESC, TII_DESC, TIII_DESC):
            assert AdaptationDescriptor.from_dict(write(descriptor)) == descriptor


def _all_well_formed_descriptors():
    bools = (False, True)
    for values in itertools.product(bools, bools, bools,
                                    ("none", "unconditional", "domain-conditional"),
                                    bools, bools, bools):
        (affects, independence, enumerated, safety,
         constraints, assessment, in_repo) = values
        if safety != "none" and not enumerated:
            continue
        yield AdaptationDescriptor(
            affects_safety_critical=affects,
            independence_argued=independence,
            options_enumerated_at_design_time=enumerated,
            design_time_safety=safety,
            domain_constraints_declared=constraints,
            runtime_assessment_declared=assessment,
            case_in_knowledge_repo=in_repo,
        )


def test_classification_is_total_and_single_valued():
    """Every well-formed descriptor matches at most one type's full criteria."""
    seen_error = False
    for descriptor in _all_well_formed_descriptors():
        full_matches = [
            t for t in ("T0", "TI", "TII", "TIII")
            if len(matched_criteria(descriptor, t)) == {"T0": 1, "TI": 3,
                                                        "TII": 4, "TIII": 4}[t]
        ]
        assert len(full_matches) <= 1
        try:
            got = classify(descriptor)
            assert full_matches == [got]
        except ClassificationError:
            seen_error = True
            assert full_matches == []
    assert seen_error  # the descriptor space genuinely contains unclassifiable points


class TestObligations:
    def test_golden_sets(self):
        assert obligations_for("T0") == ["T0.B1", "T0.B2"]
        assert obligations_for("TI") == ["TI.B1", "TI.B2", "TI.B3", "TI.B4"]
        assert obligations_for("TII") == ["TII.B1", "TII.B2", "TII.B3", "TII.B4", "TII.B5"]
        assert obligations_for("TIII") == [
            "TIII.B1", "TIII.B2", "TIII.B3", "TIII.B4", "TIII.B5", "TIII.B6", "TIII.B7",
        ]

    def test_counts_2_4_5_7(self):
        assert [len(OBLIGATIONS[t]) for t in ("T0", "TI", "TII", "TIII")] == [2, 4, 5, 7]

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            obligations_for("TIV")

    def test_dynamic_obligation_set(self):
        assert DYNAMIC_OBLIGATIONS == {"TII.B4", "TII.B5", "TIII.B6", "TIII.B7"}


def _design_ev(eid):
    return EvidenceItem(id=eid, kind="design-analysis", verdict="pass")


def _tii_case(b4_evidence=None):
    if b4_evidence is None:
        b4_evidence = EvidenceItem(
            id="ev-b4", kind="runtime-observation", verdict="pass",
            produced_at=0.0, freshness=100.0,
        )
    nodes = {
        "G1": CaseNode("G1", "goal", children=["S1"]),
        "S1": CaseNode("S1", "strategy",
                       children=["Sn1", "Sn2", "Sn3", "Sn4", "Sn5"]),
        "Sn1": CaseNode("Sn1", "solution", discharges={"TII.B1"}, evidence=["ev1"]),
        "Sn2": CaseNode("Sn2", "solution", discharges={"TII.B2"}, evidence=["ev2"]),
        "Sn3": CaseNode("Sn3", "solution", discharges={"TII.B3"}, evidence=["ev3"]),
        "Sn4": CaseNode("Sn4", "solution", lifecycle="dynamic",
                        discharges={"TII.B4"}, evidence=["ev-b4"]),
        "Sn5": CaseNode("Sn5", "solution", lifecycle="dynamic",
                        discharges={"TII.B5"}, evidence=["ev5"]),
    }
    evidence = {
        "ev1": _design_ev("ev1"), "ev2": _design_ev("ev2"), "ev3": _design_ev("ev3"),
        "ev-b4": b4_evidence,
        "ev5": EvidenceItem(id="ev5", kind="runtime-observation", verdict="pass",
                            produced_at=0.0, freshness=1e9),
    }
    return SafetyCase(nodes=nodes, root="G1", evidence=evidence)


class TestCheckObligations:
    def test_fully_discharged_type2_case(self):
        result = check_obligations("TII", _tii_case(), now=10.0)
        assert set(result.values()) == {"discharged"}

    def test_stale_runtime_evidence_is_unsupported(self):
        result = check_obligations("TII", _tii_case(), now=500.0)  # past 100 s freshness
        assert result["TII.B4"] == "unsupported-node"
        assert result["TII.B1"] == "discharged"

    def test_bare_case_misses_everything(self):
        case = SafetyCase(nodes={"G1": CaseNode("G1", "goal")}, root="G1")
        result = check_obligations("TIII", case, now=0.0)
        assert set(result.values()) == {"missing"}

    def test_dynamic_obligation_on_static_node_is_a_mismatch(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["Sn1"]),
            "Sn1": CaseNode("Sn1", "solution", discharges={"TII.B4"}, evidence=["ev1"]),
        }
        case = SafetyCase(nodes=nodes, root="G1", evidence={"ev1": _design_ev("ev1")})
        with pytest.raises(LifecycleMismatchError, match="Sn1"):
            check_obligations("TII", case, now=0.0)

    def test_static_obligation_on_dynamic_node_is_a_mismatch(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["Sn1"]),
            "Sn1": CaseNode("Sn1", "solution", lifecycle="dynamic",
                            discharges={"TI.B1"}, evidence=["ev1"]),
        }
        case = SafetyCase(nodes=nodes, root="G1", evidence={"ev1": _design_ev("ev1")})
        with pytest.raises(LifecycleMismatchError):
            check_obligations("TI", case, now=0.0)

    def test_another_types_obligation_on_the_wrong_lifecycle_is_a_mismatch(self):
        def case(*solutions):
            nodes = {"G1": CaseNode("G1", "goal", children=[n.id for n in solutions])}
            nodes.update((n.id, n) for n in solutions)
            return SafetyCase(nodes=nodes, root="G1", evidence={"ev1": _design_ev("ev1")})

        # An id no type imposes binds neither lifecycle.
        other = CaseNode("Sn2", "solution", lifecycle="dynamic", discharges={"site.X1"},
                         evidence=["ev1"])
        wrong = CaseNode("Sn1", "solution", discharges={"TII.B4"}, evidence=["ev1"])
        with pytest.raises(LifecycleMismatchError, match="TII.B4"):
            check_obligations("TI", case(wrong, other), now=0.0)
        assert set(check_obligations("TI", case(other), now=0.0).values()) == {"missing"}

    def test_support_growth_never_undischarges(self):
        fail_item = EvidenceItem(
            id="ev-b4", kind="runtime-observation", verdict="fail",
            produced_at=0.0, freshness=100.0,
        )
        before = check_obligations("TII", _tii_case(fail_item), now=10.0)
        after = check_obligations("TII", _tii_case(), now=10.0)
        for obligation, status in before.items():
            if status == "discharged":
                assert after[obligation] == "discharged"


@pytest.mark.parametrize("discharges, expected", [
    ([], True),
    ([{"a": "discharged"}, {}], True),
    ([{"a": "discharged"}, {"b": "discharged", "c": "missing"}], False),
])
def test_all_discharged_needs_every_obligation_of_every_verdict(discharges, expected):
    assert all_discharged([{"discharge": d} for d in discharges]) is expected


def test_verdict_for_bundles_everything():
    class FakeModel:
        id = "m"
        descriptor = TII_DESC

    verdict = verdict_for(FakeModel(), _tii_case(), now=10.0)
    assert verdict.type == "TII"
    assert verdict.required_obligations == obligations_for("TII")
    assert all_discharged([verdict.to_dict()])
    assert verdict.to_dict()["model_id"] == "m"
