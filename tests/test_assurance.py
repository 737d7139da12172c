import copy
from collections import deque

import pytest

from safeadapt.assurance import (
    AttachEvidence,
    CaseNode,
    EvidenceItem,
    ReplaceConstraintContext,
    SafetyCase,
    StaticNodeError,
    StructuralError,
    adapt_case,
    constraint_context,
    current_constraints,
    evaluate_validity,
    load_case,
    render_text,
    save_case,
    support_map,
)
from safeadapt.corpus import type3_case
from safeadapt.model import (
    EnvironmentSample,
    KnowledgeRepository,
    OperationalDomain,
    SystemConfiguration,
    UNBOUNDED_DOMAIN,
    ValidationError,
)

COLD_FAST = OperationalDomain({"inflow_temp": (-10.0, 2.0), "inflow_rate": (0.2, 1.0)})
PERMISSIVE = OperationalDomain({"inflow_temp": (-10.0, 40.0), "inflow_rate": (0.01, 1.0)})


def _fresh_pass(eid="ev1", produced=0.0, freshness=100.0):
    return EvidenceItem(id=eid, kind="runtime-observation", verdict="pass",
                        produced_at=produced, freshness=freshness)


def _single_goal_case(evidence_item):
    nodes = {
        "G1": CaseNode("G1", "goal", children=["Sn1"]),
        "Sn1": CaseNode("Sn1", "solution", lifecycle="dynamic",
                        evidence=[evidence_item.id]),
    }
    return SafetyCase(nodes=nodes, root="G1",
                      evidence={evidence_item.id: evidence_item})


def _repo_with_sample(case, inflow_temp, inflow_rate=0.5):
    return KnowledgeRepository(
        current_config=SystemConfiguration("pid", {}),
        safety_case=case,
        sample_history=deque(
            [EnvironmentSample(0.0, inflow_temp, inflow_rate, 40.0, 40.0)], maxlen=10
        ),
    )


class TestEvidence:
    def test_runtime_kind_needs_finite_freshness(self):
        with pytest.raises(ValidationError):
            EvidenceItem(id="e", kind="runtime-assessment", verdict="pass")

    def test_design_kind_must_be_unlimited(self):
        with pytest.raises(ValidationError):
            EvidenceItem(id="e", kind="design-analysis", verdict="pass", freshness=10.0)

    def test_freshness_boundary_is_inclusive(self):
        item = _fresh_pass(produced=0.0, freshness=100.0)
        assert item.fresh_at(100.0)
        assert not item.fresh_at(100.0001)

    def test_bad_kind_and_verdict(self):
        with pytest.raises(ValidationError):
            EvidenceItem(id="e", kind="hearsay", verdict="pass")
        with pytest.raises(ValidationError):
            EvidenceItem(id="e", kind="design-analysis", verdict="maybe")


class TestValidity:
    def test_fresh_pass_evidence_supports_root(self):
        case = _single_goal_case(_fresh_pass())
        verdict = evaluate_validity(case, now=50.0)
        assert verdict == {"valid": True, "failing_nodes": []}

    def test_stale_evidence_fails_at_the_solution(self):
        case = _single_goal_case(_fresh_pass())
        verdict = evaluate_validity(case, now=101.0)
        assert not verdict["valid"]
        assert "Sn1" in verdict["failing_nodes"]

    def test_fail_verdict_evidence_fails(self):
        item = EvidenceItem(id="ev1", kind="runtime-observation", verdict="fail",
                            produced_at=0.0, freshness=100.0)
        assert not evaluate_validity(_single_goal_case(item), now=1.0)["valid"]

    def test_solution_without_evidence_is_unsupported(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["Sn1"]),
            "Sn1": CaseNode("Sn1", "solution"),
        }
        case = SafetyCase(nodes=nodes, root="G1")
        assert not evaluate_validity(case, now=0.0)["valid"]

    def test_violated_constraint_context_invalidates(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["C1", "Sn1"]),
            "C1": CaseNode("C1", "context", lifecycle="dynamic", constraint=COLD_FAST),
            "Sn1": CaseNode("Sn1", "solution", evidence=["ev1"]),
        }
        item = EvidenceItem(id="ev1", kind="design-analysis", verdict="pass")
        case = SafetyCase(nodes=nodes, root="G1", evidence={"ev1": item})

        ok = evaluate_validity(case, 0.0, _repo_with_sample(case, inflow_temp=1.0))
        assert ok["valid"]
        bad = evaluate_validity(case, 0.0, _repo_with_sample(case, inflow_temp=5.0))
        assert not bad["valid"]
        assert "C1" in bad["failing_nodes"]

    def test_static_context_is_always_supported(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["C1"]),
            "C1": CaseNode("C1", "context", constraint=COLD_FAST),
        }
        case = SafetyCase(nodes=nodes, root="G1")
        assert evaluate_validity(case, 0.0, _repo_with_sample(case, 30.0))["valid"]

    def test_unknown_predicate_is_structural(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["A1"]),
            "A1": CaseNode("A1", "assumption", lifecycle="dynamic", predicate="ouija"),
        }
        with pytest.raises(StructuralError, match="ouija"):
            SafetyCase(nodes=nodes, root="G1")

    def test_goal_with_no_children_is_vacuously_supported(self):
        case = SafetyCase(nodes={"G1": CaseNode("G1", "goal")}, root="G1")
        assert evaluate_validity(case, 0.0)["valid"]


class TestStructure:
    def test_dangling_child(self):
        with pytest.raises(StructuralError, match="ghost"):
            SafetyCase(nodes={"G1": CaseNode("G1", "goal", children=["ghost"])}, root="G1")

    def test_shared_child_not_a_tree(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["S1", "S2"]),
            "S1": CaseNode("S1", "strategy", children=["G2"]),
            "S2": CaseNode("S2", "strategy", children=["G2"]),
            "G2": CaseNode("G2", "goal"),
        }
        with pytest.raises(StructuralError):
            SafetyCase(nodes=nodes, root="G1")

    def test_unreachable_node(self):
        nodes = {
            "G1": CaseNode("G1", "goal"),
            "orphan": CaseNode("orphan", "goal"),
        }
        with pytest.raises(StructuralError):
            SafetyCase(nodes=nodes, root="G1")

    def test_solution_must_be_leaf(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["Sn1"]),
            "Sn1": CaseNode("Sn1", "solution", children=["G1"]),
        }
        with pytest.raises(StructuralError):
            SafetyCase(nodes=nodes, root="G1")

    def test_unknown_evidence_reference(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["Sn1"]),
            "Sn1": CaseNode("Sn1", "solution", evidence=["missing"]),
        }
        with pytest.raises(StructuralError):
            SafetyCase(nodes=nodes, root="G1")

    def test_node_field_restrictions(self):
        with pytest.raises(ValidationError):
            CaseNode("x", "goal", constraint=COLD_FAST)
        with pytest.raises(ValidationError):
            CaseNode("x", "goal", predicate="spi-under-threshold")  # static
        with pytest.raises(ValidationError):
            CaseNode("x", "goal", evidence=["ev1"])


def _dynamic_case():
    nodes = {
        "G1": CaseNode("G1", "goal", children=["C1", "G2", "Sn2"]),
        "C1": CaseNode("C1", "context", lifecycle="dynamic", constraint=PERMISSIVE),
        "G2": CaseNode("G2", "goal", lifecycle="dynamic", children=["Sn1"]),
        "Sn1": CaseNode("Sn1", "solution", lifecycle="dynamic", evidence=["ev1"]),
        "Sn2": CaseNode("Sn2", "solution", evidence=["ev2"]),  # static
    }
    evidence = {
        "ev1": _fresh_pass("ev1", freshness=1e9),
        "ev2": EvidenceItem(id="ev2", kind="design-analysis", verdict="pass"),
    }
    return SafetyCase(nodes=nodes, root="G1", evidence=evidence)


class TestAdaptCase:
    def test_attach_evidence_bumps_revision(self):
        case = _dynamic_case()
        item = _fresh_pass("ev-new", produced=5.0)
        new = adapt_case(case, [AttachEvidence("Sn1", item)], now=5.0, cause="test")
        assert new.revision == case.revision + 1
        assert "ev-new" in new.node("Sn1").evidence
        assert new.snapshots[-1] == (new.revision, 5.0, "test")
        # original untouched
        assert "ev-new" not in case.node("Sn1").evidence

    def test_replace_constraint_context(self):
        case = _dynamic_case()
        new = adapt_case(case, [ReplaceConstraintContext("C1", COLD_FAST)])
        assert current_constraints(new) == COLD_FAST
        assert current_constraints(case) == PERMISSIVE

    @pytest.mark.parametrize("patch", [
        AttachEvidence("A-SPI", _fresh_pass("ev-x")),
        ReplaceConstraintContext("A-SPI", COLD_FAST),
    ], ids=["evidence", "constraint"])
    def test_patch_cannot_break_node_invariants(self, patch):
        # A-SPI is a dynamic assumption: it may carry neither evidence nor a constraint.
        with pytest.raises(ValidationError, match="A-SPI"):
            adapt_case(type3_case(), [patch])

    def test_static_target_rejected_and_nothing_applied(self):
        case = _dynamic_case()
        before = copy.deepcopy(case.to_dict())
        with pytest.raises(StaticNodeError, match="Sn2"):
            adapt_case(case, [
                AttachEvidence("Sn1", _fresh_pass("ok")),
                AttachEvidence("Sn2", _fresh_pass("bad")),
            ])
        assert case.to_dict() == before

    def test_revision_log_counts_successful_calls(self):
        case = _dynamic_case()
        for k in range(5):
            case = adapt_case(case, [AttachEvidence("Sn1", _fresh_pass(f"e{k}"))])
        assert case.revision == 5
        assert len(case.snapshots) == 5

    def test_pass_fresh_evidence_never_invalidates(self):
        case = _dynamic_case()
        repo = _repo_with_sample(case, inflow_temp=10.0)
        assert evaluate_validity(case, 1.0, repo)["valid"]
        new = adapt_case(case, [AttachEvidence("Sn1", _fresh_pass("extra", produced=1.0))])
        repo.safety_case = new
        assert evaluate_validity(new, 1.0, repo)["valid"]

    def test_evidence_monotone_in_verdicts(self):
        failing = EvidenceItem(id="ev1", kind="runtime-observation", verdict="fail",
                               produced_at=0.0, freshness=1e9)
        case = _dynamic_case()
        case.evidence["ev1"] = failing
        before = support_map(case, 1.0)
        case.evidence["ev1"] = _fresh_pass("ev1", freshness=1e9)
        after = support_map(case, 1.0)
        for node_id, supported in before.items():
            if supported:
                assert after[node_id]


class TestConstraints:
    def test_single_context_domain(self):
        assert current_constraints(_dynamic_case()) == PERMISSIVE
        assert constraint_context(_dynamic_case()).id == "C1"

    def test_no_context_is_unbounded(self):
        case = SafetyCase(nodes={"G1": CaseNode("G1", "goal")}, root="G1")
        assert current_constraints(case) == UNBOUNDED_DOMAIN
        assert constraint_context(case) is None

    def test_multiple_contexts_are_structural(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["C1", "C2"]),
            "C1": CaseNode("C1", "context", lifecycle="dynamic", constraint=PERMISSIVE),
            "C2": CaseNode("C2", "context", lifecycle="dynamic", constraint=COLD_FAST),
        }
        case = SafetyCase(nodes=nodes, root="G1")
        with pytest.raises(StructuralError):
            current_constraints(case)


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        case = _dynamic_case()
        path = tmp_path / "case.json"
        save_case(case, path)
        assert load_case(path).to_dict() == case.to_dict()

    def test_render_text_shows_tree(self):
        text = render_text(_dynamic_case())
        assert "goal:G1" in text
        assert "evidence:ev1" in text
