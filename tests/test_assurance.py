import copy
import json
import math
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

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
    watch_root,
)
from safeadapt.model import (
    EnvironmentSample,
    KnowledgeRepository,
    OperationalDomain,
    SystemConfiguration,
    UNBOUNDED_DOMAIN,
    ValidationError,
)
from safeadapt import spi as spi_module
from safeadapt.spi import SpiWindow
from safeadapt.taxonomy import DYNAMIC_OBLIGATIONS, check_obligations, obligations_for
from validity_oracle import support_map, unsupported
import corpus_files

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
        case = _single_goal_case(_fresh_pass(produced=0.0, freshness=100.0))
        assert evaluate_validity(case, 100.0) == frozenset()
        assert evaluate_validity(case, 100.0001) == {"G1", "Sn1"}

    def test_bad_kind_and_verdict(self):
        with pytest.raises(ValidationError):
            EvidenceItem(id="e", kind="hearsay", verdict="pass")
        with pytest.raises(ValidationError):
            EvidenceItem(id="e", kind="design-analysis", verdict="maybe")


class TestValidity:
    def test_fresh_pass_evidence_supports_root(self):
        case = _single_goal_case(_fresh_pass())
        assert evaluate_validity(case, now=50.0) == frozenset()

    def test_stale_evidence_fails_at_the_solution(self):
        case = _single_goal_case(_fresh_pass())
        assert evaluate_validity(case, now=101.0) == {"G1", "Sn1"}

    def test_fail_verdict_evidence_fails(self):
        item = EvidenceItem(id="ev1", kind="runtime-observation", verdict="fail",
                            produced_at=0.0, freshness=100.0)
        assert "G1" in evaluate_validity(_single_goal_case(item), now=1.0)

    def test_solution_without_evidence_is_unsupported(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["Sn1"]),
            "Sn1": CaseNode("Sn1", "solution"),
        }
        case = SafetyCase(nodes=nodes, root="G1")
        assert "G1" in evaluate_validity(case, now=0.0)

    def test_violated_constraint_context_invalidates(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["C1", "Sn1"]),
            "C1": CaseNode("C1", "context", lifecycle="dynamic", constraint=COLD_FAST),
            "Sn1": CaseNode("Sn1", "solution", evidence=["ev1"]),
        }
        item = EvidenceItem(id="ev1", kind="design-analysis", verdict="pass")
        case = SafetyCase(nodes=nodes, root="G1", evidence={"ev1": item})

        ok = evaluate_validity(case, 0.0, _repo_with_sample(case, inflow_temp=1.0))
        assert ok == frozenset()
        bad = evaluate_validity(case, 0.0, _repo_with_sample(case, inflow_temp=5.0))
        assert bad == {"G1", "C1"}

    @pytest.mark.parametrize("inflow_temp", [1.0, 5.0])  # inside, outside the bound
    @pytest.mark.parametrize("true_count", [0, 5])  # SPI under, over its threshold
    def test_predicate_is_asked_when_a_bound_of_its_node_fails(
        self, monkeypatch, inflow_temp, true_count
    ):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["C1"]),
            "C1": CaseNode("C1", "context", lifecycle="dynamic", constraint=COLD_FAST,
                           predicate="spi-under-threshold"),
        }
        case = SafetyCase(nodes=nodes, root="G1")
        repo = _repo_with_sample(case, inflow_temp)
        window = SpiWindow(window=10.0, threshold=1.0, tick=1.0)
        window.true_count = true_count
        repo.spi_windows = [window]
        expected = unsupported(case, 0.0, repo)
        asked = []
        breached = spi_module.spi_breached
        monkeypatch.setattr(spi_module, "spi_breached", lambda w: asked.append(w) or breached(w))
        failing = evaluate_validity(case, 0.0, repo)
        assert failing == expected
        assert failing == (frozenset() if (inflow_temp, true_count) == (1.0, 0) else {"G1", "C1"})
        assert asked == [window]  # one predicate call, whatever the bound gave

    def test_static_context_is_always_supported(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["C1"]),
            "C1": CaseNode("C1", "context", constraint=COLD_FAST),
        }
        case = SafetyCase(nodes=nodes, root="G1")
        assert evaluate_validity(case, 0.0, _repo_with_sample(case, 30.0)) == frozenset()

    def test_unknown_predicate_is_structural(self):
        nodes = {
            "G1": CaseNode("G1", "goal", children=["A1"]),
            "A1": CaseNode("A1", "assumption", lifecycle="dynamic", predicate="ouija"),
        }
        with pytest.raises(StructuralError, match="ouija"):
            SafetyCase(nodes=nodes, root="G1")

    def test_goal_with_no_children_is_vacuously_supported(self):
        case = SafetyCase(nodes={"G1": CaseNode("G1", "goal")}, root="G1")
        assert evaluate_validity(case, 0.0) == frozenset()


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
            adapt_case(corpus_files.case("type3"), [patch])

    def test_static_target_rejected_and_nothing_applied(self):
        case = _dynamic_case()
        before = copy.deepcopy(case)
        with pytest.raises(StaticNodeError, match="Sn2"):
            adapt_case(case, [
                AttachEvidence("Sn1", _fresh_pass("ok")),
                AttachEvidence("Sn2", _fresh_pass("bad")),
            ])
        assert case == before

    def test_revision_log_counts_successful_calls(self):
        case = _dynamic_case()
        for k in range(5):
            case = adapt_case(case, [AttachEvidence("Sn1", _fresh_pass(f"e{k}"))])
        assert case.revision == 5
        assert len(case.snapshots) == 5

    def test_pass_fresh_evidence_never_invalidates(self):
        case = _dynamic_case()
        repo = _repo_with_sample(case, inflow_temp=10.0)
        assert evaluate_validity(case, 1.0, repo) == frozenset()
        new = adapt_case(case, [AttachEvidence("Sn1", _fresh_pass("extra", produced=1.0))])
        repo.safety_case = new
        assert evaluate_validity(new, 1.0, repo) == frozenset()

    def test_evidence_monotone_in_verdicts(self):
        failing = EvidenceItem(id="ev1", kind="runtime-observation", verdict="fail",
                               produced_at=0.0, freshness=1e9)
        case = _dynamic_case()
        failed = SafetyCase(nodes=case.nodes, root=case.root,
                            evidence={**case.evidence, "ev1": failing})
        before = evaluate_validity(failed, 1.0)
        assert before == {"G1", "G2", "Sn1"}
        assert evaluate_validity(case, 1.0) <= before


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
        path.write_text(json.dumps(corpus_files.write(case)))
        assert load_case(path) == case

    def test_adapted_case_round_trips(self):
        case = _dynamic_case()
        for now, cause in ((5.0, "first"), (7, "second")):
            case = adapt_case(case, [AttachEvidence("Sn1", _fresh_pass(f"ev-{cause}"))],
                              now=now, cause=cause)
        loaded = SafetyCase.from_dict(json.loads(json.dumps(corpus_files.write(case))))
        assert loaded == case
        assert loaded.snapshots == [(1, 5.0, "first"), (2, 7.0, "second")]


# --- compiled validity against the support_map reference ---------------------

#: The obligations the random cases carry, split by the lifecycle that may carry them.
_OBLIGATIONS = obligations_for("TII")
_TAGS = {
    "dynamic": [o for o in _OBLIGATIONS if o in DYNAMIC_OBLIGATIONS],
    "static": [o for o in _OBLIGATIONS if o not in DYNAMIC_OBLIGATIONS],
}


def _reference_obligations(case, now, knowledge):
    """`check_obligations("TII", ...)` with the oracle's support."""
    support = support_map(case, now, knowledge)
    result = {}
    for obligation in _OBLIGATIONS:
        carriers = [nid for nid, node in case.nodes.items() if obligation in node.discharges]
        if not carriers:
            result[obligation] = "missing"
        elif any(support[nid] for nid in carriers):
            result[obligation] = "discharged"
        else:
            result[obligation] = "unsupported-node"
    return result


@st.composite
def _random_cases(draw):
    """Goals and strategies nested up to three levels, with solutions,
    static and dynamic contexts and assumptions, and contexts with children.
    Every node may discharge obligations of its lifecycle."""
    nodes, evidence = {}, {}
    lifecycles = st.sampled_from(["static", "dynamic"])

    def node(node_id, kind, life=None, **fields):
        life = life or draw(lifecycles)
        tags = draw(st.sets(st.sampled_from(_TAGS[life]), max_size=2))
        return CaseNode(node_id, kind, lifecycle=life, discharges=tags, **fields)

    def item(runtime, verdict):
        eid = f"ev{len(evidence)}"
        evidence[eid] = EvidenceItem(
            id=eid,
            kind="runtime-observation" if runtime else "design-analysis",
            verdict=verdict,
            produced_at=draw(st.integers(0, 400)) / 8.0,
            freshness=draw(st.integers(8, 800)) / 8.0 if runtime else None,
        )
        return eid

    def solution():
        sid = f"Sn{len(nodes)}"
        nodes[sid] = None  # reserve the id before drawing evidence
        if draw(st.booleans()):
            verdicts = st.sampled_from(["pass", "pass", "fail"])
            ev_ids = [item(draw(st.booleans()), draw(verdicts))
                      for _ in range(draw(st.integers(0, 2)))]
        else:
            # All-pass runtime items, each with its own produced_at and freshness.
            ev_ids = [item(True, "pass") for _ in range(draw(st.integers(2, 3)))]
        nodes[sid] = node(sid, "solution", evidence=ev_ids)
        return sid

    def context(depth):
        cid = f"C{len(nodes)}"
        nodes[cid] = None
        kind = draw(st.sampled_from(["context", "assumption"]))
        life = draw(lifecycles)
        constraint = (
            draw(st.sampled_from([None, COLD_FAST, PERMISSIVE])) if kind == "context" else None
        )
        predicate = (
            draw(st.sampled_from([None, "spi-under-threshold"])) if life == "dynamic" else None
        )
        children = [goal(depth + 1)] if depth < 3 and draw(st.booleans()) else []
        nodes[cid] = node(cid, kind, life, children=children,
                          constraint=constraint, predicate=predicate)
        return cid

    def goal(depth):
        gid = f"G{len(nodes)}"
        nodes[gid] = None
        makers = [solution, lambda: context(depth)]
        if depth < 3:
            makers.append(lambda: goal(depth + 1))
        children = [draw(st.sampled_from(makers))() for _ in range(draw(st.integers(0, 3)))]
        kind = draw(st.sampled_from(["goal", "strategy"]))
        nodes[gid] = node(gid, kind, children=children)
        return gid

    root = goal(1)
    return SafetyCase(nodes=nodes, root=root, evidence=evidence)


def _revision_patches(case):
    fresh = EvidenceItem(id="ev-new", kind="runtime-assessment", verdict="pass",
                         produced_at=60.0, freshness=30.0)
    for node in case.nodes.values():
        if node.lifecycle != "dynamic":
            continue
        if node.kind == "solution":
            yield AttachEvidence(node.id, fresh)
        elif node.constraint is not None:
            yield ReplaceConstraintContext(node.id, COLD_FAST)


def _freshness_edges(cases):
    """Each runtime item's last fresh time, and the next float after it."""
    for case in cases:
        for ev in case.evidence.values():
            if ev.freshness is not None:
                edge = ev.produced_at + ev.freshness
                yield from (edge, math.nextafter(edge, math.inf))


@settings(max_examples=200)
@given(
    case=_random_cases(),
    times=st.lists(st.integers(0, 2400), min_size=1, max_size=12, unique=True),
    inflow_temps=st.lists(st.sampled_from([-20.0, 0.0, 1.0, 5.0, 30.0, 50.0]), min_size=1),
    breached=st.lists(st.booleans(), min_size=1),
    unsampled=st.integers(0, 3),
)
def test_compiled_validity_matches_support_map(case, times, inflow_temps, breached, unsampled):
    window = SpiWindow(window=10.0, threshold=1.0, tick=1.0)
    repo = KnowledgeRepository(
        current_config=SystemConfiguration("pid", {}), safety_case=case,
        sample_history=deque(maxlen=10), spi_windows=[window],
    )
    revised = adapt_case(case, list(_revision_patches(case)), now=60.0)
    # Eighths of a second, plus each item's freshness edge and one ulp past it.
    nows = sorted({k / 8.0 for k in times} | set(_freshness_edges([case, revised])))
    for step, now in enumerate(nows):
        # The first `unsampled` steps see an empty sample history.
        if step >= unsampled:
            repo.sample_history.append(EnvironmentSample(
                now, inflow_temps[step % len(inflow_temps)], 0.5, 40.0, 40.0))
        window.true_count = 5 if breached[step % len(breached)] else 0
        # The revision is first evaluated part way through, as a run would.
        cases = [case, revised] if step >= len(nows) // 2 else [case]
        for current in cases:
            for knowledge in (repo, None):
                assert evaluate_validity(current, now, knowledge) == unsupported(
                    current, now, knowledge
                )
                assert check_obligations("TII", current, now, knowledge) == (
                    _reference_obligations(current, now, knowledge)
                )


# One item, fresh by sums and stale by the run's own test from tick 3 of 0.1 s on.
_EXPIRING = _single_goal_case(_fresh_pass(produced=0.1, freshness=0.2))


@settings(max_examples=100)
@given(
    case=_random_cases(),
    tick=st.sampled_from([0.1, 0.3, 0.7, 1.1]),
    ticks=st.integers(1, 600),
    revise_at=st.integers(0, 600),
    inflow_temps=st.lists(st.sampled_from([-20.0, 0.0, 1.0, 5.0, 30.0, 50.0]), min_size=1),
)
@example(case=_EXPIRING, tick=0.1, ticks=6, revise_at=6, inflow_temps=[0.0])
def test_watched_root_validity_matches_evaluate_validity(case, tick, ticks, revise_at,
                                                         inflow_temps):
    # The run's rule (see harness.run_scenario): evaluate the case when it changes and at the
    # watch's expiry tick; between those, the root's validity is the one evaluated where no
    # bound is watched, and otherwise whether every watched bound holds on the newest sample.
    # The SPI window never breaches, as at every point where a run reads validity.
    repo = KnowledgeRepository(
        current_config=SystemConfiguration("pid", {}), safety_case=case,
        sample_history=deque(maxlen=1), spi_windows=[SpiWindow(window=10.0, threshold=1.0, tick=1.0)],
    )
    revised = adapt_case(case, list(_revision_patches(case)), now=revise_at * tick)
    watched = None
    for k in range(ticks):
        t = k * tick
        sample = EnvironmentSample(t, inflow_temps[k % len(inflow_temps)], 0.5, 40.0, 40.0)
        repo.sample_history.append(sample)
        current = revised if k >= revise_at else case
        expected = current.root not in evaluate_validity(current, t, repo)
        if current is not watched or k == stale_at:
            watched, valid = current, expected
            bounds, stale_at = watch_root(current, k, tick, ticks)
            assert k < stale_at <= ticks
            # The expiry tick is the first stale one, never earlier.
            assert stale_at == ticks or current.root in evaluate_validity(
                current, stale_at * tick)
        elif bounds:
            valid = all(low <= sample[index] <= high for index, low, high in bounds)
        assert valid == expected
