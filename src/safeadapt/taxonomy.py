"""Executable adaptation taxonomy: classification, obligations, discharge checks.

Each adaptation model carries a descriptor of structural facts; the
classifier maps descriptors to Type 0/I/II/III, each type to its safety
case obligation set, and ``check_obligations`` verifies that a safety
case actually discharges those obligations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .model import ValidationError, json_value

if TYPE_CHECKING:
    from .assurance import SafetyCase
    from .model import KnowledgeRepository

TYPES = ("T0", "TI", "TII", "TIII")

DESIGN_TIME_SAFETY = ("none", "unconditional", "domain-conditional")

#: Obligation identifiers per type.
OBLIGATIONS = {
    "T0": ("T0.B1", "T0.B2"),
    "TI": ("TI.B1", "TI.B2", "TI.B3", "TI.B4"),
    "TII": ("TII.B1", "TII.B2", "TII.B3", "TII.B4", "TII.B5"),
    "TIII": (
        "TIII.B1", "TIII.B2", "TIII.B3", "TIII.B4", "TIII.B5",
        "TIII.B6", "TIII.B7",
    ),
}

#: Obligations that must be argued on dynamic safety case nodes; all
#: others must sit on static nodes.
DYNAMIC_OBLIGATIONS = frozenset({"TII.B4", "TII.B5", "TIII.B6", "TIII.B7"})

#: The obligations a node of each lifecycle must not carry; other ids are unconstrained.
_WRONG_ON = {"static": DYNAMIC_OBLIGATIONS,
             "dynamic": frozenset().union(*OBLIGATIONS.values()) - DYNAMIC_OBLIGATIONS}


class ClassificationError(ValidationError):
    """No type's criteria are fully met by a descriptor."""

    def __init__(self, nearest_type: str, unmet_criterion: str):
        self.nearest_type = nearest_type
        self.unmet_criterion = unmet_criterion
        super().__init__(
            f"no type matched; nearest {nearest_type}, first unmet {unmet_criterion}"
        )


class LifecycleMismatchError(ValidationError):
    """An obligation is carried by a node of the wrong lifecycle."""

    def __init__(self, obligation: str, node_id: str, lifecycle: str):
        self.obligation = obligation
        self.node_id = node_id
        super().__init__(
            f"obligation {obligation} requires a "
            f"{'dynamic' if obligation in DYNAMIC_OBLIGATIONS else 'static'} node "
            f"but {node_id!r} is {lifecycle}"
        )


#: The descriptor's optional flags, all false by default.
_FLAGS = ("independence_argued", "options_enumerated_at_design_time",
          "domain_constraints_declared", "runtime_assessment_declared", "case_in_knowledge_repo")


@dataclass(frozen=True)
class AdaptationDescriptor:
    """Structural facts about one adaptation model used for classification."""

    affects_safety_critical: bool
    independence_argued: bool = False
    options_enumerated_at_design_time: bool = False
    design_time_safety: str = "none"
    domain_constraints_declared: bool = False
    runtime_assessment_declared: bool = False
    case_in_knowledge_repo: bool = False

    def __post_init__(self) -> None:
        if self.design_time_safety not in DESIGN_TIME_SAFETY:
            raise ValidationError(
                f"unknown design-time safety level {self.design_time_safety!r}"
            )
        if self.design_time_safety != "none" and not self.options_enumerated_at_design_time:
            raise ValidationError(
                "design-time safety requires options enumerated at design time"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdaptationDescriptor":
        data = json_value(data, dict, "descriptor")
        critical = json_value(data.get("affects_safety_critical"), bool, "affects_safety_critical")
        safety = json_value(data.get("design_time_safety", "none"), str, "design_time_safety")
        return cls(affects_safety_critical=critical, design_time_safety=safety,
                   **{k: json_value(data.get(k, False), bool, k) for k in _FLAGS})


@dataclass
class TaxonomyVerdict:
    """Classification result plus per-obligation discharge status."""

    model_id: str
    type: str
    matched_criteria: list[str]
    required_obligations: list[str]
    discharge: dict[str, str]

    def to_dict(self) -> dict[str, Any]:
        return {
            "model_id": self.model_id,
            "type": self.type,
            "matched_criteria": list(self.matched_criteria),
            "required_obligations": list(self.required_obligations),
            "discharge": dict(self.discharge),
        }


def all_discharged(verdicts: Iterable[Mapping[str, Any]]) -> bool:
    """True iff every obligation of every verdict (as `TaxonomyVerdict.to_dict`) is discharged."""
    return all(status == "discharged" for v in verdicts for status in v["discharge"].values())


#: Structural criteria per type, in criterion order: (criterion id, predicate on a
#: descriptor). Behavioral criteria (e.g. run-time monotonicity of Type II domain
#: constraints) cannot be decided from a descriptor; they are enforced by the planner
#: and reported by the run harness.
_CRITERIA: dict[str, tuple[tuple[str, Callable[[AdaptationDescriptor], bool]], ...]] = {
    "T0": (("T0.C1", lambda d: not d.affects_safety_critical),),
    "TI": (
        ("TI.C1", lambda d: d.affects_safety_critical),
        ("TI.C2", lambda d: d.options_enumerated_at_design_time),
        ("TI.C3", lambda d: d.design_time_safety == "unconditional"),
    ),
    "TII": (
        ("TII.C1", lambda d: d.affects_safety_critical),
        ("TII.C2", lambda d: d.options_enumerated_at_design_time),
        ("TII.C3", lambda d: d.design_time_safety == "domain-conditional"),
        ("TII.C4", lambda d: d.domain_constraints_declared),
    ),
    "TIII": (
        ("TIII.C1", lambda d: d.affects_safety_critical),
        ("TIII.C2", lambda d: not d.options_enumerated_at_design_time),
        ("TIII.C3", lambda d: d.runtime_assessment_declared),
        ("TIII.C4", lambda d: d.case_in_knowledge_repo),
    ),
}


def classify(descriptor: AdaptationDescriptor) -> str:
    """Classify a descriptor into exactly one type.

    Raises ClassificationError, carrying the nearest type and its first
    unmet criterion, when no type's criteria are all satisfied.
    """
    best_type = ""
    best_matched = -1
    best_unmet = ""
    for type_id in TYPES:
        checks = _CRITERIA[type_id]
        unmet = [cid for cid, holds in checks if not holds(descriptor)]
        if not unmet:
            return type_id
        matched = len(checks) - len(unmet)
        if matched > best_matched:
            best_matched = matched
            best_type = type_id
            best_unmet = unmet[0]
    raise ClassificationError(best_type, best_unmet)


def matched_criteria(descriptor: AdaptationDescriptor, type_id: str) -> list[str]:
    return [cid for cid, holds in _CRITERIA[type_id] if holds(descriptor)]


def obligations_for(type_id: str) -> list[str]:
    """The exact obligation set imposed on the safety case for a type."""
    if type_id not in OBLIGATIONS:
        raise ValidationError(f"unknown type {type_id!r}")
    return list(OBLIGATIONS[type_id])


def check_lifecycles(case: "SafetyCase") -> None:
    """Raise `LifecycleMismatchError` at the first node, in case order, that carries a
    type's obligation on the wrong lifecycle, whichever type the obligation belongs to."""
    for node in case.nodes.values():
        mismatched = node.discharges & _WRONG_ON[node.lifecycle]
        if mismatched:
            raise LifecycleMismatchError(min(mismatched), node.id, node.lifecycle)


def check_obligations(
    verdict_type: str,
    case: "SafetyCase",
    now: float,
    knowledge: "KnowledgeRepository" = None,
) -> dict[str, str]:
    """Map each obligation of a type to its discharge status.

    An obligation is ``discharged`` when at least one supported node of
    the correct lifecycle carries it, ``missing`` when no node carries
    it, and ``unsupported-node`` when only unsupported nodes carry it.
    Any node of the case that carries a type's obligation on the wrong
    lifecycle raises `LifecycleMismatchError` (`check_lifecycles`).
    """
    from .assurance import evaluate_validity, nodes_discharging

    check_lifecycles(case)
    failing = evaluate_validity(case, now, knowledge)
    result: dict[str, str] = {}
    for obligation in obligations_for(verdict_type):
        carriers = nodes_discharging(case, obligation)
        if not carriers:
            result[obligation] = "missing"
        elif any(n.id not in failing for n in carriers):
            result[obligation] = "discharged"
        else:
            result[obligation] = "unsupported-node"
    return result


def verdict_for(
    model,
    case: "SafetyCase",
    now: float,
    knowledge: "KnowledgeRepository" = None,
) -> TaxonomyVerdict:
    """Classify a model and check its obligations in one pass."""
    type_id = classify(model.descriptor)
    return TaxonomyVerdict(
        model_id=model.id,
        type=type_id,
        matched_criteria=matched_criteria(model.descriptor, type_id),
        required_obligations=obligations_for(type_id),
        discharge=check_obligations(type_id, case, now, knowledge),
    )
