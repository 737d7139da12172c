"""Explicit safety case engine.

A GSN-subset tree of goals, strategies, solutions, contexts, and
assumptions. Nodes are static (design-time, immutable) or dynamic
(run-time mutable); solutions carry evidence with freshness windows,
context nodes may carry operational-domain constraints, and dynamic
nodes may bind named run-time predicates evaluated against the
knowledge repository.

A case is checked once, when it is built or loaded: every construction,
including each revision `adapt_case` returns, runs `SafetyCase.validate`.
A malformed case or an unknown predicate name raises StructuralError
there (the CLI exits 2), never part way through a run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Union

from .model import OperationalDomain, UNBOUNDED_DOMAIN, ValidationError

if TYPE_CHECKING:
    from .model import KnowledgeRepository

NODE_KINDS = ("goal", "strategy", "solution", "context", "assumption")
LIFECYCLES = ("static", "dynamic")
EVIDENCE_KINDS = (
    "design-analysis", "design-simulation", "runtime-observation", "runtime-assessment",
)

#: Default freshness window for runtime evidence, s.
DEFAULT_RUNTIME_FRESHNESS = 3600.0


class StructuralError(ValueError):
    """The case graph is malformed (dangling ids, multiple roots, ...)."""


class StaticNodeError(ValueError):
    """A patch targeted a static (immutable) node."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        super().__init__(f"node {node_id!r} is static and cannot be patched")


@dataclass(frozen=True)
class EvidenceItem:
    id: str
    kind: str
    verdict: str  # "pass" | "fail"
    produced_at: float = 0.0  # s
    freshness: Optional[float] = None  # s; None = unlimited
    payload_ref: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVIDENCE_KINDS:
            raise ValidationError(f"unknown evidence kind {self.kind!r}")
        if self.verdict not in ("pass", "fail"):
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if self.kind.startswith("runtime-") and self.freshness is None:
            raise ValidationError(
                f"runtime evidence {self.id!r} must declare finite freshness"
            )
        if self.kind.startswith("design-") and self.freshness is not None:
            raise ValidationError(
                f"design evidence {self.id!r} must have unlimited freshness"
            )

    def fresh_at(self, now: float) -> bool:
        return self.freshness is None or now - self.produced_at <= self.freshness

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "verdict": self.verdict,
            "produced_at": self.produced_at,
            "freshness": self.freshness,
            "payload_ref": self.payload_ref,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvidenceItem":
        freshness = data.get("freshness")
        return cls(
            id=data["id"],
            kind=data["kind"],
            verdict=data["verdict"],
            produced_at=float(data.get("produced_at", 0.0)),
            freshness=None if freshness is None else float(freshness),
            payload_ref=data.get("payload_ref", ""),
        )


@dataclass
class CaseNode:
    id: str
    kind: str
    text: str = ""
    lifecycle: str = "static"
    children: list[str] = field(default_factory=list)
    discharges: set[str] = field(default_factory=set)
    constraint: Optional[OperationalDomain] = None  # context nodes only
    predicate: Optional[str] = None  # dynamic nodes only
    evidence: list[str] = field(default_factory=list)  # solution nodes only

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValidationError(f"unknown node kind {self.kind!r}")
        if self.lifecycle not in LIFECYCLES:
            raise ValidationError(f"unknown lifecycle {self.lifecycle!r}")
        if self.constraint is not None and self.kind != "context":
            raise ValidationError(
                f"only context nodes may carry a constraint ({self.id!r})"
            )
        if self.predicate is not None and self.lifecycle != "dynamic":
            raise ValidationError(
                f"only dynamic nodes may bind a predicate ({self.id!r})"
            )
        if self.evidence and self.kind != "solution":
            raise ValidationError(
                f"only solution nodes may carry evidence ({self.id!r})"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "text": self.text,
            "lifecycle": self.lifecycle,
            "children": list(self.children),
            "discharges": sorted(self.discharges),
        }
        if self.constraint is not None:
            out["constraint"] = self.constraint.to_dict()
        if self.predicate is not None:
            out["predicate"] = self.predicate
        if self.evidence:
            out["evidence"] = list(self.evidence)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseNode":
        constraint = data.get("constraint")
        return cls(
            id=data["id"],
            kind=data["kind"],
            text=data.get("text", ""),
            lifecycle=data.get("lifecycle", "static"),
            children=list(data.get("children", ())),
            discharges=set(data.get("discharges", ())),
            constraint=None if constraint is None else OperationalDomain.from_dict(constraint),
            predicate=data.get("predicate"),
            evidence=list(data.get("evidence", ())),
        )


@dataclass
class SafetyCase:
    nodes: dict[str, CaseNode]
    root: str
    evidence: dict[str, EvidenceItem] = field(default_factory=dict)
    revision: int = 0
    snapshots: list[tuple[int, float, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Structural check of the whole case; the constructor runs it."""
        for ev_id, item in self.evidence.items():
            if ev_id != item.id:
                raise StructuralError(f"evidence stored under {ev_id!r} has id {item.id!r}")
        if self.root not in self.nodes:
            raise StructuralError(f"root {self.root!r} not among nodes")
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                raise StructuralError(f"node {node_id!r} reached twice (not a tree)")
            seen.add(node_id)
            node = self.nodes.get(node_id)
            if node is None:
                raise StructuralError(f"dangling child id {node_id!r}")
            if node.kind == "solution" and node.children:
                raise StructuralError(f"solution {node_id!r} must be a leaf")
            stack.extend(node.children)
        unreachable = set(self.nodes) - seen
        if unreachable:
            raise StructuralError(
                f"nodes unreachable from root: {sorted(unreachable)}"
            )
        for node_id, node in self.nodes.items():
            if node_id != node.id:
                raise StructuralError(f"node stored under {node_id!r} has id {node.id!r}")
            if node.predicate is not None and node.predicate not in PREDICATES:
                raise StructuralError(f"unknown predicate {node.predicate!r}")
            for ev_id in node.evidence:
                if ev_id not in self.evidence:
                    raise StructuralError(
                        f"node {node.id!r} references unknown evidence {ev_id!r}"
                    )

    def node(self, node_id: str) -> CaseNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise StructuralError(f"no node {node_id!r}") from None

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "revision": self.revision,
            "nodes": {nid: node.to_dict() for nid, node in sorted(self.nodes.items())},
            "evidence": {eid: ev.to_dict() for eid, ev in sorted(self.evidence.items())},
            "snapshots": [list(s) for s in self.snapshots],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SafetyCase":
        if not isinstance(data, Mapping):
            raise StructuralError("a safety case must be a JSON object")
        nodes, evidence, root = data.get("nodes"), data.get("evidence", {}), data.get("root")
        if not isinstance(nodes, Mapping) or not isinstance(evidence, Mapping):
            raise StructuralError("case 'nodes' and 'evidence' must be objects keyed by id")
        if not isinstance(root, str):
            raise StructuralError(f"case 'root' must be a node id, got {root!r}")
        return cls(
            nodes={nid: CaseNode.from_dict(nd) for nid, nd in nodes.items()},
            root=root,
            evidence={eid: EvidenceItem.from_dict(ed) for eid, ed in evidence.items()},
            revision=int(data.get("revision", 0)),
            snapshots=[tuple(s) for s in data.get("snapshots", ())],
        )


def load_case(path: Union[str, Path]) -> SafetyCase:
    with open(path, encoding="utf-8") as fh:
        return SafetyCase.from_dict(json.load(fh))


def save_case(case: SafetyCase, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- run-time predicates ----------------------------------------------------

PredicateFn = Callable[["KnowledgeRepository", float], bool]


def _predicate_spi_under_threshold(knowledge: "KnowledgeRepository", now: float) -> bool:
    from .spi import spi_breached

    return all(not spi_breached(w) for w in knowledge.spi_windows)


PREDICATES: dict[str, PredicateFn] = {
    "spi-under-threshold": _predicate_spi_under_threshold,
}


# --- validity ---------------------------------------------------------------

def _node_supported(
    case: SafetyCase,
    node: CaseNode,
    now: float,
    knowledge: Optional["KnowledgeRepository"],
    support: dict[str, bool],
) -> bool:
    if node.kind == "solution":
        if not node.evidence:
            return False
        items = [case.evidence[eid] for eid in node.evidence]
        return all(ev.verdict == "pass" and ev.fresh_at(now) for ev in items)
    if node.kind in ("context", "assumption"):
        if node.lifecycle == "static":
            return True
        if node.constraint is not None and knowledge is not None:
            sample = knowledge.latest_sample()
            if sample is not None and not node.constraint.contains(sample.domain_values()):
                return False
        if node.predicate is not None:
            if knowledge is None or not PREDICATES[node.predicate](knowledge, now):
                return False
        return True
    # goal / strategy: conjunction over children (including attached
    # contexts and assumptions).
    return all(support[child] for child in node.children)


def support_map(
    case: SafetyCase, now: float, knowledge: Optional["KnowledgeRepository"] = None
) -> dict[str, bool]:
    """Per-node support, computed bottom-up over the tree."""
    support: dict[str, bool] = {}

    def visit(node_id: str) -> None:
        node = case.node(node_id)
        for child in node.children:
            visit(child)
        support[node_id] = _node_supported(case, node, now, knowledge, support)

    visit(case.root)
    return support


def evaluate_validity(
    case: SafetyCase, now: float, knowledge: Optional["KnowledgeRepository"] = None
) -> dict[str, Any]:
    """Validity verdict: the case is valid iff its root goal is supported."""
    support = support_map(case, now, knowledge)
    failing = sorted(nid for nid, ok in support.items() if not ok)
    return {"valid": support[case.root], "failing_nodes": failing}


# --- adaptation patches -----------------------------------------------------

@dataclass(frozen=True)
class AttachEvidence:
    target: str
    item: EvidenceItem


@dataclass(frozen=True)
class ReplaceConstraintContext:
    target: str
    domain: OperationalDomain


Patch = Union[AttachEvidence, ReplaceConstraintContext]


def adapt_case(
    case: SafetyCase,
    patches: Iterable[Patch],
    now: float = 0.0,
    cause: str = "adaptation",
) -> SafetyCase:
    """Apply patches to dynamic nodes, returning a new case revision.

    The input case is left untouched. Any patch that targets a static
    node raises StaticNodeError and nothing is applied. Each patched node
    is rebuilt with `dataclasses.replace` and the revision with the
    `SafetyCase` constructor, so both are checked like any new case.
    """
    nodes = dict(case.nodes)
    evidence = dict(case.evidence)
    for patch in patches:
        if case.node(patch.target).lifecycle != "dynamic":
            raise StaticNodeError(patch.target)
        node = nodes[patch.target]
        if isinstance(patch, AttachEvidence):
            evidence[patch.item.id] = patch.item
            if patch.item.id not in node.evidence:
                nodes[node.id] = replace(node, evidence=[*node.evidence, patch.item.id])
        elif isinstance(patch, ReplaceConstraintContext):
            nodes[node.id] = replace(node, constraint=patch.domain)
        else:
            raise ValidationError(f"unknown patch {patch!r}")
    revision = case.revision + 1
    return SafetyCase(
        nodes=nodes, root=case.root, evidence=evidence, revision=revision,
        snapshots=[*case.snapshots, (revision, now, cause)],
    )


def constraint_context(case: SafetyCase) -> Optional[CaseNode]:
    """The single node carrying a constraint, or None when there is none."""
    carriers = [n for n in case.nodes.values() if n.constraint is not None]
    if len(carriers) > 1:
        raise StructuralError(
            f"multiple active constraint contexts: {sorted(n.id for n in carriers)}"
        )
    return carriers[0] if carriers else None


def current_constraints(case: SafetyCase) -> OperationalDomain:
    """The single active constraint context's domain, or the unbounded one."""
    node = constraint_context(case)
    return UNBOUNDED_DOMAIN if node is None else node.constraint


def nodes_discharging(case: SafetyCase, obligation: str) -> list[CaseNode]:
    return [n for n in case.nodes.values() if obligation in n.discharges]


def render_text(case: SafetyCase) -> str:
    """Indented plain-text tree for human review."""
    lines: list[str] = [f"safety case (revision {case.revision})"]

    def visit(node_id: str, depth: int) -> None:
        node = case.node(node_id)
        tags = ""
        if node.discharges:
            tags = " [" + ", ".join(sorted(node.discharges)) + "]"
        lines.append(
            f"{'  ' * depth}{node.kind}:{node.id} ({node.lifecycle}){tags} {node.text}"
        )
        for ev_id in node.evidence:
            ev = case.evidence[ev_id]
            lines.append(f"{'  ' * (depth + 1)}evidence:{ev.id} {ev.kind} {ev.verdict}")
        for child in node.children:
            visit(child, depth + 1)

    visit(case.root, 0)
    return "\n".join(lines) + "\n"
