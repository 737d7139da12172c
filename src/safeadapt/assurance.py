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

Validity is compiled once per case revision (see `evaluate_validity`), so
a `SafetyCase` must not be mutated after construction.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Union

from . import spi
from .model import (
    EnvironmentSample, OperationalDomain, UNBOUNDED_DOMAIN, ValidationError, json_ids, json_number,
    json_value, read_json,
)

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
        if not (math.isfinite(self.produced_at) and math.isfinite(self.freshness or 0.0)):
            raise ValidationError(f"evidence {self.id!r} times must be finite")
        if self.kind.startswith("runtime-") and self.freshness is None:
            raise ValidationError(
                f"runtime evidence {self.id!r} must declare finite freshness"
            )
        if self.kind.startswith("design-") and self.freshness is not None:
            raise ValidationError(
                f"design evidence {self.id!r} must have unlimited freshness"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvidenceItem":
        data = json_value(data, dict, "an evidence item")
        freshness = data.get("freshness")
        return cls(
            id=json_value(data.get("id"), str, "evidence 'id'"),
            kind=json_value(data.get("kind"), str, "evidence 'kind'"),
            verdict=json_value(data.get("verdict"), str, "evidence 'verdict'"),
            produced_at=json_number(data.get("produced_at", 0.0), "evidence 'produced_at'"),
            freshness=None if freshness is None else json_number(freshness, "evidence 'freshness'"),
            payload_ref=json_value(data.get("payload_ref", ""), str, "evidence 'payload_ref'"),
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

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CaseNode":
        data = json_value(data, dict, "a case node")
        constraint, predicate = data.get("constraint"), data.get("predicate")
        return cls(
            id=json_value(data.get("id"), str, "node 'id'"),
            kind=json_value(data.get("kind"), str, "node 'kind'"),
            text=json_value(data.get("text", ""), str, "node 'text'"),
            lifecycle=json_value(data.get("lifecycle", "static"), str, "node 'lifecycle'"),
            children=json_ids(data.get("children", []), "node 'children'"),
            discharges=set(json_ids(data.get("discharges", []), "node 'discharges'")),
            constraint=None if constraint is None else OperationalDomain.from_dict(constraint),
            predicate=None if predicate is None else json_value(predicate, str, "node 'predicate'"),
            evidence=json_ids(data.get("evidence", []), "node 'evidence'"),
        )


@dataclass
class SafetyCase:
    nodes: dict[str, CaseNode]
    root: str
    evidence: dict[str, EvidenceItem] = field(default_factory=dict)
    revision: int = 0
    snapshots: list[tuple[int, float, str]] = field(default_factory=list)
    _plan: Optional[_ValidityPlan] = field(default=None, init=False, repr=False, compare=False)

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

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SafetyCase":
        data = json_value(data, dict, "a safety case")
        nodes = json_value(data.get("nodes"), dict, "case 'nodes'")
        evidence = json_value(data.get("evidence", {}), dict, "case 'evidence'")
        return cls(
            nodes={nid: CaseNode.from_dict(nd) for nid, nd in nodes.items()},
            root=json_value(data.get("root"), str, "case 'root'"),
            evidence={eid: EvidenceItem.from_dict(ed) for eid, ed in evidence.items()},
            revision=json_value(data.get("revision", 0), int, "case 'revision'"),
            snapshots=[_snapshot(s) for s in
                       json_value(data.get("snapshots", []), list, "case 'snapshots'")],
        )


def _snapshot(entry: Any) -> tuple[int, float, str]:
    """A case 'snapshots' entry, ``[revision, time, cause]`` as ``adapt_case`` writes it."""
    if type(entry) is list and len(entry) == 3 and math.isfinite(json_number(entry[1], "time")):
        return (json_value(entry[0], int, "a revision"), float(entry[1]),
                json_value(entry[2], str, "a cause"))
    raise ValidationError(f"case 'snapshots' holds [revision, time, cause], got {entry!r:.40}")


def load_case(path: Union[str, Path]) -> SafetyCase:
    return SafetyCase.from_dict(read_json(path))


# --- run-time predicates ----------------------------------------------------

PredicateFn = Callable[["KnowledgeRepository", float], bool]


def _predicate_spi_under_threshold(knowledge: "KnowledgeRepository", now: float) -> bool:
    # Looked up in `spi` on each call, so perfbench's layer tracer sees it.
    return not any(map(spi.spi_breached, knowledge.spi_windows))


#: Every predicate holds wherever a run reads the case's validity, so a run asks none per tick
#: (see `watch_root`). ``spi-under-threshold`` holds after each tick's SPI step: `spi_update`
#: returns the breach, a breach runs `mapek.fail_safe`, `fail_safe` resets every window, and
#: `execute_adaptation` only resets windows. A breach therefore shows in the run's
#: ``spi_breaches`` and decisions, never in its ``case_valid``. A new predicate must hold the
#: same way, or the run must ask it.
PREDICATES: dict[str, PredicateFn] = {
    "spi-under-threshold": _predicate_spi_under_threshold,
}


# --- validity ---------------------------------------------------------------

@dataclass(frozen=True)
class _ValidityPlan:
    """The nodes failing at every time, and a term per runtime item, dynamic constraint bound
    and dynamic predicate, with its closure: the node and its goal/strategy ancestors."""

    const_failing: frozenset[str]
    freshness: tuple[tuple[float, float, frozenset[str]], ...]
    bounds: tuple[tuple[int, float, float, frozenset[str]], ...]
    predicates: tuple[tuple[PredicateFn, frozenset[str]], ...]


def _compile_validity(case: SafetyCase) -> _ValidityPlan:
    const_failing: set[str] = set()
    freshness: list[tuple] = []
    bounds: list[tuple] = []
    predicates: list[tuple] = []

    def visit(node_id: str, above: tuple[str, ...]) -> None:
        node = case.nodes[node_id]
        closure = (*above, node_id)
        for child in node.children:
            # A context's support ignores its children, so their failures stop there.
            visit(child, closure if node.kind in ("goal", "strategy") else ())
        if node.kind == "solution":
            items = [case.evidence[eid] for eid in node.evidence]
            if not items or any(ev.verdict != "pass" for ev in items):
                const_failing.update(closure)
            else:
                freshness.extend((ev.produced_at, ev.freshness, frozenset(closure))
                                 for ev in items if ev.freshness is not None)
        elif node.kind in ("context", "assumption") and node.lifecycle == "dynamic":
            if node.constraint is not None:
                bounds.extend((EnvironmentSample._fields.index(name), low, high, frozenset(closure))
                              for name, (low, high) in node.constraint.bounds.items())
            if node.predicate is not None:
                predicates.append((PREDICATES[node.predicate], frozenset(closure)))

    visit(case.root, ())
    return _ValidityPlan(frozenset(const_failing), *map(tuple, (freshness, bounds, predicates)))


def _plan(case: SafetyCase) -> _ValidityPlan:
    """The case's validity plan, compiled on first use and stored on the case."""
    plan = case._plan
    if plan is None:
        plan = case._plan = _compile_validity(case)
    return plan


def evaluate_validity(
    case: SafetyCase, now: float, knowledge: Optional["KnowledgeRepository"] = None
) -> frozenset[str]:
    """The ids of the nodes unsupported at ``now``; the case is valid iff its root is not one.

    A solution is supported iff it has evidence and every item passes and is fresh; a
    static context or assumption always is; a dynamic one iff the newest sample lies in its
    constraint (unchecked without knowledge or samples) and its predicate holds (false
    without knowledge); a goal or strategy iff all its children are. The plan is compiled
    on the case's first call and stored on the case."""
    plan = _plan(case)
    failing = plan.const_failing
    for produced_at, freshness, closure in plan.freshness:
        if not now - produced_at <= freshness:  # fresh until produced_at + freshness, inclusive
            failing = failing | closure
    if knowledge is None:  # every predicate fails unasked
        return failing.union(*(closure for _, closure in plan.predicates))
    if knowledge.sample_history:
        sample = knowledge.sample_history[-1]
        for index, low, high, closure in plan.bounds:
            if not low <= sample[index] <= high:
                failing = failing | closure
    for predicate, closure in plan.predicates:
        if not predicate(knowledge, now):
            failing = failing | closure
    return failing


def watch_root(
    case: SafetyCase, k: int, tick: float, ticks: int
) -> tuple[tuple[tuple[int, float, float], ...], int]:
    """What can change the root's validity in a run from tick ``k`` (time ``k * tick``) on,
    while ``case`` holds: the ``(sample field index, low, high)`` bounds it rests on, to be
    read against each tick's newest sample, and the first tick at which a runtime evidence
    item it rests on is stale (``ticks`` if none is before the run ends). Between those two,
    the root's validity is that of tick ``k`` where there are no bounds, and otherwise
    whether every bound holds. A root failing at every time from ``k`` on has neither.

    Predicates are left out: each holds wherever a run reads validity (see `PREDICATES`).
    The expiry tick is found by `evaluate_validity`'s own test on the run's own times,
    ``not k * tick - produced_at <= freshness``, which goes true once and stays true."""
    plan, root = _plan(case), case.root
    stale_at = ticks
    if root not in plan.const_failing:
        for produced_at, freshness, closure in plan.freshness:
            if root in closure:
                # The item's first stale tick before stale_at, or stale_at if it has none.
                stale_at = k + bisect_left(range(k, stale_at), True, key=lambda j: (
                    not j * tick - produced_at <= freshness))
        if stale_at > k:
            return tuple(b[:3] for b in plan.bounds if root in b[3]), stale_at
    return (), ticks


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

