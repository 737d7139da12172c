"""Reference node support for checking `assurance.evaluate_validity`.

`support_map` walks the whole tree bottom-up and decides each node from
the node's own fields, with none of the compiled plan's shortcuts. The
property in `test_assurance.py` and the per-tick check in `test_harness.py`
compare the program's failing set with the nodes it marks unsupported.
"""
from safeadapt.assurance import PREDICATES


def _node_supported(case, node, now, knowledge, support):
    if node.kind == "solution":
        if not node.evidence:
            return False
        items = [case.evidence[eid] for eid in node.evidence]
        return all(
            ev.verdict == "pass" and (ev.freshness is None or now - ev.produced_at <= ev.freshness)
            for ev in items
        )
    if node.kind in ("context", "assumption"):
        if node.lifecycle == "static":
            return True
        if node.constraint is not None and knowledge is not None and knowledge.sample_history:
            sample = knowledge.sample_history[-1]
            for name, (low, high) in node.constraint.bounds.items():
                if not low <= getattr(sample, name) <= high:
                    return False
        if node.predicate is not None:
            if knowledge is None or not PREDICATES[node.predicate](knowledge, now):
                return False
        return True
    # goal / strategy: conjunction over children (including attached
    # contexts and assumptions).
    return all(support[child] for child in node.children)


def support_map(case, now, knowledge=None):
    """Per-node support, computed bottom-up over the tree."""
    support = {}

    def visit(node_id):
        node = case.node(node_id)
        for child in node.children:
            visit(child)
        support[node_id] = _node_supported(case, node, now, knowledge, support)

    visit(case.root)
    return support


def unsupported(case, now, knowledge=None):
    """The nodes `support_map` marks unsupported, as `evaluate_validity` returns them."""
    return frozenset(nid for nid, ok in support_map(case, now, knowledge).items() if not ok)
