"""The package holds no API that nothing in it calls.

Every top-level function and class, and every method, of a module in
``src/safeadapt`` must be referenced by name somewhere in ``src/`` outside
its own definition; an import alone is not a reference. A classmethod is
referenced only as ``ClassName.method``, or as ``cls.method`` inside its
own class, so that a name shared by many classes (``from_dict``) hides
none of them. Dunder methods are called by the language and are exempt.
An instance method is matched by its bare name, so each name that more
than one class defines is pinned with its classes: one used method cannot
hide another class's unused one. Every name a module imports at its top
level must be referenced in that module.
"""
import ast
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "safeadapt"

#: Referenced from outside ``src/`` only.
ALLOWED = {
    # Bound by the benchmark's layer tracer, which checks that the tick makes no lookups.
    "scenario.Scenario.setpoint_at",
}

#: Each instance-method name that more than one class defines -> those classes.
SHARED_METHODS = {
    "to_dict": {
        "controller.NetControllerSpec",  # mapek.spec_hash
        "harness.RunReport",  # harness.save_report
        "mapek.AdaptationDecision",  # harness.run_scenario, into the report
        "mapek.AdmissionReport",  # AdaptationDecision.to_dict and plan_type2's evidence
        "taxonomy.TaxonomyVerdict",  # harness.run_scenario and cli._emit_verdicts
    },
}


#: Imported at a module's top level but referenced only from outside ``src/``.
ALLOWED_IMPORTS = {
    # The benchmark's layer tracer wraps this binding; the tick takes the breach from spi_update.
    "harness.spi_breached",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _definitions(modules):
    """(qualified name, name, node, class) of each top-level function and class, and each
    method; ``class`` is the node of a classmethod's class, else None."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node, None
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (method.name.startswith("__") and method.name.endswith("__"))):
                        owner = node if any(isinstance(d, ast.Name) and d.id == "classmethod"
                                            for d in method.decorator_list) else None
                        yield f"{module}.{node.name}.{method.name}", method.name, method, owner


def _references(tree):
    """How often each name is read or assigned as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def _attributes_of(tree, base):
    """How often each attribute is read or assigned on the bare name ``base``."""
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == base
    )


def _classmethod_references(trees, owner, within):
    """References as ``Owner.method`` in ``trees``, plus ``cls.method`` in ``within``."""
    return sum((_attributes_of(tree, owner.name) for tree in trees),
               _attributes_of(within, "cls"))


def test_every_definition_is_referenced_in_src():
    modules = _modules()
    everywhere = sum(map(_references, modules.values()), Counter())
    unreferenced = sorted(
        qualified for qualified, name, node, owner in _definitions(modules)
        if (everywhere[name] == _references(node)[name] if owner is None else
            _classmethod_references(modules.values(), owner, owner)[name]
            == _classmethod_references([node], owner, node)[name])
    )
    assert [q for q in unreferenced if q not in ALLOWED] == []
    assert sorted(ALLOWED - set(unreferenced)) == []  # a stale exemption goes too


def test_shared_method_names_are_pinned():
    classes = defaultdict(set)
    for qualified, name, node, owner in _definitions(_modules()):
        if qualified.count(".") == 2 and owner is None:
            classes[name].add(qualified.rpartition(".")[0])
    # A new shared name fails, and so does a stale pin.
    assert {name: c for name, c in classes.items() if len(c) > 1} == SHARED_METHODS


def test_package_binds_no_names():
    tree = _modules()["__init__"]
    assert all(isinstance(stmt, ast.Expr) for stmt in tree.body)


def _imported_names(tree):
    """Each name a top-level import binds; ``__future__`` imports bind none."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            yield from (alias.asname or alias.name for alias in stmt.names)


def test_every_import_is_referenced_in_its_module():
    unused = sorted(
        f"{module}.{name}" for module, tree in _modules().items()
        for name in set(_imported_names(tree)) - {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    )
    assert [u for u in unused if u not in ALLOWED_IMPORTS] == []
    assert sorted(ALLOWED_IMPORTS - set(unused)) == []  # a stale exemption goes too


#: Built in ``src/`` only in ``mapek``, so that every decision and every piece of runtime
#: evidence is stated in one module. ``EvidenceItem.from_dict`` builds through ``cls``.
BUILT_IN_MAPEK_ONLY = {"AdaptationDecision", "EvidenceItem"}


def test_decisions_and_evidence_are_built_only_in_mapek():
    built = sorted(
        f"{module}.py:{node.lineno}" for module, tree in _modules().items() if module != "mapek"
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in BUILT_IN_MAPEK_ONLY
    )
    assert built == []
