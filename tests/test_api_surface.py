"""The package holds no API that nothing in it calls.

Every top-level function and class, and every method, of a module in
``src/safeadapt`` must be referenced by name somewhere in ``src/`` outside
its own definition; an import alone is not a reference. Dunder methods
are called by the language and are exempt.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "safeadapt"

#: Referenced from outside ``src/`` only.
ALLOWED = {
    # Bound by the benchmark's layer tracer, which checks that the tick makes no lookups.
    "scenario.Trace.value_at",
    "scenario.Scenario.setpoint_at",
    # The README's command for regenerating ``corpus/``.
    "corpus.write_corpus",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _definitions(modules):
    """(qualified name, name, node) of each top-level function and class, and each method."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (method.name.startswith("__") and method.name.endswith("__"))):
                        yield f"{module}.{node.name}.{method.name}", method.name, method


def _references(tree):
    """How often each name is read or assigned as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_referenced_in_src():
    modules = _modules()
    everywhere = sum(map(_references, modules.values()), Counter())
    unreferenced = sorted(
        qualified for qualified, name, node in _definitions(modules)
        if everywhere[name] == _references(node)[name]
    )
    assert [q for q in unreferenced if q not in ALLOWED] == []
    assert sorted(ALLOWED - set(unreferenced)) == []  # a stale exemption goes too


def test_package_binds_no_names():
    tree = _modules()["__init__"]
    assert all(isinstance(stmt, ast.Expr) for stmt in tree.body)
