"""Every loader reads raw JSON through the readers in `safeadapt.model`.

A document with one value replaced or one key deleted either loads or is
refused with ValidationError/StructuralError (always refused when the new
value has another JSON type), and the CLI turns it into an exit code, never
a traceback.
"""
import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from safeadapt.assurance import EvidenceItem, SafetyCase, StructuralError
from safeadapt.cli import main
from safeadapt.harness import SystemDescription
from safeadapt.mapek import AdaptationGoal, AdmissionPolicy
from safeadapt.model import (
    AdaptationOption,
    ParameterConstraint,
    ValidationError,
    json_ids,
    json_number,
    json_numbers,
    json_value,
)
from safeadapt.scenario import Scenario

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
NAMES = ("type0", "type1", "type2", "type3")


def _document(name, part):
    document = json.loads((CORPUS_DIR / f"{name}_{part}.json").read_text())
    if part == "system":  # self-contained, so the case is mutated too
        document.pop("safety_case_path")
        document["safety_case"] = _document(name, "case")
    return document


DOCUMENTS = [(name, part, _document(name, part))
             for name in NAMES for part in ("system", "case", "scenario")]

#: What one mutation puts in place of a value; ``DELETE`` removes its key.
DELETE = object()
REPLACEMENTS = ("x", True, None, math.nan, math.inf, -1, 10 ** 400, [], {})


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


#: Each place in a document's layout (list indices and node and evidence ids folded
#: into "*") -> its (document index, path)s, so that every field is drawn about as
#: often as any other.
SITES: dict = {}
for _index, (_, _part, _doc) in enumerate(DOCUMENTS):
    for _path in _paths(_doc):
        _site = tuple("*" if type(step) is int or before in ("nodes", "evidence") else step
                      for before, step in zip((None,) + _path, _path))
        SITES.setdefault((_part, _site), []).append((_index, _path))


def _retyped(old, new):
    """True if ``new`` has another JSON type than ``old``; an integer is also a number."""
    return None not in (old, new) and type(new) is not type(old) and not (
        type(old) is float and type(new) is int)


@st.composite
def mutated_documents(draw):
    site = draw(st.sampled_from(sorted(SITES, key=repr)))
    index, path = draw(st.sampled_from(SITES[site]))
    parent = DOCUMENTS[index][2]
    for step in path[:-1]:
        parent = parent[step]
    deletable = bool(path) and isinstance(parent, dict)
    value = draw(st.sampled_from(REPLACEMENTS + ((DELETE,) if deletable else ())))
    return _mutated(index, path, value)


def _mutated(index, path, value):
    """DOCUMENTS[index] with the value at ``path`` replaced by ``value`` (or deleted)."""
    name, part, document = DOCUMENTS[index]
    document = copy.deepcopy(document)
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]] if path else document
    if not path:
        document = value
    elif value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return name, part, document, value is not DELETE and _retyped(old, value)


LOADERS = {"system": SystemDescription.from_dict, "case": SafetyCase.from_dict,
           "scenario": Scenario.from_dict}


def _at(name, part, *path):
    return DOCUMENTS.index(next(d for d in DOCUMENTS if d[:2] == (name, part))), path


_SYSTEM_MODEL = ("adaptation_models", 0, "descriptor")


# Pinned: mutations that keep every JSON type but break a model's descriptor (the first
# two) or put a dynamic obligation on a node that defaults to static (the last two).
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(mutated=mutated_documents())
@example(mutated=_mutated(*_at("type1", "system", *_SYSTEM_MODEL, "design_time_safety"), DELETE))
@example(mutated=_mutated(*_at("type3", "system", *_SYSTEM_MODEL,
                               "options_enumerated_at_design_time"), True))
@example(mutated=_mutated(*_at("type2", "system", "safety_case", "nodes", "Sn-B4", "lifecycle"),
                          DELETE))
@example(mutated=_mutated(*_at("type2", "case", "nodes", "Sn-B4", "lifecycle"), DELETE))
def test_one_mutation_loads_or_is_refused(tmp_path_factory, mutated):
    name, part, document, retyped = mutated
    try:
        LOADERS[part](document)
        assert not retyped, "a value of another JSON type loaded"
    except (ValidationError, StructuralError):
        pass
    if part == "scenario":
        return
    path = tmp_path_factory.getbasetemp() / f"mutated_{part}.json"
    path.write_text(json.dumps(document))
    if part == "system":
        argv = ["classify", "--system", str(path)]
    else:
        argv = ["check-case", "--system", str(CORPUS_DIR / f"{name}_system.json"),
                "--case", str(path)]
    assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("name, part", [(n, p) for n, p, _ in DOCUMENTS])
def test_round_trip(name, part):
    loaded = LOADERS[part](_document(name, part))
    assert type(loaded).from_dict(json.loads(json.dumps(loaded.to_dict()))) == loaded


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{\"a\": "], ids=["not-utf8", "not-json"])
@pytest.mark.parametrize("part", ["system", "case", "scenario", "candidate"])
def test_unreadable_file_exits_2_and_names_it(tmp_path, capsys, part, content):
    path = tmp_path / f"{part}.json"
    path.write_bytes(content)
    system = str(CORPUS_DIR / "type3_system.json")
    argv = {
        "system": ["classify", "--system", str(path)],
        "case": ["check-case", "--system", system, "--case", str(path)],
        "scenario": ["simulate", "--scenario", str(path), "--system", system,
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")],
        "candidate": ["assess", "--system", system, "--candidate", str(path)],
    }[part]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("value, kind", [
    (True, int), (1, bool), (1.0, int), ("1", int), (None, str), ([], dict), ({}, list),
])
def test_json_value_matches_the_exact_type(value, kind):
    with pytest.raises(ValidationError, match="'x' must be"):
        json_value(value, kind, "'x'")


@pytest.mark.parametrize("reader, value", [
    (json_number, True), (json_number, "1"), (json_number, 10 ** 400), (json_number, None),
    (json_ids, ["a", 1]), (json_ids, "ab"), (json_numbers, {"a": False}), (json_numbers, [1]),
])
def test_readers_refuse_the_wrong_shape(reader, value):
    with pytest.raises(ValidationError):
        reader(value, "x")


def test_readers_convert_and_copy():
    ids = ["a", "b"]
    assert json_ids(ids, "x") == ids and json_ids(ids, "x") is not ids
    assert json_numbers({"a": 1, "b": -2.5}, "x") == {"a": 1.0, "b": -2.5}
    assert type(json_number(3, "x")) is float


@pytest.mark.parametrize("build", [
    lambda: AdaptationGoal(rise_time_limit=math.nan),
    lambda: AdaptationGoal(settle_band=math.inf),
    lambda: AdmissionPolicy(confidence_z=math.nan),
    lambda: ParameterConstraint("interval", "kp", low=math.nan),
    lambda: ParameterConstraint("interval", "kp", high=math.inf),
    lambda: ParameterConstraint("conditional", "kp", low=1.0, condition=("ki", math.nan)),
    lambda: AdaptationOption("o", "m", {"kp": 1.0}, design_rise_time=math.nan),
    lambda: EvidenceItem("e", "runtime-observation", "pass", freshness=math.inf),
    lambda: EvidenceItem("e", "design-analysis", "pass", produced_at=math.nan),
], ids=["goal-rise-nan", "goal-band-inf", "confidence-nan", "constraint-low-nan",
        "constraint-high-inf", "condition-nan", "rise-time-nan", "freshness-inf",
        "produced-at-nan"])
def test_limits_must_be_finite(build):
    with pytest.raises(ValidationError):
        build()
