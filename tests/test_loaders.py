"""Every loader reads raw JSON through the readers in `safeadapt.model`.

The documents are the corpus triples and the type3 network as an `assess`
candidate. A document with one value replaced or one key deleted either
loads or is refused with ValidationError/StructuralError (always refused when
the new value has another JSON type), and the CLI turns it into an exit code,
never a traceback. The same holds for `simulate` and `assess` when one number
of a system, scenario or candidate is set to an extreme finite value.
"""
import contextlib
import copy
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from safeadapt.assurance import EvidenceItem, SafetyCase, StructuralError
from safeadapt.cli import main
from safeadapt.controller import NetControllerSpec
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
import corpus_files
from corpus_files import CORPUS_DIR, NAMES

SYSTEM = str(CORPUS_DIR / "type3_system.json")  # the system an `assess` candidate runs in


def _document(name, part):
    if part == "candidate":
        return _document(name, "system")["net_controller"]
    document = corpus_files.document(name, part)
    if part == "system":  # self-contained, so the case is mutated too
        document.pop("safety_case_path")
        document["safety_case"] = _document(name, "case")
    return document


DOCUMENTS = [(name, part, _document(name, part))
             for name in NAMES for part in ("system", "case", "scenario")]
DOCUMENTS.append(("type3", "candidate", _document("type3", "candidate")))

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
           "scenario": Scenario.from_dict, "candidate": NetControllerSpec.from_dict}


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
@example(mutated=_mutated(*_at("type3", "candidate", "weights", 24), -1))  # an inverted gain
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
    argv = {
        "system": ["classify", "--system", str(path)],
        "case": ["check-case", "--system", str(CORPUS_DIR / f"{name}_system.json"),
                 "--case", str(path)],
        "candidate": ["assess", "--system", SYSTEM, "--candidate", str(path)],
    }[part]
    assert main(argv) in (0, 2, 3)


#: Extreme finite numbers: zero, the subnormal floor, tiny, huge and the largest float
#: (the literal 1.8e308 would read as infinity).
EXTREMES = tuple(sign * x for x in (5e-324, 1e-300, 1e300, sys.float_info.max)
                 for sign in (1, -1)) + (0.0,)
SIMULATED_SECONDS = 60.0  # the cap on a scenario's duration, unless the duration is the target


def _value(document, path):
    for step in path:
        document = document[step]
    return document


#: Each site of a system, scenario or candidate document that holds a number -> its
#: (index, path)s.
NUMBER_SITES: dict = {}
for _site, _places in SITES.items():
    _numbers = [(index, path) for index, path in _places
                if type(_value(DOCUMENTS[index][2], path)) in (int, float)]
    if _site[0] != "case" and _numbers:
        NUMBER_SITES[_site] = _numbers


def extreme_numbers():
    """(document index, path, extreme value) for one number of a system, scenario or
    candidate."""
    places = st.sampled_from(sorted(NUMBER_SITES)).flatmap(
        lambda site: st.sampled_from(NUMBER_SITES[site]))
    return st.tuples(places, st.sampled_from(EXTREMES)).map(lambda p: (*p[0], p[1]))


_WINDOW = ("admission_policy", "window")


# A simulate run or an assessment either finishes (0, or 3 with a hazard, an undischarged
# obligation or a failed candidate) or refuses its input with exit 2 and one "error: " line;
# no warning (warnings are errors), no traceback. A 1e300 °C inflow exits 0 with no hazard:
# the guard closes the valve on the first tick.
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(target=extreme_numbers())
@example(target=(*_at("type2", "system", *_WINDOW), sys.float_info.max))
@example(target=(*_at("type2", "system", *_WINDOW), 5e-324))
@example(target=(*_at("type2", "scenario", "tick"), 5e-324))
@example(target=(*_at("type3", "scenario", "tick"), 1e300))
@example(target=(*_at("type0", "scenario", "inflow_temp_trace", "points", 0, 1), 1e300))
@example(target=(*_at("type3", "candidate", "weights", 24), sys.float_info.max))
@example(target=(*_at("type3", "candidate", "weights", 0), -5e-324))
def test_an_extreme_number_simulates_or_is_refused(tmp_path_factory, target):
    index, path, value = target
    name, part, document, _ = _mutated(index, path, value)
    directory = tmp_path_factory.getbasetemp()
    if part == "candidate":
        (directory / "extreme_candidate.json").write_text(json.dumps(document))
        argv = ["assess", "--system", SYSTEM,
                "--candidate", str(directory / "extreme_candidate.json")]
    else:
        documents = {"system": _document(name, "system"),
                     "scenario": _document(name, "scenario"), part: document}
        if (part, path) != ("scenario", ("duration",)):
            scenario = documents["scenario"]
            scenario["duration"] = min(scenario["duration"], SIMULATED_SECONDS)
        paths = {p: directory / f"extreme_{p}.json" for p in documents}
        for p, file in paths.items():
            file.write_text(json.dumps(documents[p]))
        argv = ["simulate", "--scenario", str(paths["scenario"]),
                "--system", str(paths["system"]), "--out", str(directory / "extreme.csv"),
                "--report", str(directory / "extreme_report.json")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@pytest.mark.parametrize("name, part", [(n, p) for n, p, _ in DOCUMENTS])
def test_round_trip(name, part):
    # Writing a loaded document gives it back: the loader keeps every key the corpus holds.
    document = _document(name, part)
    assert corpus_files.write(LOADERS[part](document)) == document


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{\"a\": "], ids=["not-utf8", "not-json"])
@pytest.mark.parametrize("part", ["system", "case", "scenario", "candidate"])
def test_unreadable_file_exits_2_and_names_it(tmp_path, capsys, part, content):
    path = tmp_path / f"{part}.json"
    path.write_bytes(content)
    argv = {
        "system": ["classify", "--system", str(path)],
        "case": ["check-case", "--system", SYSTEM, "--case", str(path)],
        "scenario": ["simulate", "--scenario", str(path), "--system", SYSTEM,
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")],
        "candidate": ["assess", "--system", SYSTEM, "--candidate", str(path)],
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
