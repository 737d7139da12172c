"""The shipped corpus, loaded as ``safeadapt`` loads it, and a writer back to its layout.

``corpus/<name>_{system,case,scenario}.json`` is the only description of the
four narratives: ``system``, ``case`` and ``scenario`` read a fresh object
through the CLI's own loaders. The program reads its input documents but
never writes them; ``write`` is the loaders' inverse for tests, a walk over
dataclass fields with a short table of the layout's exceptions.
"""
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

from safeadapt.assurance import CaseNode, EvidenceItem, load_case
from safeadapt.harness import SystemDescription, load_system
from safeadapt.model import OperationalDomain
from safeadapt.scenario import load_scenario
from safeadapt.spi import SpiWindow

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
NAMES = ("type0", "type1", "type2", "type3")


def path(name, part):
    return CORPUS_DIR / f"{name}_{part}.json"


def document(name, part):
    return json.loads(path(name, part).read_text())


def system(name):
    return load_system(path(name, "system"))


def case(name):
    return load_case(path(name, "case"))


def scenario(name):
    return load_scenario(path(name, "scenario"))


#: Fields a document holds under another key.
_KEYS = {"initial_config": "initial_configuration", "models": "adaptation_models"}
#: Fields no document holds: a run binds its SPI windows to the scenario's tick.
_LEFT_OUT = {(SpiWindow, "tick")}
#: A None field is left out of its document, but these are written as null.
_NULLABLE = {(EvidenceItem, "freshness")}
#: An empty collection is written, but these are left out.
_OMITTED_WHEN_EMPTY = {(CaseNode, "evidence"), (SystemDescription, "assessment_scenarios")}


def write(value):
    """``value`` as the JSON document its ``from_dict`` reads."""
    if isinstance(value, OperationalDomain):  # an infinite bound is null
        return {name: [None if low == -math.inf else low, None if high == math.inf else high]
                for name, (low, high) in value.bounds.items()}
    if is_dataclass(value):
        out = {}
        for field in fields(value):
            item, key = getattr(value, field.name), (type(value), field.name)
            if not field.init or key in _LEFT_OUT:
                continue
            if (item is None and key not in _NULLABLE) or (not item and key in _OMITTED_WHEN_EMPTY):
                continue
            out[_KEYS.get(field.name, field.name)] = write(item)
        return out
    if isinstance(value, dict):
        return {key: write(item) for key, item in value.items()}
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [write(item) for item in value]
    return value
