"""Seeded input generators for the benchmark workloads.

Each generator takes only the workload seed. Seed ``DEFAULT_SEED``
reproduces the shipped corpus exactly; any other seed perturbs the
inputs within ranges on which every run stays hazard-free and
discharges every obligation.
"""
from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

DEFAULT_SEED = 0


def _trace(points, interp: str = "hold") -> dict[str, Any]:
    return {"points": [[float(t), float(v)] for t, v in points], "interp": interp}


def _scenario(
    sid: str,
    setpoint_schedule,
    inflow_temp,
    inflow_rate,
    seed: int,
    initial_tank_temp: float,
    manual_triggers=(),
) -> dict[str, Any]:
    """A scenario document in the layout ``Scenario.to_dict`` writes."""
    return {
        "duration": 3600.0,
        "guard_enabled": True,
        "id": sid,
        "inflow_rate_trace": inflow_rate,
        "inflow_temp_trace": inflow_temp,
        "initial_tank_temp": initial_tank_temp,
        "manual_triggers": [[float(t), o] for t, o in manual_triggers],
        "seed": seed,
        "setpoint_schedule": [[float(t), float(v)] for t, v in setpoint_schedule],
        "tick": 0.1,
    }


def managed_pid_scenario(seed: int) -> dict[str, Any]:
    """Type II cold-climate narrative.

    Cold inflow wiggles every 100 s for 2400 s, then ramps to 5 degC,
    breaking the admitted cold-water constraint. The seed perturbs the
    wiggle values, when the ramp reaches 5 degC, and when the operator
    requests the permissive option (which must be refused).
    """
    if seed == DEFAULT_SEED:
        cold, warm, ramp_top, manual = (0.8,) * 13, (1.4,) * 12, 2500.0, 2000.0
    else:
        rng = random.Random(seed)
        cold = tuple(round(rng.uniform(0.6, 1.0), 3) for _ in range(13))
        warm = tuple(round(rng.uniform(1.2, 1.6), 3) for _ in range(12))
        ramp_top = round(rng.uniform(2450.0, 2650.0), 1)
        manual = round(rng.uniform(1700.0, 2300.0), 1)
    points = [(k * 100.0, (cold[k // 2] if k % 2 == 0 else warm[k // 2])) for k in range(25)]
    points += [(ramp_top, 5.0), (3600.0, 5.0)]
    return _scenario(
        "type2-cold-climate",
        setpoint_schedule=((0.0, 40.0),),
        inflow_temp=_trace(points, "linear"),
        inflow_rate=_trace(((0.0, 0.5),)),
        seed=3,
        initial_tank_temp=40.0,
        manual_triggers=((manual, "opt-1"),),
    )


def managed_net_scenario(seed: int) -> dict[str, Any]:
    """Type III narrative: a near-limit setpoint excursion from 600 s to 900 s.

    The seed sets ``Scenario.seed`` (and so the seeds of the candidates
    the planner proposes) and the excursion setpoint.
    """
    if seed == DEFAULT_SEED:
        scenario_seed, excursion = 8, 86.0
    else:
        rng = random.Random(seed)
        scenario_seed = rng.randrange(1, 1 << 30)
        excursion = round(rng.uniform(85.9, 86.2), 2)
    return _scenario(
        "type3-dynamic-assurance",
        setpoint_schedule=((0.0, 50.0), (600.0, excursion), (900.0, 60.0)),
        inflow_temp=_trace(((0.0, 10.0),)),
        inflow_rate=_trace(((0.0, 0.02),)),
        seed=scenario_seed,
        initial_tank_temp=50.0,
    )


def write_scenario(document: dict[str, Any], path: Path) -> Path:
    """Write a scenario as ``save_scenario`` does, for ``load_scenario``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
