"""A plain reference run for checking `harness.run_scenario` and `harness.emit_trace`.

`reference_run` steps a scenario with none of the run loop's shortcuts. It
builds each record with its constructor, reads each tick's inputs with
`Trace.value_at` and `Scenario.setpoint_at`, keeps the whole sample history,
decides the case's validity with `support_map`, computes the network's power
with the memo-free `matmul_net`, and formats each row with the one-string `ROW`.
The properties in `test_harness.py` compare its bytes, report and end state
with the program's.
"""
from collections import deque
from dataclasses import replace

import numpy as np

from safeadapt import taxonomy
from safeadapt.assurance import current_constraints
from safeadapt.controller import PidConfig, PidState, pid_compute
from safeadapt.harness import (
    ADAPTATION_COOLDOWN,
    TRACE_HEADER,
    TYPE2_PLAN_INTERVAL,
    TYPE3_ASSESS_COOLDOWN,
    RunReport,
)
from safeadapt.mapek import (
    AdaptationTrigger,
    GoalTracker,
    execute_adaptation,
    fail_safe,
    plan_type1,
    plan_type2,
    plan_type3,
    spec_hash,
)
from safeadapt.model import EnvironmentSample, KnowledgeRepository, domain_subset
from safeadapt.plant import GuardState, PlantState, guard_step, hazard_update, plant_step
from safeadapt.spi import spi_update
from net_oracle import matmul_net
from validity_oracle import support_map

#: A trace row as one format string. Bools print as 1/0.
ROW = "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%s,%.6f,%s,%d,%.6f,%s,%d"


@np.errstate(over="ignore", invalid="ignore")
def reference_run(scenario, system, end=None):
    """The CSV bytes and the report of one run, as `emit_trace` and `run_scenario` give them.

    A dict passed as ``end`` receives the run's end state: its whole sample history as
    plain tuples (``history``), its SPI windows (``spi_windows``) and its goal tracker
    (``tracker``)."""
    tick, ticks = scenario.tick, scenario.ticks()
    plant = replace(system.plant, tick=tick)
    model = system.models[0] if system.models else None
    type_id = ([taxonomy.classify(m.descriptor) for m in system.models] or [None])[0]
    suite = system.assessment_suite()
    repo = KnowledgeRepository(
        current_config=system.initial_config,
        safety_case=system.safety_case,
        sample_history=deque(maxlen=max(ticks, 1)),
        spi_windows=[replace(w, tick=tick) for w in system.spi_windows],
        active_option_id=system.initial_option_id,
        active_net=system.net_controller,
        baseline_option_id=system.baseline_option_id,
        baseline_config=system.initial_config,
        baseline_net=system.net_controller,
    )
    state = PlantState(tank_temp=scenario.initial_tank_temp)
    guard = GuardState(enabled=scenario.guard_enabled)
    pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
    tracker = GoalTracker(system.goal)
    report = RunReport(scenario_id=scenario.id)
    rows = [TRACE_HEADER]
    pending = sorted(scenario.manual_triggers)
    last_adaptation = last_assessment = -1e18
    next_plan, candidates, monotone = 0.0, 0, True
    failed, activated = set(), []
    domain = current_constraints(repo.safety_case) if type_id == "TII" else None
    last_entry = None
    prev_temp = state.outflow_temp

    def plan(trigger, t):
        nonlocal candidates
        if type_id == "TI":
            return plan_type1(model, trigger, repo.active_option_id, now=t)
        if type_id == "TII":
            return plan_type2(model, trigger, repo.sample_history, system.admission_policy,
                              repo.safety_case, repo.active_option_id, now=t)
        if type_id == "TIII" and trigger.kind != "manual":
            seed = scenario.seed * 1_000_003 + candidates
            candidates += 1
            return plan_type3(model, trigger, repo.active_net, suite, seed, repo.safety_case,
                              now=t)
        return None

    def apply(decision, t):
        nonlocal pid, pid_state, domain, last_adaptation, monotone
        if decision is None:
            return
        failed.update(item.payload_ref for item in decision.evidence_items
                      if item.kind == "runtime-assessment" and item.verdict == "fail")
        if decision.applied:
            execute_adaptation(decision, repo, now=t)
        report.decisions.append(decision.to_dict())
        if not decision.applied:
            return
        pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
        last_adaptation = t
        if type_id == "TII":
            new_domain = current_constraints(repo.safety_case)
            monotone = monotone and domain_subset(new_domain, domain)
            domain = new_domain
        if decision.candidate_net is not None:
            activated.append(spec_hash(decision.candidate_net))

    for k in range(ticks):
        t = k * tick
        setpoint = scenario.setpoint_at(t)
        inflow_temp = scenario.inflow_temp_trace.value_at(t)
        inflow_rate = scenario.inflow_rate_trace.value_at(t)
        sample = EnvironmentSample(t, inflow_temp, inflow_rate, setpoint, state.outflow_temp)
        repo.sample_history.append(sample)
        tracker.observe(t, setpoint, state.outflow_temp)

        was_tripped = guard.tripped
        guard = guard_step(guard, state)
        if guard.tripped and not was_tripped:
            report.guard_trips += 1
        if guard.tripped and state.valve_open:
            state = state._replace(valve_open=False)

        if system.initial_config.controller_kind == "pid":
            power, pid_state = pid_compute(pid, pid_state, setpoint, state.outflow_temp, tick,
                                           plant.max_power)
        else:
            temp_rate = (state.outflow_temp - prev_temp) / tick
            power = matmul_net(
                repo.active_net,
                (setpoint, state.outflow_temp, inflow_temp, inflow_rate, temp_rate),
                plant.max_power,
            )
        if guard.tripped:
            power = 0.0

        prev_temp = state.outflow_temp
        state = PlantState._make(hazard_update(plant_step(state, plant, sample, power), plant))

        breaches = [spi_update(window, state.outflow_temp) for window in repo.spi_windows]
        if any(breaches):
            report.decisions.append(fail_safe(repo, model.id if model else "", t).to_dict())
            pid, pid_state = PidConfig.from_configuration(repo.current_config), PidState()
            report.spi_breaches += 1
        else:
            while pending and t >= pending[0][0]:
                apply(plan(AdaptationTrigger("manual", pending.pop(0)[1]), t), t)
            goal_violation = AdaptationTrigger("goal-violation")
            if (type_id == "TI" and tracker.take_violation()
                    and t - last_adaptation >= ADAPTATION_COOLDOWN):
                apply(plan(goal_violation, t), t)
            elif type_id == "TII" and t >= next_plan:
                next_plan = t + TYPE2_PLAN_INTERVAL
                if t - last_adaptation >= ADAPTATION_COOLDOWN:
                    decision = plan(goal_violation, t)
                    if decision.applied:
                        apply(decision, t)
            elif (type_id == "TIII" and tracker.take_violation() and suite is not None
                  and t - last_assessment >= TYPE3_ASSESS_COOLDOWN):
                last_assessment = t
                apply(plan(goal_violation, t), t)

        case = repo.safety_case
        valid = support_map(case, t, repo)[case.root]
        if (case.revision, valid) != last_entry:
            last_entry = case.revision, valid
            report.case_validity_timeline.append(
                {"time": t, "revision": case.revision, "valid": valid})
        spi_near = repo.spi_windows[0].accumulated() if repo.spi_windows else 0.0
        rows.append(ROW % (
            t, inflow_temp, inflow_rate, setpoint, state.outflow_temp, power,
            state.valve_open, repo.active_option_id, state.hazard_accum, state.hazard_count,
            guard.tripped, spi_near, case.revision, valid,
        ))

    report.hazard_count = state.hazard_count
    report.rise_times = [dict(event) for event in tracker.events]
    report.taxonomy_verdicts = [
        taxonomy.verdict_for(m, repo.safety_case, scenario.duration, repo).to_dict()
        for m in system.models
    ]
    report.runtime_criteria = {
        "tii_c5_constraints_monotone": monotone if type_id == "TII" else None,
        "tiii_b4_never_applied_failed": (
            not any(h in failed for h in activated) if type_id == "TIII" else None
        ),
    }
    if end is not None:
        end.update(history=[tuple(sample) for sample in repo.sample_history],
                   spi_windows=repo.spi_windows, tracker=tracker)
    return ("\n".join(rows) + "\n").encode(), report
