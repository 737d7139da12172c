import copy
import math
import random
import statistics
from collections import deque
from dataclasses import replace
from itertools import accumulate, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

from safeadapt.assurance import (
    AttachEvidence,
    ReplaceConstraintContext,
    evaluate_validity,
)
from safeadapt.controller import NetControllerSpec, weight_count, zero_spec
from safeadapt.mapek import (
    AdaptationGoal,
    AdaptationTrigger,
    AdmissionPolicy,
    AssessmentSuite,
    GoalTracker,
    admission_test,
    assess_candidate,
    execute_adaptation,
    fail_safe,
    plan_type1,
    plan_type2,
    plan_type3,
    propose_candidate,
    spec_hash,
)
from safeadapt.model import (
    EnvironmentSample,
    KnowledgeRepository,
    OperationalDomain,
    SystemConfiguration,
    ValidationError,
)
from safeadapt.plant import PlantState, hazard_update, plant_step
from safeadapt.scenario import Scenario, Trace
from safeadapt.spi import SpiWindow, spi_breached, spi_update
from net_oracle import matmul_net
import corpus_files

OPTION_IDS = {f"opt-{k}" for k in range(1, 11)}
TYPE1_MODEL, TYPE2_MODEL, TYPE3_MODEL = (
    corpus_files.system(name).models[0] for name in ("type1", "type2", "type3"))
TYPE3_PLANT = corpus_files.system("type3").plant
#: The cold, fast-inflow domain of the aggressive option 9.
COLD_FAST_DOMAIN = next(o.domain for o in TYPE2_MODEL.options if o.id == "opt-9")


def _baseline_net():
    return corpus_files.system("type3").net_controller


def _suite():
    return corpus_files.system("type3").assessment_suite()


class TestGoalTracker:
    def _track(self, entry_time):
        tracker = GoalTracker(AdaptationGoal())
        tracker.observe(0.0, 40.0, 40.0)
        tracker.observe(0.1, 60.0, 40.0)  # step 40 -> 60
        t = 0.2
        while t < entry_time:
            tracker.observe(t, 60.0, 40.0)
            t += 0.1
        tracker.observe(entry_time, 60.0, 59.5)  # inside the +/-1 band
        return tracker

    def test_timely_entry_no_violation(self):
        tracker = self._track(45.0)
        event = tracker.events[-1]
        assert event["rise_time"] == pytest.approx(45.0 - 0.1, abs=0.2)
        assert not event["violation"]

    def test_late_entry_violates(self):
        tracker = self._track(75.0)
        assert tracker.events[-1]["violation"]
        assert tracker.any_violation

    def test_no_increase_no_events(self):
        tracker = GoalTracker(AdaptationGoal())
        for k in range(100):
            tracker.observe(k * 0.1, 50.0, 20.0)
        assert tracker.events == []
        assert not tracker.take_violation()

    def test_take_violation_fires_once_per_violation(self):
        tracker = self._track(75.0)
        assert tracker.take_violation()
        assert not tracker.take_violation()


class TestPlanType1:
    def test_goal_violation_picks_fastest_option(self):
        decision = plan_type1(
            TYPE1_MODEL, AdaptationTrigger("goal-violation"), "opt-1"
        )
        assert decision.applied
        assert decision.chosen_option == "opt-9"  # smallest design rise time

    def test_applied_choice_is_always_enumerated(self):
        decision = plan_type1(TYPE1_MODEL, AdaptationTrigger("goal-violation"), "opt-5")
        assert decision.chosen_option in OPTION_IDS

    def test_rogue_request_refused_with_reason(self):
        decision = plan_type1(
            TYPE1_MODEL,
            AdaptationTrigger("manual", requested_option_id="opt-99"),
        )
        assert not decision.applied
        assert decision.chosen_option is None
        assert "opt-99" in decision.reason and "TI.B1" in decision.reason

    def test_valid_request_honoured(self):
        decision = plan_type1(
            TYPE1_MODEL, AdaptationTrigger("manual", requested_option_id="opt-3")
        )
        assert decision.applied and decision.chosen_option == "opt-3"

    def test_no_better_option(self):
        decision = plan_type1(
            TYPE1_MODEL, AdaptationTrigger("goal-violation"), "opt-9"
        )
        assert not decision.applied and decision.chosen_option is None


def _cold_samples(n, mean=1.0, spread=0.2, rate=0.5, tick=1.0, seed=3):
    rng = random.Random(seed)
    return [
        EnvironmentSample(k * tick, mean + rng.uniform(-spread, spread), rate, 40.0, 40.0)
        for k in range(n)
    ]


class TestAdmission:
    def test_admit_on_cold_window(self):
        samples = _cold_samples(500)
        report = admission_test(samples, COLD_FAST_DOMAIN, AdmissionPolicy())
        assert report.status == "admit"
        stats = report.variables["inflow_temp"]
        values = [s.inflow_temp for s in samples[-report.n:]]
        # the report's confidence bound equals the formula evaluated directly
        mean = statistics.fmean(values)
        assert stats["mean"] == pytest.approx(mean)
        assert stats["upper_cb"] == pytest.approx(
            mean + 2.326 * statistics.stdev(values) / math.sqrt(report.n)
        )
        assert stats["upper_cb"] <= 2.0
        assert admission_test(deque(samples), COLD_FAST_DOMAIN, AdmissionPolicy()) == report

    def test_not_ready_below_min_samples(self):
        report = admission_test(_cold_samples(50), COLD_FAST_DOMAIN, AdmissionPolicy())
        assert report.status == "not-ready"
        assert not report.admit

    def test_not_ready_when_span_too_short(self):
        samples = _cold_samples(400, tick=0.1)  # 40 s of data, 300 s needed
        report = admission_test(samples, COLD_FAST_DOMAIN, AdmissionPolicy())
        assert report.status == "not-ready"

    def test_reject_when_mean_near_bound(self):
        samples = _cold_samples(400, mean=1.95, spread=0.5)
        report = admission_test(samples, COLD_FAST_DOMAIN, AdmissionPolicy())
        assert report.status == "reject"

    def test_reject_via_sample_maximum(self):
        samples = _cold_samples(400, mean=1.0, spread=0.05)
        spike = EnvironmentSample(399.5, 2.5, 0.5, 40.0, 40.0)
        report = admission_test(samples + [spike], COLD_FAST_DOMAIN, AdmissionPolicy())
        assert report.status == "reject"
        assert report.variables["inflow_temp"]["max"] == 2.5

    def test_reject_via_lower_bound(self):
        samples = _cold_samples(400, mean=1.0, rate=0.1)  # below 0.2 L/s floor
        report = admission_test(samples, COLD_FAST_DOMAIN, AdmissionPolicy())
        assert report.status == "reject"

    def test_empty_window(self):
        assert admission_test([], COLD_FAST_DOMAIN, AdmissionPolicy()).status == "not-ready"

    @pytest.mark.parametrize("window", [-1.0, 0.0, float("nan"), float("inf")])
    def test_window_must_be_finite_and_positive(self, window):
        with pytest.raises(ValidationError, match="admission window"):
            AdmissionPolicy.from_dict({"window": window})

    @pytest.mark.parametrize("n, status", [(1000, "admit"), (200, "not-ready")],
                             ids=["warm", "cold"])
    @pytest.mark.parametrize("ring", [list, lambda s: deque(s, maxlen=900)],
                             ids=["list", "deque"])
    def test_window_equals_full_scan(self, n, status, ring):
        # Uneven ticks; a warm window starts exactly on a sample.
        samples = [s._replace(time=s.time * 0.5 + (s.time % 3) * 0.1)
                   for s in _cold_samples(n)]
        policy = AdmissionPolicy()
        report = admission_test(ring(samples), COLD_FAST_DOMAIN, policy)
        kept = list(ring(samples))
        window = [s for s in kept if s.time >= kept[-1].time - policy.window]
        assert window[0].time in (kept[0].time, kept[-1].time - policy.window)
        assert report.status == status
        assert (report.n, report.window_start, report.window_end) == (
            len(window), window[0].time, window[-1].time)
        for name, stats in report.variables.items():
            values = [getattr(s, name) for s in window]
            assert (stats["mean"], stats["stdev"], stats["min"], stats["max"]) == (
                statistics.fmean(values), statistics.stdev(values), min(values), max(values))

    @given(
        st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5]), min_size=1, max_size=60),
        st.floats(0.1, 20.0), st.integers(2, 30), st.one_of(st.none(), st.integers(1, 60)),
    )
    @example([0.0, 1.0, 1.0, 0.0, 1.0], 1.0, 2, None)  # the window starts on a repeated time
    @example([0.0, 1.0, 0.0, 0.0, 1.0], 1.0, 2, 3)  # the same in a ring that has evicted
    def test_window_matches_the_takewhile_scan(self, steps, window, min_samples, maxlen):
        # Time-ordered samples, times repeating where a step is 0.0; None keeps a list.
        samples = [EnvironmentSample(t, 1.0 + (k % 5) * 0.1, 0.5, 40.0, 40.0)
                   for k, t in enumerate(accumulate(steps))]
        ring = samples if maxlen is None else deque(samples, maxlen=maxlen)
        policy = AdmissionPolicy(window=window, min_samples=min_samples)
        report = admission_test(ring, COLD_FAST_DOMAIN, policy)
        start = ring[-1].time - window
        expected = list(takewhile(lambda s: s.time >= start, reversed(ring)))[::-1]
        assert (report.n, report.window_start, report.window_end) == (
            len(expected), expected[0].time, ring[-1].time)
        ready = len(expected) >= min_samples and ring[-1].time - ring[0].time >= window
        assert (report.status != "not-ready") == ready
        if ready:
            values = [s.inflow_temp for s in expected]
            stats = report.variables["inflow_temp"]
            assert (stats["mean"], stats["min"], stats["max"]) == (
                statistics.fmean(values), min(values), max(values))

    @settings(max_examples=200)
    @given(
        st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0]), st.floats(1e-3, 10.0)),
        st.one_of(st.integers(1, 120), st.floats(0.01, 120.0)), st.integers(2, 150),
        st.integers(0, 240),
    )
    @example(0.1, 3, 2, 40)  # window 0.30000000000000004 s: the quotient rounds up to 4
    @example(0.1, 30, 300, 240)  # a corpus-like window that never fills min_samples
    def test_sized_ring_reads_what_the_whole_history_reads(self, tick, ticks_per_window,
                                                            min_samples, ticks):
        # Samples at k * tick, as a run makes them; admission may run after any tick.
        policy = AdmissionPolicy(window=ticks_per_window * tick, min_samples=min_samples)
        ring, history = deque(maxlen=policy.history_size(tick, ticks)), []
        for k in range(ticks):
            sample = EnvironmentSample(k * tick, 1.0 + (k % 7) * 0.1, 0.5, 40.0, 40.0)
            ring.append(sample)
            history.append(sample)
            assert admission_test(ring, COLD_FAST_DOMAIN, policy) == admission_test(
                history, COLD_FAST_DOMAIN, policy)

    _bound = st.floats(-5.0, 5.0) | st.sampled_from([-math.inf, math.inf])

    @given(
        st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.5, 2.5]), st.floats(-5.0, 5.0),
                           st.floats(0.0, 5.0)), min_size=1, max_size=60),
        st.floats(0.1, 20.0), st.integers(2, 30),
        st.dictionaries(st.sampled_from(["inflow_temp", "inflow_rate"]),
                        st.tuples(_bound, _bound).map(sorted).map(tuple)),
        st.booleans(),
    )
    def test_plain_tuples_read_as_samples(self, rows, window, min_samples, bounds, ring):
        # A run keeps plain tuples in EnvironmentSample order; the report reads them the same.
        times = accumulate(step for step, _, _ in rows)
        samples = [EnvironmentSample(t, temp, rate, 40.0, 41.0)
                   for t, (_, temp, rate) in zip(times, rows)]
        plain = [tuple(s) for s in samples]
        if ring:
            samples, plain = deque(samples, maxlen=40), deque(plain, maxlen=40)
        domain = OperationalDomain(bounds)
        policy = AdmissionPolicy(window=window, min_samples=min_samples)
        assert admission_test(plain, domain, policy) == admission_test(samples, domain, policy)


class TestPlanType2:
    def test_cold_window_admits_option_9(self):
        decision = plan_type2(
            TYPE2_MODEL, AdaptationTrigger("goal-violation"), _cold_samples(500), AdmissionPolicy(),
            corpus_files.case("type2"), active_option_id="opt-1", now=500.0,
        )
        assert decision.applied and decision.chosen_option == "opt-9"
        assert decision.admission.admit
        assert len(decision.evidence_items) == 1
        item = decision.evidence_items[0]
        assert item.kind == "runtime-observation"
        assert decision.patches == [
            ReplaceConstraintContext("C-DOM", COLD_FAST_DOMAIN),
            AttachEvidence("Sn-B4", item),
        ]

    def test_relaxing_request_refused_citing_monotonicity(self):
        case = corpus_files.case("type2")
        case = replace(case, nodes={
            **case.nodes, "C-DOM": replace(case.node("C-DOM"), constraint=COLD_FAST_DOMAIN)})
        decision = plan_type2(
            TYPE2_MODEL, AdaptationTrigger("manual", requested_option_id="opt-1"),
            _cold_samples(500), AdmissionPolicy(), case, active_option_id="opt-9",
        )
        assert not decision.applied
        assert "TII.C5" in decision.reason

    def test_rogue_request_refused(self):
        decision = plan_type2(
            TYPE2_MODEL, AdaptationTrigger("manual", requested_option_id="opt-77"),
            _cold_samples(500), AdmissionPolicy(), corpus_files.case("type2"),
        )
        assert not decision.applied and "TII.B1" in decision.reason

    def test_not_ready_is_not_applied(self):
        decision = plan_type2(
            TYPE2_MODEL, AdaptationTrigger("goal-violation"), _cold_samples(50), AdmissionPolicy(),
            corpus_files.case("type2"), active_option_id="opt-1",
        )
        assert not decision.applied


class TestProposeCandidate:
    def test_deterministic_per_seed(self):
        base = _baseline_net()
        assert propose_candidate(base, 7) == propose_candidate(base, 7)
        assert propose_candidate(base, 7) != propose_candidate(base, 8)

    def test_weight_branch_statistics(self):
        base = _baseline_net()
        weight_branch = 0
        for seed in range(2000):
            candidate = propose_candidate(base, seed)
            if candidate.layer_sizes == base.layer_sizes and candidate.weights != base.weights:
                weight_branch += 1
                deltas = [abs(a - b) for a, b in zip(candidate.weights, base.weights)]
                assert max(deltas) <= 6 * 0.1  # 6 sigma of the noise scale
        assert weight_branch / 2000 == pytest.approx(0.9, abs=0.03)

    def test_hyper_branch_single_mutation_with_zero_weights(self):
        base = _baseline_net()
        seen_topologies = set()
        for seed in range(2000):
            candidate = propose_candidate(base, seed)
            if candidate.layer_sizes == base.layer_sizes:
                continue
            seen_topologies.add(candidate.layer_sizes)
            assert all(w == 0.0 for w in candidate.weights)
            if len(candidate.layer_sizes) == len(base.layer_sizes):
                diffs = [
                    abs(a - b) for a, b in zip(candidate.layer_sizes, base.layer_sizes)
                ]
                assert sum(diffs) == 1
            else:
                assert abs(len(candidate.layer_sizes) - len(base.layer_sizes)) == 1
        assert seen_topologies  # the mutation branch is reachable

    def test_sizes_stay_in_bounds(self):
        spec = zero_spec([16])
        for seed in range(500):
            candidate = propose_candidate(spec, seed)
            assert 1 <= len(candidate.layer_sizes) <= 2
            assert all(1 <= s <= 16 for s in candidate.layer_sizes)


def _reference_assessment_scenario(candidate, scenario, plant, goal):
    """The embedded simulation as it read its inputs by time, one lookup per tick, with
    the memo-free forward pass."""
    tick = scenario.tick
    plant = replace(plant, tick=tick)
    state = PlantState(tank_temp=scenario.initial_tank_temp)
    tracker = GoalTracker(goal)
    prev_temp = state.tank_temp
    for k in range(scenario.ticks()):
        t = k * tick
        setpoint = scenario.setpoint_at(t)
        inflow_temp = scenario.inflow_temp_trace.value_at(t)
        inflow_rate = scenario.inflow_rate_trace.value_at(t)
        temp_rate = (state.tank_temp - prev_temp) / tick
        power = matmul_net(
            candidate,
            (setpoint, state.tank_temp, inflow_temp, inflow_rate, temp_rate),
            plant.max_power,
        )
        if not math.isfinite(power):
            return {"scenario": scenario.id, "ok": False, "fault": "non-finite output"}
        env = EnvironmentSample(t, inflow_temp, inflow_rate, setpoint, state.tank_temp)
        prev_temp = state.tank_temp
        state = plant_step(state, plant, env, power)
        state = PlantState._make(hazard_update(state, plant))
        tracker.observe(t + tick, setpoint, state.tank_temp)
    ok = state.hazard_count == 0 and not tracker.any_violation
    return {
        "scenario": scenario.id,
        "ok": ok,
        "hazard_count": state.hazard_count,
        "rise_violation": tracker.any_violation,
    }


class TestAssessment:
    def test_baseline_passes_shipped_suite(self):
        outcome = assess_candidate(_baseline_net(), _suite())
        assert outcome["verdict"] == "pass"
        assert outcome["evidence"].verdict == "pass"
        assert outcome["evidence"].payload_ref == spec_hash(_baseline_net())

    def test_reassessment_is_idempotent(self):
        first = assess_candidate(_baseline_net(), _suite())
        second = assess_candidate(_baseline_net(), _suite())
        assert first["verdict"] == second["verdict"] == "pass"
        assert first["results"] == second["results"]

    def test_constant_half_power_candidate_fails(self):
        outcome = assess_candidate(zero_spec([4]), _suite())
        assert outcome["verdict"] == "fail"
        # it overheats the worst-case scenario, a genuine hazard verdict
        assert any(r.get("hazard_count", 0) > 0 for r in outcome["results"])

    def test_results_equal_the_per_time_lookup_reference(self):
        # The shipped suite plus one scenario whose inputs change between points.
        ramp = Scenario(
            id="ramp", duration=90.0, setpoint_schedule=((0.0, 45.0), (12.34, 55.0)),
            inflow_temp_trace=Trace(((-5.0, 5.0), (30.05, 20.0), (60.0, 8.0)), "linear"),
            inflow_rate_trace=Trace(((0.0, 0.02), (40.0, 0.05))), initial_tank_temp=50.0,
        )
        suite = AssessmentSuite(
            _suite().scenarios + (ramp,), TYPE3_PLANT, AdaptationGoal()
        )
        verdicts = set()
        for seed in range(30):
            candidate = propose_candidate(_baseline_net(), seed)
            outcome = assess_candidate(candidate, suite)
            verdicts.add(outcome["verdict"])
            assert outcome["results"] == [
                _reference_assessment_scenario(candidate, sc, suite.plant, suite.goal)
                for sc in suite.scenarios
            ]
        assert verdicts == {"pass", "fail"}

    def test_warm_and_cold_memos_assess_alike(self):
        # Each candidate's second assessment starts on the memo its first one left; an
        # equal spec built afresh starts on an empty one.
        suite, verdicts = _suite(), set()
        for seed in range(2, 8):  # both verdicts, and a grown layer
            candidate = propose_candidate(_baseline_net(), seed)
            cold = assess_candidate(candidate, suite)
            verdicts.add(cold["verdict"])
            for again in (candidate, NetControllerSpec(candidate.layer_sizes, candidate.weights)):
                outcome = assess_candidate(again, suite)
                assert outcome["verdict"] == cold["verdict"]
                assert outcome["results"] == cold["results"]
        assert verdicts == {"pass", "fail"}

    def test_plant_steps_at_the_scenario_tick(self):
        step = Scenario(
            id="coarse", duration=120.0, setpoint_schedule=((0.0, 40.0), (5.0, 60.0)),
            inflow_temp_trace=Trace(((0.0, 10.0),)), inflow_rate_trace=Trace(((0.0, 0.02),)),
            tick=0.2, guard_enabled=False, initial_tank_temp=40.0,
        )
        outcomes = [
            assess_candidate(_baseline_net(), AssessmentSuite((step,), plant, AdaptationGoal()))
            for plant in (TYPE3_PLANT, replace(TYPE3_PLANT, tick=0.2))
        ]
        assert outcomes[0]["results"] == outcomes[1]["results"]
        assert outcomes[0]["verdict"] == "pass"

    def test_spec_hash_is_stable_and_sensitive(self):
        a, b = _baseline_net(), zero_spec([4])
        assert spec_hash(a) == spec_hash(_baseline_net())
        assert spec_hash(a) != spec_hash(b)


def _type3_repo():
    return KnowledgeRepository(
        current_config=SystemConfiguration("parametric-net", {}),
        safety_case=corpus_files.case("type3"),
        sample_history=deque(maxlen=100),
        spi_windows=[SpiWindow()],
        active_option_id="net-baseline",
        active_net=_baseline_net(),
        baseline_option_id="net-baseline",
        baseline_config=SystemConfiguration("parametric-net", {}),
        baseline_net=_baseline_net(),
    )


class TestPlanType3:
    def test_failed_candidate_never_applied(self):
        # Seeds that hit the hyperparameter-mutation branch produce
        # zero-weight candidates, which fail the suite.
        failures = 0
        for seed in range(40):
            decision = plan_type3(TYPE3_MODEL, AdaptationTrigger("goal-violation"),
                                  _baseline_net(), _suite(), seed, corpus_files.case("type3"))
            item = decision.evidence_items[0]
            if item.verdict == "fail":
                failures += 1
                assert not decision.applied
                assert "TIII.B4" in decision.reason
                candidate = propose_candidate(_baseline_net(), seed)
                assert f"candidate-{spec_hash(candidate)[:12]} failed" in decision.reason
            elif decision.applied:
                assert item.verdict == "pass"
                assert item.payload_ref == spec_hash(decision.candidate_net)
                assert decision.chosen_option == f"candidate-{item.payload_ref[:12]}"
            assert item.id == f"assess-{item.payload_ref[:12]}-r0"
        assert failures > 0

    def test_applied_candidate_updates_repo_and_case(self):
        passing = None
        for seed in range(40):
            decision = plan_type3(TYPE3_MODEL, AdaptationTrigger("goal-violation"),
                                  _baseline_net(), _suite(), seed, corpus_files.case("type3"),
                                  now=7.0)
            if decision.applied:
                passing = decision
                break
        assert passing is not None
        assert passing.patches == [AttachEvidence("Sn-B6", passing.evidence_items[0])]
        repo = _type3_repo()
        spi_update(repo.spi_windows[0], 86.0)
        revision = repo.safety_case.revision
        execute_adaptation(passing, repo, now=7.0)
        assert repo.active_net == passing.candidate_net
        assert repo.safety_case.revision == revision + 1
        assert passing.evidence_items[0].id in repo.safety_case.evidence
        assert repo.spi_windows[0].true_count == 0  # reset-spi post step


def _type2_repo(case=None):
    return KnowledgeRepository(
        current_config=SystemConfiguration("pid", {"kp": 50.0, "ki": 0.5, "kd": 0.0}),
        safety_case=case if case is not None else corpus_files.case("type2"),
        sample_history=deque(maxlen=100),
        active_option_id="opt-1",
        baseline_option_id="opt-1",
        baseline_config=SystemConfiguration("pid", {"kp": 50.0, "ki": 0.5, "kd": 0.0}),
    )


class TestExecuteAdaptation:
    def test_type2_apply_updates_gains_and_constraints(self):
        decision = plan_type2(
            TYPE2_MODEL, AdaptationTrigger("goal-violation"), _cold_samples(500), AdmissionPolicy(),
            corpus_files.case("type2"), active_option_id="opt-1", now=500.0,
        )
        repo = _type2_repo()
        execute_adaptation(decision, repo, now=500.0)
        assert repo.current_config.parameters["kp"] == 3000.0
        assert repo.active_option_id == "opt-9"
        from safeadapt.assurance import current_constraints

        assert current_constraints(repo.safety_case) == COLD_FAST_DOMAIN
        assert repo.safety_case.revision == 1

    def test_rollback_when_case_patch_targets_static_node(self):
        case = corpus_files.case("type2")
        # Freeze the nodes the executor patches: now both the context
        # replacement and the evidence attach are illegal.
        case.node("C-DOM").lifecycle = "static"
        case.node("Sn-B4").lifecycle = "static"
        case.node("G-B4").lifecycle = "static"
        case.node("Sn-B5").lifecycle = "static"
        case.node("G-B5").lifecycle = "static"
        decision = plan_type2(
            TYPE2_MODEL, AdaptationTrigger("goal-violation"), _cold_samples(500), AdmissionPolicy(),
            case, active_option_id="opt-1", now=500.0,
        )
        assert decision.applied
        repo = _type2_repo(case)
        before_config = repo.current_config
        before_case = copy.deepcopy(case)
        execute_adaptation(decision, repo, now=500.0)
        assert not decision.applied
        assert "rolled back" in decision.reason
        assert repo.current_config == before_config
        assert repo.safety_case == before_case

    def test_type1_apply_updates_gains_and_keeps_case(self):
        decision = plan_type1(TYPE1_MODEL, AdaptationTrigger("goal-violation"), "opt-1")
        assert decision.applied
        repo = KnowledgeRepository(
            current_config=SystemConfiguration("pid", {"kp": 50.0, "ki": 0.5, "kd": 0.0}),
            safety_case=corpus_files.case("type1"),
            sample_history=deque(maxlen=100),
            active_option_id="opt-1",
        )
        revision = repo.safety_case.revision
        execute_adaptation(decision, repo, now=10.0)
        option = decision.option
        assert option in TYPE1_MODEL.options and option.id == decision.chosen_option
        assert repo.current_config.parameters == option.assignment
        assert repo.active_option_id == option.id
        assert repo.safety_case.revision == revision
        assert decision.applied

    def test_unapplied_decision_is_a_no_op(self):
        repo = _type2_repo()
        decision = plan_type1(
            TYPE1_MODEL, AdaptationTrigger("manual", requested_option_id="nope")
        )
        before = repo.current_config
        execute_adaptation(decision, repo)
        assert repo.current_config == before


class TestFailSafe:
    def test_restores_baseline_and_resets_spi(self):
        repo = _type3_repo()
        repo.active_net = zero_spec([2])
        repo.active_option_id = "candidate-xyz"
        for _ in range(700):
            spi_update(repo.spi_windows[0], 86.0)
        assert spi_breached(repo.spi_windows[0])
        decision = fail_safe(repo, "net-controller", 100.0)
        assert (decision.chosen_option, decision.applied, decision.model_id) == (
            "net-baseline", True, "net-controller")
        assert repo.active_net == _baseline_net()
        assert repo.active_option_id == "net-baseline"
        assert not spi_breached(repo.spi_windows[0])

    def test_records_runtime_observation_evidence(self):
        repo = _type3_repo()
        revision = repo.safety_case.revision
        fail_safe(repo, "net-controller", 100.0)
        assert repo.safety_case.revision == revision + 1
        attached = repo.safety_case.node("Sn-B7").evidence
        assert any(e.startswith("failsafe-") for e in attached)

    def test_idempotent_when_baseline_already_active(self):
        repo = _type3_repo()
        fail_safe(repo, "net-controller", 1.0)
        fail_safe(repo, "net-controller", 2.0)
        assert repo.active_option_id == "net-baseline"
        assert evaluate_validity(repo.safety_case, 2.0, repo) == frozenset()
