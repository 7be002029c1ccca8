import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rendergov import governor
from rendergov.configspace import (
    PassDescriptor,
    PassRoster,
    RenderingConfiguration,
    enumerate_configurations,
    single_degradation_config,
)
from rendergov.governor import (
    Governor,
    GovernorConfig,
    PHASE_FILTERING,
    PHASE_SELECTING,
    accuracy_check,
    background_plan,
    background_slots,
    budget_watts,
    pass_slot_config,
    select_configuration,
    select_configuration_error_budget,
    temporal_filter,
)
from rendergov.harness import initialize
from rendergov.powermodel import (
    CostTable,
    PowerModel,
    SaturationConstants,
    UnitCosts,
    fit_coefficients,
    predict_power,
)
from rendergov.quality import ErrorModel, ErrorRatioTable, estimate_error, quality_error
from rendergov.simgpu import FramePowers, measure_power, render_frame
from rendergov.truth import FrameScorer

SAT = SaturationConstants(10.0, 100.0, ((100.0, 2e5, 4e5),))


def test_budget_watts_examples():
    sat = SAT
    assert budget_watts(GovernorConfig(budget_percent=0.4), sat) == pytest.approx(46.0)
    assert budget_watts(GovernorConfig(budget_percent=0.0), sat) == 10.0
    assert budget_watts(GovernorConfig(budget_percent=1.0), sat) == 100.0


def _roster(level_counts):
    return PassRoster(
        tuple(PassDescriptor(f"p{i}", n, uses_fragments=True) for i, n in enumerate(level_counts))
    )


def _error_model(roster, e_worst=None):
    ratios = []
    for p in roster.passes:
        row = [0.0]
        for lvl in range(1, p.level_count):
            row.append(lvl / (p.level_count - 1))
        ratios.append(tuple(row))
    e = e_worst or tuple(0.1 * (i + 1) for i in range(roster.size))
    return ErrorModel(tuple(e), ErrorRatioTable(tuple(ratios)), tuple(0 for _ in e))


def brute_force_power_budget(predictions, error_model, budget):
    candidates = [
        (estimate_error(error_model, cfg), p, i, cfg)
        for i, (cfg, p) in enumerate(predictions.items())
        if p < budget
    ]
    if candidates:
        err, p, _, cfg = min(candidates)
        return cfg, False
    p, _, cfg = min((p, i, cfg) for i, (cfg, p) in enumerate(predictions.items()))
    return cfg, True


def brute_force_error_budget(predictions, error_model, e_bgt):
    candidates = [
        (p, estimate_error(error_model, cfg), i, cfg)
        for i, (cfg, p) in enumerate(predictions.items())
        if estimate_error(error_model, cfg) < e_bgt
    ]
    if candidates:
        return min(candidates)[3], False
    return RenderingConfiguration(tuple(0 for _ in next(iter(predictions)))), True


def test_select_generous_budget_returns_best_quality():
    roster = _roster([2, 2])
    em = _error_model(roster)
    preds = {cfg: 20.0 + 5.0 * sum(cfg) for cfg in enumerate_configurations(roster)}
    res = select_configuration(roster, np.array(list(preds.values())), em, budget=1000.0)
    assert tuple(res.config) == (0, 0)
    assert not res.infeasible


def test_select_impossible_budget_falls_back_to_min_power():
    roster = _roster([2, 2])
    em = _error_model(roster)
    preds = {cfg: 50.0 - 5.0 * sum(cfg) for cfg in enumerate_configurations(roster)}
    res = select_configuration(roster, np.array(list(preds.values())), em, budget=1.0)
    assert res.infeasible
    assert tuple(res.config) == (1, 1)


def test_select_matches_brute_force_hand_case():
    roster = _roster([2, 2])
    em = _error_model(roster, e_worst=(0.2, 0.05))
    preds = {
        RenderingConfiguration((0, 0)): 50.0,
        RenderingConfiguration((0, 1)): 40.0,
        RenderingConfiguration((1, 0)): 35.0,
        RenderingConfiguration((1, 1)): 20.0,
    }
    res = select_configuration(roster, np.array(list(preds.values())), em, budget=45.0)
    want, flag = brute_force_power_budget(preds, em, 45.0)
    assert res.config == want and res.infeasible == flag
    assert tuple(res.config) == (0, 1)


def test_select_rejects_empty_predictions():
    """Empty and wrong-length prediction arrays are both rejected."""
    roster = _roster([2])
    for wrong in (np.array([]), np.array([10.0, 20.0, 30.0])):
        with pytest.raises(ValueError):
            select_configuration(roster, wrong, _error_model(roster), 10.0)
        with pytest.raises(ValueError):
            select_configuration_error_budget(roster, wrong, _error_model(roster), 0.1)


@given(st.data())
@settings(max_examples=300, deadline=None)
@seed(20180427)
def test_selection_equals_brute_force(data):
    shape = data.draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
    )
    roster = _roster(shape)
    configs = enumerate_configurations(roster)
    if data.draw(st.booleans()):
        # coarse grids force plenty of ties
        preds = {
            cfg: data.draw(st.integers(min_value=0, max_value=6)) * 10.0 for cfg in configs
        }
        e_worst = tuple(
            data.draw(st.integers(min_value=0, max_value=4)) * 0.05 for _ in range(roster.size)
        )
        em = _error_model(roster, e_worst=e_worst)
        budget = data.draw(st.integers(min_value=-1, max_value=7)) * 10.0 + 5.0
        e_bgt = data.draw(st.integers(min_value=0, max_value=5)) * 0.05
    else:
        # real-valued powers with budgets equal to one of the values exercise
        # the strict <; one shared e_worst forces error ties between passes
        # with equal level counts
        preds = {cfg: data.draw(st.floats(min_value=10.0, max_value=100.0)) for cfg in configs}
        em = _error_model(roster, e_worst=(data.draw(st.floats(0.0, 0.5)),) * roster.size)
        budget = data.draw(st.sampled_from(list(preds.values())))
        e_bgt = data.draw(st.sampled_from([estimate_error(em, cfg) for cfg in configs]))
    power = np.array(list(preds.values()))
    res = select_configuration(roster, power, em, budget)
    want, flag = brute_force_power_budget(preds, em, budget)
    assert res.config == want
    assert res.infeasible == flag

    res2 = select_configuration_error_budget(roster, power, em, e_bgt)
    want2, flag2 = brute_force_error_budget(preds, em, e_bgt)
    assert res2.config == want2
    assert res2.infeasible == flag2


def test_error_budget_all_feasible_returns_min_power():
    roster = _roster([2, 2])
    em = _error_model(roster, e_worst=(0.01, 0.01))
    preds = {cfg: 50.0 - 5.0 * sum(cfg) for cfg in enumerate_configurations(roster)}
    res = select_configuration_error_budget(
        roster, np.array(list(preds.values())), em, e_bgt := 10.0
    )
    assert tuple(res.config) == (1, 1)
    assert not res.infeasible


def test_error_budget_zero_budget_flags_best_config():
    roster = _roster([2, 2])
    em = _error_model(roster)
    preds = {cfg: 20.0 for cfg in enumerate_configurations(roster)}
    res = select_configuration_error_budget(roster, np.array(list(preds.values())), em, 0.0)
    assert res.infeasible
    assert tuple(res.config) == (0, 0)


def test_temporal_filter_endpoints_exact():
    a = RenderingConfiguration((0, 2, 1))
    b = RenderingConfiguration((2, 0, 1))
    assert temporal_filter(a, b, 0.0, 2.0) == a
    assert temporal_filter(a, b, 2.0, 2.0) == b


def test_temporal_filter_midpoint_example():
    a = RenderingConfiguration((0, 2))
    b = RenderingConfiguration((2, 0))
    assert tuple(temporal_filter(a, b, 1.0, 2.0)) == (1, 1)


def test_temporal_filter_rejects_out_of_range_t():
    a = RenderingConfiguration((0,))
    b = RenderingConfiguration((1,))
    with pytest.raises(ValueError):
        temporal_filter(a, b, -0.1, 2.0)
    with pytest.raises(ValueError):
        temporal_filter(a, b, 2.1, 2.0)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6),
)
@seed(99)
def test_temporal_filter_componentwise_monotone(old, new):
    n = min(len(old), len(new))
    a = RenderingConfiguration(tuple(old[:n]))
    b = RenderingConfiguration(tuple(new[:n]))
    prev = list(a)
    for step in range(101):
        t = step / 100.0
        cur = list(temporal_filter(a, b, t, 1.0))
        for i in range(n):
            lo, hi = min(a[i], b[i]), max(a[i], b[i])
            assert lo <= cur[i] <= hi
            if b[i] >= a[i]:
                assert cur[i] >= prev[i]
            else:
                assert cur[i] <= prev[i]
        prev = cur
    assert tuple(prev) == tuple(b)


def _one_pass_model():
    roster = PassRoster(
        (PassDescriptor("p0", 2, uses_batches=True, uses_vertices=True, uses_fragments=True),)
    )
    table = CostTable(ins_v=(300.0,), ins_f=((400.0, 100.0),), tex_f=((10.0, 2.0),))
    coeffs = np.array([(0.5, 0.6, 0.9)])
    return PowerModel(
        roster=roster,
        saturation=SAT,
        coefficients=coeffs,
        unit_costs=UnitCosts(0.002, 0.01),
        cost_table=table,
        fitted_config=roster.best_config(),
    )


def _check_window(model, offset=0.0):
    """Ten frames' counts and their exact predictions plus ``offset``."""
    counts = np.array([((10.0 + i, 1e4 * i, 2e4),) for i in range(10)])
    watts = [predict_power(SAT, model.coefficients, prims) + offset for prims in counts]
    return np.array(watts), counts


def test_accuracy_check_exact_predictions_do_not_refit():
    model = _one_pass_model()
    watts, counts = _check_window(model)
    assert accuracy_check(model, watts, counts, 0.10, model.fitted_config) is False


def test_accuracy_check_constant_offset_triggers_refit():
    model = _one_pass_model()
    watts, counts = _check_window(model, 0.2 * SAT.span)
    assert accuracy_check(model, watts, counts, 0.10, model.fitted_config) is True


def test_accuracy_check_boundary_is_strict():
    model = _one_pass_model()
    prims = ((10.0, 1e4, 2e4),)
    p = predict_power(SAT, model.coefficients, prims)
    watts, counts = np.full(10, p + 0.10 * SAT.span), np.array([prims] * 10)
    assert accuracy_check(model, watts, counts, 0.10, model.fitted_config) is False


def test_accuracy_check_rejects_empty_window():
    model = _one_pass_model()
    with pytest.raises(ValueError):
        accuracy_check(model, np.empty(0), np.empty((0, 1, 3)), 0.1, model.fitted_config)


def _rejected_window(kind, model):
    watts, counts = _check_window(model)
    if kind == "pass count":
        return watts, np.concatenate([counts, counts], axis=1)
    if kind == "frame count":
        return watts[:-1], counts
    if kind == "zero reading":
        watts[3] = 0.0
    elif kind == "negative reading":
        watts[3] = -1.0
    elif kind == "negative count":
        counts[5, 0, 1] = -1e-9
    elif kind == "empty":
        return watts[:0], counts[:0]
    return watts, counts


@pytest.mark.parametrize(
    "kind, fit_error, check_error",
    [
        ("pass count", "disagree on shape", "disagree on shape"),
        ("frame count", "disagree on shape", "disagree on shape"),
        ("zero reading", "must be positive", "must be positive"),
        ("negative reading", "must be positive", "must be positive"),
        ("negative count", "must be nonnegative", "must be nonnegative"),
        ("empty", "need at least 3 samples", "empty accuracy-check window"),
    ],
)
def test_fit_and_check_reject_a_malformed_window(kind, fit_error, check_error):
    model = _one_pass_model()
    watts, counts = _rejected_window(kind, model)
    with pytest.raises(ValueError, match=fit_error):
        fit_coefficients(SAT, watts, counts)
    with pytest.raises(ValueError, match=check_error):
        accuracy_check(model, watts, counts, 0.1, model.fitted_config)
    # The same window, well formed, passes both.
    watts, counts = _check_window(model)
    fit_coefficients(SAT, watts, counts)
    accuracy_check(model, watts, counts, 0.1, model.fitted_config)


def _governed_records(scenario, frames=None, scorer=None):
    init = initialize(scenario)
    oracle, trace = scenario.oracle, scenario.trace
    gov = Governor(
        roster=scenario.roster,
        config=scenario.governor,
        power_model=init.power_model,
        error_model=init.error_model,
        measure=lambda c, frames: (
            [measure_power(oracle, c, f, trace) for f in frames],
            [trace.primitives_for(scenario.roster, c, f) for f in frames],
        ),
        counts=FramePowers(oracle, trace, range(trace.frame_count)).table,
        scorer=scorer or partial(FrameScorer, scenario.synthesizer),
        initial_config=scenario.initial_config,
    )
    records = []
    for frame in range(frames or scenario.trace.frame_count):
        records.append(gov.tick(frame).record)
    return gov, records


@pytest.mark.parametrize("name", ["mini_scenario", "regime_scenario"])
def test_meter_is_read_only_for_window_samples(name, request, monkeypatch):
    """The tick that fills an accuracy-check or fitting window reads the
    meter, with s_eff's counts, once, for exactly that window's consecutive
    frames; steady and filtering ticks read neither, and only a selection
    asks for a count table, of its own frame. The check and the fit get
    those readings, with s_eff's counts."""
    scenario = request.getfixturevalue(name)
    roster, oracle, trace = scenario.roster, scenario.oracle, scenario.trace
    at = FramePowers(oracle, trace, range(trace.frame_count))
    ticking = []
    measure_calls, count_calls, windows = {}, {}, {}

    def measure(config, frames):
        watts = [measure_power(oracle, config, f, trace) for f in frames]
        assert ticking[-1] not in measure_calls
        measure_calls[ticking[-1]] = (list(frames), config, watts)
        return watts, [trace.primitives_for(roster, config, f) for f in frames]

    def counts(frame):
        count_calls.setdefault(ticking[-1], []).append(frame)
        return at.table(frame)

    def recorded(name, fn):
        # accuracy_check(model, watts, counts, ...), fit_coefficients(saturation, watts, counts)
        def wrapper(*args):
            windows[ticking[-1]] = (name, args[1], args[2])
            return fn(*args)

        return wrapper

    monkeypatch.setattr(governor, "accuracy_check", recorded("check", governor.accuracy_check))
    monkeypatch.setattr(governor, "fit_coefficients", recorded("fit", governor.fit_coefficients))
    init = initialize(scenario)
    gov = Governor(
        roster=roster,
        config=scenario.governor,
        power_model=init.power_model,
        error_model=init.error_model,
        measure=measure,
        counts=counts,
        scorer=partial(FrameScorer, scenario.synthesizer),
        initial_config=scenario.initial_config,
    )
    phases, selections, s_effs = {}, [], {}
    for frame in range(trace.frame_count):
        ticking.append(frame)
        tick = gov.tick(frame)
        s_effs[frame] = tick.s_eff
        phases.setdefault(tick.record.phase, set()).add(frame)
        if tick.record.selection:
            selections.append(frame)

    sizes = {
        "check": scenario.governor.accuracy_check_window,
        "fit": scenario.governor.fitting_window,
    }
    assert set(measure_calls) == set(windows)
    sampled = []
    for tick, (frames, config, watts) in measure_calls.items():
        kind, window_watts, window_counts = windows[tick]
        assert frames == list(range(tick + 1 - sizes[kind], tick + 1))
        assert all(s_effs[f] == config for f in frames)
        assert np.asarray(window_watts, float).tobytes() == np.array(watts).tobytes()
        expected = np.array([trace.primitives_for(roster, config, f) for f in frames])
        assert np.asarray(window_counts, float).tobytes() == expected.tobytes()
        sampled += frames
    # Every count query is a selection's, of its own frame.
    assert selections and count_calls == {frame: [frame] for frame in selections}
    assert sorted(sampled) == sorted(phases["check"] | phases["fitting"])
    for phase in ("steady", "selecting", "filtering"):
        assert phases[phase] and not phases[phase] & set(sampled)
    # The startup fit and every refit filled a whole fitting window.
    assert scenario.governor.initial_fit
    assert len(phases["fitting"]) == scenario.governor.fitting_window * (1 + gov.refit_count)
    assert phases["check"]


def test_constant_scene_generous_budget_converges_to_best(mini_scenario):
    sc = mini_scenario
    curves = tuple(
        tuple(dataclasses.replace(c, amp=0.0, jitter_amp=min(c.jitter_amp, 0.15)) for c in triple)
        for triple in sc.trace.curves
    )
    scenario = dataclasses.replace(
        sc,
        trace=dataclasses.replace(sc.trace, curves=curves),
        governor=dataclasses.replace(sc.governor, budget_percent=1.0),
    )
    gov, records = _governed_records(scenario)
    # The glide lasts filter_interval seconds of frames.
    filter_frames = math.ceil(scenario.governor.filter_interval * scenario.governor.fps)
    first_cycle = scenario.governor.selection_period + filter_frames
    for r in records:
        if r.frame > first_cycle + scenario.governor.accuracy_check_window:
            assert tuple(r.s_eff) == (0, 0, 0)
    assert gov.refit_count == 0


def test_selection_gap_is_at_least_selection_period(regime_scenario):
    gov, records = _governed_records(regime_scenario)
    sel_frames = [r.frame for r in records if r.selection]
    assert len(sel_frames) >= 2
    gaps = [b - a for a, b in zip(sel_frames, sel_frames[1:])]
    assert all(g >= regime_scenario.governor.selection_period for g in gaps)


def test_at_most_one_background_request_per_error_frequency(mini_scenario):
    gov, records = _governed_records(mini_scenario)
    freq = mini_scenario.governor.error_frequency
    requests = [r.frame for r in records if r.bg_request]
    assert len(requests) <= mini_scenario.trace.frame_count // freq + 1
    for a, b in zip(requests, requests[1:]):
        assert b - a >= freq


def test_filtering_steps_are_componentwise_monotone(regime_scenario):
    gov, records = _governed_records(regime_scenario)
    run = []
    for r in records:
        if r.phase in (PHASE_SELECTING, PHASE_FILTERING):
            run.append(tuple(r.s_eff))
        elif run:
            run.append(tuple(r.s_eff))
            for i in range(len(run[0])):
                steps = [cfg[i] for cfg in run]
                assert steps == sorted(steps) or steps == sorted(steps, reverse=True)
            run = []


def test_fig8_event_sequence(regime_scenario):
    gov, records = _governed_records(regime_scenario)
    events = []
    for r in records:
        if r.selection:
            events.append(("select", r.frame))
        if r.refit:
            events.append(("refit", r.frame))
        if r.reuse:
            events.append(("reuse", r.frame))
    kinds = [k for k, _ in events]
    # startup fit lands first, then: select -> (filter) -> check fails -> refit -> reuse
    assert kinds[0] == "reuse"
    assert kinds[1] == "select"
    assert kinds[2] == "refit"
    assert kinds[3] == "reuse"
    # second transition: select with no refit afterwards
    assert kinds[4] == "select"
    assert "refit" not in kinds[5:]
    assert gov.refit_count == 1


def test_infeasible_selection_is_flagged_and_logged(mini_scenario):
    scenario = dataclasses.replace(
        mini_scenario,
        governor=dataclasses.replace(mini_scenario.governor, budget_percent=0.0),
    )
    gov, records = _governed_records(scenario)
    assert gov.infeasible_count >= 1
    assert any(r.infeasible for r in records)


def test_background_schedule_bounds_staleness(demo_scenario):
    """Reference plus six worst-level renders at one render per ten frames:
    every error entry is at most 70 frames old once the first cycle lands."""
    gov, records = _governed_records(demo_scenario, frames=90)
    freq = demo_scenario.governor.error_frequency
    slots = 1 + demo_scenario.roster.size
    # last worst-level render of the first cycle is issued at (slots-1)*freq
    # and its error lands after the SSIM latency
    completion = (slots - 1) * freq + demo_scenario.governor.ssim_latency_frames
    record = records[completion]
    assert all(age >= 0 for age in record.staleness)
    assert max(record.staleness) <= slots * freq


@pytest.mark.parametrize(
    "name, frames, last",
    [
        ("mini_scenario", None, None),
        ("regime_scenario", None, None),
        ("demo_scenario", None, None),
        ("lattice_scenario", None, None),
        # A 9-slot cycle every 90 frames, cut after two of its pass slots,
        # and right after its reference, which is then not planned.
        ("lattice_scenario", 203, (180, 2)),
        ("lattice_scenario", 181, (90, 8)),
    ],
)
def test_background_plan_lists_the_governors_requests(name, frames, last, request):
    """Ticked over frames 0 … N − 1, the governor asks its scorer for exactly
    the (reference frame, configuration) scores ``background_plan`` lists, in
    its order. ``run`` scores the plan ahead in its worker; a plan that
    drifted from the governor would send those SSIMs back into the ticks."""
    scenario = request.getfixturevalue(name)
    if frames is not None:
        trace = dataclasses.replace(scenario.trace, frame_count=frames)
        scenario = dataclasses.replace(scenario, trace=trace)
    roster = scenario.roster
    requested = []

    def scorer(frame):
        def score(configs):
            requested.extend((frame, config) for config in configs)
            return [0.01] * len(configs)

        return score

    _governed_records(scenario, scorer=scorer)
    plan = background_plan(roster, scenario.governor, scenario.trace.frame_count)
    assert requested == [(ref, pass_slot_config(roster, p)) for ref, passes in plan for p in passes]
    assert len(plan) > 1
    if last is not None:
        assert len(background_slots(roster)) == 9
        assert (plan[-1][0], len(plan[-1][1])) == last


@pytest.mark.parametrize("name", ["demo_40px_scenario", "lattice_scenario"])
def test_error_updates_equal_full_frame_scores(name, request):
    """Each landed worst-level error is ``quality_error`` of two full-frame
    renders of the cycle's reference frame: the all-best configuration and
    that pass at its worst level. At 40 px an SSIM window spans up to three
    passes' bands; the lattice has eight passes."""
    scenario = request.getfixturevalue(name)
    roster, synth = scenario.roster, scenario.synthesizer
    gov, records = _governed_records(scenario)
    updated = set()
    for r in records:
        if r.err_update_pass < 0:
            continue
        slot = r.err_update_pass
        ref = r.frame - r.staleness[slot]
        lmax = roster.passes[slot].level_count - 1
        reference = render_frame(synth, roster.best_config(), ref)
        worst = render_frame(synth, single_degradation_config(roster, slot, lmax), ref)
        assert r.err_update_value == quality_error(reference, worst), (r.frame, slot)
        updated.add(slot)
    assert updated == {i for i, p in enumerate(roster.passes) if p.level_count > 1}


def test_error_budget_mode_runs_end_to_end(mini_scenario):
    scenario = dataclasses.replace(
        mini_scenario,
        governor=dataclasses.replace(
            mini_scenario.governor, mode="error", error_budget=0.06
        ),
    )
    gov, records = _governed_records(scenario)
    assert gov.selection_count >= 2
    assert gov.infeasible_count == 0
    # the dual objective keeps power low subject to the error cap
    late = [r for r in records if r.frame > 100]
    assert all(tuple(r.s_eff) != (0, 0, 0) for r in late)
