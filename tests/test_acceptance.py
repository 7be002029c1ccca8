"""Acceptance suite: one test per verification criterion.

Each test asserts its stated tolerance and prints one line with the measured
numbers; run with ``pytest tests/test_acceptance.py -rA`` to see every line.
"""

import dataclasses
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from rendergov.configspace import (
    RenderingConfiguration,
    enumerate_configurations,
    single_degradation_config,
)
from rendergov.governor import (
    budget_watts,
    select_configuration,
    select_configuration_error_budget,
    temporal_filter,
)
from rendergov.harness import initialize, oracle_table, run
from rendergov.powermodel import (
    coefficients_for_config,
    fit_coefficients,
    predict_power,
    solve_unit_costs,
)
from rendergov.quality import (
    ErrorModel,
    ErrorRatioTable,
    FrameImage,
    estimate_error,
    quality_error,
    ssim,
    update_worst_errors,
)
from rendergov.scenario import load_scenario
from rendergov.simgpu import (
    FramePowers,
    empty_trace,
    exact_power,
    measure_power,
    probe_min_power,
    probe_saturation,
    render_frame,
)
from rendergov.truth import FrameScorer

from conftest import _naive_ssim

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

S_B = RenderingConfiguration((1, 1, 1, 1, 1, 1))
S_A = RenderingConfiguration((0, 2, 1, 1, 2, 2))


@pytest.fixture(scope="module")
def demo(demo_scenario):
    return demo_scenario


@pytest.fixture(scope="module")
def demo_run(demo_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_demo")
    started = time.perf_counter()
    result = run(demo_scenario, out)
    return result, out, time.perf_counter() - started


def test_criterion_01_fit_recovery(demo):
    started = time.perf_counter()
    oracle0 = dataclasses.replace(demo.oracle, noise_sigma=0.0)
    sat = oracle0.saturation

    watts = [measure_power(oracle0, S_B, f, demo.trace) for f in range(30)]
    counts = [demo.trace.primitives_for(demo.roster, S_B, f) for f in range(30)]
    fit = fit_coefficients(sat, watts, counts)
    truth = oracle0.true_coefficients(S_B)
    max_rel = 0.0
    for got, want, ident in zip(fit.coefficients, truth, fit.identified):
        for g, w, ok in zip(got, want, ident):
            if ok and w > 0:
                max_rel = max(max_rel, abs(g - w) / w)
    assert max_rel <= 1e-6

    oracle1 = dataclasses.replace(demo.oracle, noise_sigma=0.01)
    noisy = [measure_power(oracle1, S_B, f, demo.trace) for f in range(30)]
    fit_noisy = fit_coefficients(sat, noisy, counts)
    held_out = []
    for f in range(30, 130):
        prims = demo.trace.primitives_for(demo.roster, S_B, f)
        predicted = predict_power(sat, fit_noisy.coefficients, prims)
        held_out.append(abs(predicted - exact_power(oracle0, S_B, f, demo.trace)))
    held_out_pct = float(np.mean(held_out)) / sat.span
    assert held_out_pct <= 0.02

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 01 fit recovery: PASS (sigma=0 max rel {max_rel:.2e} <= 1e-6; "
        f"sigma=1% held-out {100 * held_out_pct:.2f}% <= 2%; {elapsed:.2f}s < 1s)"
    )


def test_criterion_02_coefficient_reuse(demo):
    started = time.perf_counter()
    oracle = dataclasses.replace(demo.oracle, noise_sigma=0.0, cost_distortion=1.15)
    trace = dataclasses.replace(demo.trace, frame_count=500, events=())
    sat = oracle.saturation

    watts = [measure_power(oracle, S_B, f, trace) for f in range(30)]
    counts = [trace.primitives_for(demo.roster, S_B, f) for f in range(30)]
    fit = fit_coefficients(sat, watts, counts)
    costs = solve_unit_costs(fit.coefficients, demo.cost_table, S_B, demo.roster, fit.identified)
    coeffs_a = coefficients_for_config(
        costs.unit_costs, demo.cost_table, S_A, fit.coefficients, demo.roster
    )
    devs = []
    for f in range(500):
        prims = trace.primitives_for(demo.roster, S_A, f)
        predicted = predict_power(sat, coeffs_a, prims)
        devs.append(abs(predicted - exact_power(oracle, S_A, f, trace)))
    mean_pct = float(np.mean(devs)) / sat.span
    assert mean_pct <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 02 coefficient reuse: PASS (mean dev {100 * mean_pct:.2f}% of span <= 5% "
        f"across 500 frames; {elapsed:.2f}s < 5s)"
    )


def test_criterion_03_ssim_correctness():
    rng = np.random.default_rng(20040607)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, (32, 32))
        b = np.clip(a + rng.normal(0.0, 0.08, (32, 32)), 0.0, 1.0)
        worst = max(worst, abs(ssim(FrameImage(a), FrameImage(b)) - _naive_ssim(a, b)))
    assert worst <= 1e-9

    const = FrameImage(np.full((16, 16), 0.37))
    rand = FrameImage(rng.uniform(0.0, 1.0, (24, 24)))
    assert ssim(const, const) == 1.0
    assert ssim(rand, rand) == 1.0
    print(f"ACCEPTANCE 03 SSIM correctness: PASS (max |module - naive| {worst:.2e} <= 1e-9; "
          "self-similarity exactly 1.0)")


def test_criterion_04_error_estimator_fidelity(demo):
    started = time.perf_counter()
    init = initialize(demo)
    roster = demo.roster
    budget = budget_watts(demo.governor, init.power_model.saturation)
    frames = [100, 350, 600, 850, 1100]

    rhos, agreements = [], 0
    for frame in frames:
        table = oracle_table(demo, frame)
        reference = render_frame(demo.synthesizer, roster.best_config(), frame)
        backgrounds = {
            i: render_frame(
                demo.synthesizer,
                single_degradation_config(roster, i, p.level_count - 1),
                frame,
            )
            for i, p in enumerate(roster.passes)
        }
        errors = {i: quality_error(reference, bg) for i, bg in backgrounds.items()}
        em = update_worst_errors(init.error_model, errors, frame)
        estimates = [estimate_error(em, cfg) for cfg, _, _ in table]
        truths = [err for _, _, err in table]
        rho = float(spearmanr(estimates, truths).statistic)
        rhos.append(rho)
        assert rho >= 0.9

        feasible = [
            (cfg, true_err, est)
            for (cfg, power, true_err), est in zip(table, estimates)
            if power < budget
        ]
        brute_err = min(feasible, key=lambda r: r[1])[1]
        est_pick_err = min(feasible, key=lambda r: r[2])[1]
        if brute_err == 0.0:
            agreements += est_pick_err == 0.0
        else:
            agreements += abs(est_pick_err - brute_err) / brute_err <= 0.2
    assert agreements >= 4
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 04 error estimator: PASS (min Spearman {min(rhos):.4f} >= 0.9; "
        f"argmin agreement {agreements}/5 >= 4; {elapsed:.1f}s < 60s)"
    )


def test_criterion_05_selection_oracle_equivalence():
    from rendergov.configspace import PassDescriptor, PassRoster

    started = time.perf_counter()
    rng = np.random.default_rng(20180427)
    infeasible_seen = 0
    for trial in range(1000):
        shape = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        roster = PassRoster(
            tuple(
                PassDescriptor(f"p{i}", n, uses_fragments=True) for i, n in enumerate(shape)
            )
        )
        configs = enumerate_configurations(roster)
        # coarse value grids so ties are common
        predictions = {cfg: float(rng.integers(0, 7)) * 10.0 for cfg in configs}
        ratios = ErrorRatioTable(
            tuple(
                tuple([0.0] + [(l + 1) / p.level_count for l in range(p.level_count - 1)])
                for p in roster.passes
            )
        )
        e_worst = tuple(float(rng.integers(0, 5)) * 0.05 for _ in roster.passes)
        em = ErrorModel(e_worst, ratios, tuple(0 for _ in roster.passes))
        budget = float(rng.integers(-1, 8)) * 10.0 + 5.0
        e_budget = float(rng.integers(0, 6)) * 0.05

        feasible = [
            (estimate_error(em, cfg), p, i, cfg)
            for i, (cfg, p) in enumerate(predictions.items())
            if p < budget
        ]
        if feasible:
            expect_cfg, expect_flag = min(feasible)[3], False
        else:
            expect_cfg = min(
                (p, i, cfg) for i, (cfg, p) in enumerate(predictions.items())
            )[2]
            expect_flag = True
            infeasible_seen += 1
        got = select_configuration(roster, np.array(list(predictions.values())), em, budget)
        assert got.config == expect_cfg and got.infeasible == expect_flag, trial

        feasible_e = [
            (p, estimate_error(em, cfg), i, cfg)
            for i, (cfg, p) in enumerate(predictions.items())
            if estimate_error(em, cfg) < e_budget
        ]
        if feasible_e:
            expect_cfg_e, expect_flag_e = min(feasible_e)[3], False
        else:
            expect_cfg_e = roster.best_config()
            expect_flag_e = True
        got_e = select_configuration_error_budget(
            roster, np.array(list(predictions.values())), em, e_budget
        )
        assert got_e.config == expect_cfg_e and got_e.infeasible == expect_flag_e, trial

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert infeasible_seen > 0
    print(
        f"ACCEPTANCE 05 selection oracle equivalence: PASS (1000 trials, both modes, "
        f"{infeasible_seen} infeasible cases; {elapsed:.2f}s < 5s)"
    )


def test_criterion_06_temporal_filter():
    a = RenderingConfiguration((0, 2))
    b = RenderingConfiguration((2, 0))
    assert temporal_filter(a, b, 0.0, 2.0) == a
    assert temporal_filter(a, b, 2.0, 2.0) == b
    assert tuple(temporal_filter(a, b, 1.0, 2.0)) == (1, 1)

    old = RenderingConfiguration((0, 4, 1, 3))
    new = RenderingConfiguration((4, 0, 3, 3))
    prev = list(old)
    for step in range(1001):
        cur = list(temporal_filter(old, new, step / 1000.0, 1.0))
        for i, (p, c) in enumerate(zip(prev, cur)):
            if new[i] >= old[i]:
                assert c >= p
            else:
                assert c <= p
            assert min(old[i], new[i]) <= c <= max(old[i], new[i])
        prev = cur
    assert tuple(prev) == tuple(new)
    print("ACCEPTANCE 06 temporal filter: PASS (endpoints exact; dense sweep monotone; "
          "midpoint (0,2)/(2,0) -> (1,1))")


def test_criterion_07_state_machine(regime_scenario):
    from rendergov.governor import Governor

    init = initialize(regime_scenario)
    gov = Governor(
        roster=regime_scenario.roster,
        config=regime_scenario.governor,
        power_model=init.power_model,
        error_model=init.error_model,
        measure=lambda c, frames: (
            [measure_power(regime_scenario.oracle, c, f, regime_scenario.trace) for f in frames],
            [
                regime_scenario.trace.primitives_for(regime_scenario.roster, c, f)
                for f in frames
            ],
        ),
        counts=FramePowers(
            regime_scenario.oracle, regime_scenario.trace, range(regime_scenario.trace.frame_count)
        ).table,
        scorer=partial(FrameScorer, regime_scenario.synthesizer),
        initial_config=regime_scenario.initial_config,
    )
    events = []
    for frame in range(regime_scenario.trace.frame_count):
        record = gov.tick(frame).record
        for kind in ("selection", "refit", "reuse"):
            if getattr(record, kind):
                events.append(kind)
    # startup fit, then first transition: select -> filter -> check(fail) -> fit -> reuse
    assert events[:4] == ["reuse", "selection", "refit", "reuse"]
    # second transition: select -> filter -> check passes, no fit
    assert events[4] == "selection"
    assert "refit" not in events[5:]
    assert gov.refit_count == 1
    print("ACCEPTANCE 07 state machine: PASS (select->filter->check->fit->reuse, then "
          f"select->filter->check with no fit; exactly {gov.refit_count} refit)")


def test_criterion_08_budget_adherence(demo, demo_run):
    result, _, elapsed = demo_run
    s = result.summary
    sigma_watts = demo.oracle.noise_sigma * (s["p_max_probed"] - s["p_min_probed"])
    assert s["governed_mean_power"] < s["budget_watts"] + sigma_watts
    assert s["governed_mean_error"] < s["replay_worst_mean_error"]
    assert s["governed_mean_power"] < s["replay_best_mean_power"]
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 08 budget adherence: PASS (governed {s['governed_mean_power']:.2f} W < "
        f"budget {s['budget_watts']:.2f} + sigma {sigma_watts:.2f}; governed error "
        f"{s['governed_mean_error']:.4f} < worst replay {s['replay_worst_mean_error']:.4f}; "
        f"governed power < best replay {s['replay_best_mean_power']:.2f}; {elapsed:.1f}s < 120s)"
    )


def test_criterion_09_probing(demo):
    oracle = dataclasses.replace(demo.oracle, noise_sigma=0.0)
    p_min = probe_min_power(oracle, empty_trace(demo.roster, 30), 30)
    probe = probe_saturation(oracle, p_min, demo.probe)
    p_max_err = abs(probe.saturation.p_max - oracle.saturation.p_max) / oracle.saturation.p_max
    assert p_max_err <= 0.01
    worst_ratio = 1.0
    for flags, got, true in zip(probe.flags, probe.saturation.per_pass, oracle.saturation.per_pass):
        for flag, g, t in zip(flags, got, true):
            if flag == "ok":
                ratio = g / t
                assert 0.5 <= ratio <= 2.0
                worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
    total_frames = probe.frames_used + 30
    assert total_frames <= 5400
    print(
        f"ACCEPTANCE 09 probing: PASS (P_M err {100 * p_max_err:.3f}% <= 1%; worst count ratio "
        f"x{worst_ratio:.2f} <= x2; {total_frames} frames <= 5400)"
    )


def test_criterion_10_determinism(demo_scenario, demo_run, tmp_path_factory):
    names = []
    for name in ("mini.json", "regime_change.json"):
        scenario = load_scenario(SCENARIO_DIR / name)
        out_a = tmp_path_factory.mktemp(f"det_{scenario.name}_a")
        out_b = tmp_path_factory.mktemp(f"det_{scenario.name}_b")
        a = run(scenario, out_a)
        b = run(scenario, out_b)
        assert a.log_path.read_bytes() == b.log_path.read_bytes()
        assert a.summary_path.read_bytes() == b.summary_path.read_bytes()
        names.append(scenario.name)

    first, _, _ = demo_run
    out_c = tmp_path_factory.mktemp("det_demo_b")
    again = run(demo_scenario, out_c)
    assert first.log_path.read_bytes() == again.log_path.read_bytes()
    names.append(demo_scenario.name)
    print(f"ACCEPTANCE 10 determinism: PASS (byte-identical logs for {', '.join(names)})")
