"""Cross-configuration prediction quality: reuse vs direct per-config fits,
and generic-sweep fitting against ground truth."""

import dataclasses

import numpy as np

from rendergov.configspace import RenderingConfiguration, enumerate_configurations
from rendergov.harness import _generic_sweep_samples, initialize
from rendergov.powermodel import (
    coefficients_for_config,
    fit_coefficients,
    predict_all,
    predict_power,
    solve_unit_costs,
)
from rendergov.simgpu import FramePowers, exact_power, measure_power


def test_reuse_predictions_close_to_per_config_direct_fits(mini_scenario):
    """Coefficients fitted once and spread through the unit-cost table stay
    within 5% of span of fitting every configuration independently."""
    sc = mini_scenario
    oracle = dataclasses.replace(sc.oracle, noise_sigma=0.0, cost_distortion=1.15)
    sat = oracle.saturation
    eval_frames = range(60, 90)

    def window(config):
        watts = [measure_power(oracle, config, f, sc.trace) for f in range(30)]
        counts = [sc.trace.primitives_for(sc.roster, config, f) for f in range(30)]
        return watts, counts

    anchor = RenderingConfiguration((0, 1, 0))  # mid config: all passes live
    fit = fit_coefficients(sat, *window(anchor))
    costs = solve_unit_costs(fit.coefficients, sc.cost_table, anchor, sc.roster, fit.identified)

    devs = []
    for config in enumerate_configurations(sc.roster):
        direct = fit_coefficients(sat, *window(config))
        reused = coefficients_for_config(
            costs.unit_costs, sc.cost_table, config, fit.coefficients, sc.roster
        )
        for f in eval_frames:
            prims = sc.trace.primitives_for(sc.roster, config, f)
            p_direct = predict_power(sat, direct.coefficients, prims)
            p_reused = predict_power(sat, reused, prims)
            devs.append(abs(p_reused - p_direct))
    assert float(np.mean(devs)) <= 0.05 * sat.span


def test_generic_fit_tracks_ground_truth_across_space(demo_scenario):
    sc = demo_scenario
    init = initialize(sc)
    sat = init.power_model.saturation
    sweep = _generic_sweep_samples(sc, sat.per_pass)
    fit = fit_coefficients(sat, *sweep)
    costs = solve_unit_costs(
        fit.coefficients, sc.cost_table, sc.roster.best_config(), sc.roster, fit.identified
    )
    model = dataclasses.replace(
        init.power_model,
        coefficients=fit.coefficients,
        unit_costs=costs.unit_costs,
        fitted_config=sc.roster.best_config(),
    )
    devs = []
    for frame in (50, 500, 1000):
        preds = predict_all(model, FramePowers(sc.oracle, sc.trace, [frame]).table(0))
        for cfg, p in zip(enumerate_configurations(sc.roster), preds):
            devs.append(abs(p - exact_power(sc.oracle, cfg, frame, sc.trace)))
    assert float(np.mean(devs)) <= 0.10 * sat.span
