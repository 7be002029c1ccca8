import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from rendergov.configspace import (
    PassDescriptor,
    PassRoster,
    RenderingConfiguration,
    enumerate_configurations,
    single_degradation_config,
)
from rendergov.powermodel import (
    CostTable,
    SaturationConstants,
    UnitCosts,
    config_counts,
    fit_coefficients,
    pass_loads,
    predict_power,
    predict_powers,
)
from rendergov.harness import _generic_sweep_samples
from rendergov import simgpu
from rendergov.quality import quality_error
from rendergov.simgpu import (
    CurveSpec,
    FramePowers,
    HiddenPowerOracle,
    PassDegradation,
    ProbeError,
    SceneTrace,
    TraceEvent,
    _base_pattern,
    _structured_noise,
    empty_trace,
    exact_power,
    exact_power_all,
    measure_power,
    probe_min_power,
    probe_saturation,
    render_band,
    render_frame,
    seed_states,
    seeded_generator,
)


def test_measure_power_empty_frame_zero_noise_is_exactly_p_min(mini_scenario):
    oracle = dataclasses.replace(mini_scenario.oracle, noise_sigma=0.0)
    trace = empty_trace(mini_scenario.roster, 10)
    p = measure_power(oracle, mini_scenario.roster.best_config(), 0, trace)
    assert p == oracle.saturation.p_min


def test_measure_power_deterministic_for_same_seed(mini_scenario):
    cfg = mini_scenario.roster.best_config()
    a = measure_power(mini_scenario.oracle, cfg, 7, mini_scenario.trace)
    b = measure_power(mini_scenario.oracle, cfg, 7, mini_scenario.trace)
    assert a == b


def test_measure_power_rejects_frame_beyond_trace(mini_scenario):
    cfg = mini_scenario.roster.best_config()
    with pytest.raises(ValueError):
        measure_power(
            mini_scenario.oracle, cfg, mini_scenario.trace.frame_count, mini_scenario.trace
        )


def test_closed_loop_fit_reproduces_oracle_exactly(mini_scenario):
    """With zero noise and public costs equal to true costs, fitting on the
    oracle's own samples reproduces its measurements."""
    sc = mini_scenario
    oracle = dataclasses.replace(sc.oracle, noise_sigma=0.0)
    sat = oracle.saturation  # true constants
    cfg = RenderingConfiguration((0, 1, 0))
    watts = [measure_power(oracle, cfg, f, sc.trace) for f in range(30)]
    counts = [sc.trace.primitives_for(sc.roster, cfg, f) for f in range(30)]
    fit = fit_coefficients(sat, watts, counts)
    for f in range(30, 60):
        prims = sc.trace.primitives_for(sc.roster, cfg, f)
        predicted = predict_power(sat, fit.coefficients, prims)
        measured = measure_power(oracle, cfg, f, sc.trace)
        assert abs(predicted - measured) <= 1e-9


def test_cost_event_changes_oracle_power_but_not_primitives(mini_scenario):
    sc = mini_scenario
    oracle = dataclasses.replace(sc.oracle, noise_sigma=0.0)
    trace = dataclasses.replace(
        sc.trace, events=(TraceEvent(frame=10, pass_name="shading", cost_scale=1.5),)
    )
    cfg = sc.roster.best_config()
    assert trace.primitives_for(sc.roster, cfg, 9) == trace.primitives_for(sc.roster, cfg, 9)
    before = exact_power(oracle, cfg, 9, trace)
    after = exact_power(oracle, cfg, 10, trace)
    baseline = exact_power(oracle, cfg, 10, dataclasses.replace(trace, events=()))
    assert after > baseline
    assert before == exact_power(oracle, cfg, 9, dataclasses.replace(trace, events=()))


def test_count_event_scales_primitives(mini_scenario):
    sc = mini_scenario
    trace = dataclasses.replace(
        sc.trace, events=(TraceEvent(frame=5, pass_name="shading", count_scale=2.0),)
    )
    cfg = sc.roster.best_config()
    base = sc.trace.primitives_for(sc.roster, cfg, 5)
    scaled = trace.primitives_for(sc.roster, cfg, 5)
    assert scaled[0][0] == pytest.approx(2.0 * base[0][0])
    assert scaled[1] == base[1]


def test_patterns_equal_full_grid_evaluation():
    # The row/column-vector evaluation must give the same bits as evaluating
    # every term on the full coordinate grid.
    # The pattern gathers two terms per distinct x + 2y and x * y, so the
    # shapes include both orientations of a non-square grid.
    shapes = ((11, 11), (64, 64), (128, 96), (96, 128), (128, 128))
    cases = itertools.product((0, 777, 997, 20180427), (0, 31, 1103, 10**6 + 7), shapes)
    for seed, frame, (h, w) in cases:
        y, x = np.mgrid[0:h, 0:w].astype(float)
        t, s = float(frame), float(seed % 997)
        img = (
            0.5
            + 0.21
            * np.sin(2 * np.pi * (x * 3.1 / w) + 0.9 * math.sin(0.011 * t) + 0.01 * s)
            * np.cos(2 * np.pi * (y * 2.3 / h) + 1.3 * math.sin(0.007 * t))
            + 0.14 * np.sin(2 * np.pi * (x + 2.0 * y) / 23.0 + 0.05 * t + 0.02 * s)
            + 0.08 * np.cos(2 * np.pi * (x * y) / (w * 11.0) + 0.03 * t)
        )
        assert np.clip(img, 0.03, 0.97).tobytes() == _base_pattern(seed, frame, h, w).tobytes()
        phase = 2.0 * np.pi * ((frame * 0.137 + 3 * 0.61) % 1.0)
        noise = np.sin(2 * np.pi * x / 3.7 + phase) * np.cos(2 * np.pi * y / 2.9 + 0.5 * phase)
        assert noise.tobytes() == _structured_noise((h, w), frame, 3).tobytes()


def test_render_best_config_is_bit_identical_to_reference(mini_scenario):
    synth = mini_scenario.synthesizer
    best = mini_scenario.roster.best_config()
    a = render_frame(synth, best, 12)
    b = render_frame(synth, best, 12)
    assert np.array_equal(a.pixels, b.pixels)


def test_render_degradation_confined_to_band(mini_scenario):
    synth = mini_scenario.synthesizer
    roster = mini_scenario.roster
    ref = render_frame(synth, roster.best_config(), 3)
    for i, p in enumerate(roster.passes):
        if p.level_count < 2:
            continue
        cfg = single_degradation_config(roster, i, p.level_count - 1)
        img = render_frame(synth, cfg, 3)
        r0, r1 = synth.band(i)
        outside = np.ones(synth.height, dtype=bool)
        outside[r0:r1] = False
        assert np.array_equal(img.pixels[outside], ref.pixels[outside])
        assert not np.array_equal(img.pixels[r0:r1], ref.pixels[r0:r1])


def test_render_band_level_zero_is_base_rows_and_unknown_levels_raise(mini_scenario):
    synth = mini_scenario.synthesizer
    ref = render_frame(synth, mini_scenario.roster.best_config(), 3)
    for i, p in enumerate(mini_scenario.roster.passes):
        r0, r1 = synth.band(i)
        assert np.array_equal(render_band(synth, i, 0, 3), ref.pixels[r0:r1])
        for level in (-1, p.level_count):
            with pytest.raises(ValueError):
                render_band(synth, i, level, 3)


def test_render_error_monotone_in_level(demo_scenario):
    synth = demo_scenario.synthesizer
    roster = demo_scenario.roster
    ref = render_frame(synth, roster.best_config(), 25)
    for i in range(roster.size):
        errors = []
        for level in range(1, roster.passes[i].level_count):
            img = render_frame(synth, single_degradation_config(roster, i, level), 25)
            errors.append(quality_error(ref, img))
        assert all(e > 0 for e in errors)
        assert errors == sorted(errors)


def test_render_additivity_within_declared_tolerance(demo_scenario):
    sc = demo_scenario
    roster = sc.roster
    frame = 400
    ref = render_frame(sc.synthesizer, roster.best_config(), frame)
    for i, j in itertools.combinations(range(roster.size), 2):
        for li, lj in ((2, 2), (1, 2), (1, 1)):
            e_i = quality_error(
                ref, render_frame(sc.synthesizer, single_degradation_config(roster, i, li), frame)
            )
            e_j = quality_error(
                ref, render_frame(sc.synthesizer, single_degradation_config(roster, j, lj), frame)
            )
            levels = [0] * roster.size
            levels[i], levels[j] = li, lj
            joint = quality_error(
                ref, render_frame(sc.synthesizer, RenderingConfiguration(tuple(levels)), frame)
            )
            assert abs(joint - (e_i + e_j)) <= 0.15 * (e_i + e_j)


def test_degradation_spec_requires_strictly_increasing_strength():
    with pytest.raises(ValueError):
        PassDegradation("noise", (0.0, 0.1, 0.1))
    with pytest.raises(ValueError):
        PassDegradation("noise", (0.1, 0.2))
    with pytest.raises(ValueError):
        PassDegradation("warp", (0.0, 0.1))


def test_probe_min_power_exact_without_noise(mini_scenario):
    oracle = dataclasses.replace(mini_scenario.oracle, noise_sigma=0.0)
    trace = empty_trace(mini_scenario.roster, 30)
    assert probe_min_power(oracle, trace, 30) == oracle.saturation.p_min


def test_probe_min_power_standard_error_bound(mini_scenario):
    sigma = 0.01
    span = mini_scenario.oracle.saturation.span
    bound = 3.0 * sigma * span / np.sqrt(30.0)
    inside = 0
    for s in range(50):
        oracle = dataclasses.replace(mini_scenario.oracle, noise_sigma=sigma, seed=1000 + s)
        trace = empty_trace(mini_scenario.roster, 30)
        est = probe_min_power(oracle, trace, 30)
        inside += abs(est - oracle.saturation.p_min) <= bound
    assert inside >= 47


def test_probe_min_power_rejects_nonempty_trace(mini_scenario):
    with pytest.raises(ValueError):
        probe_min_power(mini_scenario.oracle, mini_scenario.trace, 30)


def test_probe_saturation_recovers_constants_within_doubling(demo_scenario):
    oracle = dataclasses.replace(demo_scenario.oracle, noise_sigma=0.0)
    p_min = probe_min_power(oracle, empty_trace(demo_scenario.roster, 30), 30)
    probe = probe_saturation(oracle, p_min, demo_scenario.probe)
    assert abs(probe.saturation.p_max - oracle.saturation.p_max) <= 0.01 * oracle.saturation.p_max
    for i, (flags, got, true) in enumerate(
        zip(probe.flags, probe.saturation.per_pass, oracle.saturation.per_pass)
    ):
        for flag, g, t in zip(flags, got, true):
            if flag == "ok":
                assert 0.5 <= g / t <= 2.0
    assert probe.frames_used + 30 <= 5400


def _zero_cost_roster_oracle():
    roster = PassRoster(
        (
            PassDescriptor("live", 2, uses_batches=True, uses_vertices=True, uses_fragments=True),
            PassDescriptor("dead", 2, uses_batches=True, uses_vertices=True, uses_fragments=True),
        )
    )
    table = CostTable(
        ins_v=(300.0, 0.0),
        ins_f=((400.0, 100.0), (0.0, 0.0)),
        tex_f=((10.0, 2.0), (0.0, 0.0)),
    )
    oracle = HiddenPowerOracle(
        roster=roster,
        saturation=SaturationConstants(10.0, 100.0, ((500.0, 4e6, 1.4e6), (500.0, 4e6, 1.4e6))),
        k_b=(0.8, 0.0),
        unit_costs=UnitCosts(0.002, 0.01),
        public_costs=table,
        noise_sigma=0.0,
        seed=3,
    )
    return oracle


def test_probe_saturation_flags_zero_cost_pass_with_cap():
    oracle = _zero_cost_roster_oracle()
    probe = probe_saturation(oracle, 10.0)
    assert probe.flags[0] == ("ok", "ok", "ok")
    assert probe.flags[1] == ("cap", "cap", "cap")


def test_probe_saturation_fails_when_nothing_saturates():
    oracle = _zero_cost_roster_oracle()
    dead_only = dataclasses.replace(
        oracle,
        k_b=(0.0, 0.0),
        public_costs=CostTable(
            ins_v=(0.0, 0.0), ins_f=((0.0, 0.0), (0.0, 0.0)), tex_f=((0.0, 0.0), (0.0, 0.0))
        ),
    )
    with pytest.raises(ProbeError):
        probe_saturation(dead_only, 10.0)


def test_distortion_factor_one_means_public_costs_are_true(mini_scenario):
    oracle = mini_scenario.oracle
    assert oracle.true_costs == oracle.public_costs


def test_distortion_factor_perturbs_true_costs_deterministically(mini_scenario):
    a = dataclasses.replace(mini_scenario.oracle, cost_distortion=1.2)
    b = dataclasses.replace(mini_scenario.oracle, cost_distortion=1.2)
    assert a.true_costs == b.true_costs
    assert a.true_costs != a.public_costs
    for pub, true in zip(a.public_costs.ins_v, a.true_costs.ins_v):
        if pub > 0:
            assert 1 / 1.2 <= true / pub <= 1.2


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(base=-1.0)
    with pytest.raises(ValueError):
        CurveSpec(base=1.0, amp=0.8, jitter_amp=0.3)
    with pytest.raises(ValueError):
        CurveSpec(base=1.0, period=0.0)


def test_empty_trace_is_empty(mini_scenario):
    trace = empty_trace(mini_scenario.roster, 5)
    assert trace.is_empty
    assert not mini_scenario.trace.is_empty


def test_power_queries_reject_frames_outside_the_trace(mini_scenario, monkeypatch):
    sc = mini_scenario
    assert sc.oracle.noise_sigma > 0.0  # a noisy meter must not reach its draw
    draws = []
    noise = HiddenPowerOracle.noise
    monkeypatch.setattr(
        HiddenPowerOracle, "noise", lambda self, frame: draws.append(frame) or noise(self, frame)
    )
    cfg = sc.roster.worst_config()

    def in_list(method):
        # The array path checks every frame of its list before it draws.
        return lambda o, c, frame, t: method(FramePowers(o, t, [0, 1, frame]), c)

    queries = (
        exact_power, measure_power, in_list(FramePowers.exact), in_list(FramePowers.measured)
    )
    for frame in (-1, -240, sc.trace.frame_count, 10**6):
        for query in queries:
            with pytest.raises(ValueError, match=rf"frame {frame} outside .*\[0, 240\)"):
                query(sc.oracle, cfg, frame, sc.trace)
    assert draws == []
    assert exact_power(sc.oracle, cfg, 0, sc.trace) > 0.0
    assert measure_power(sc.oracle, cfg, sc.trace.frame_count - 1, sc.trace) > 0.0


def test_oracle_rejects_negative_batch_cost(mini_scenario):
    with pytest.raises(ValueError, match="k_b"):
        dataclasses.replace(mini_scenario.oracle, k_b=(0.8, -0.1))


# Per-call formulas of the power path, kept as the oracle for the array one: a
# scan over the events, the true coefficients from the true costs, the load
# sum term by term, and a fresh generator per noise draw.


def _scanned_event_scales(trace, roster, frame):
    names = [roster.passes[i].name for i in roster.model_pass_indices]
    counts = [1.0] * len(names)
    costs = [1.0] * len(names)
    for e in trace.events:
        if e.frame > frame:
            break
        mi = names.index(e.pass_name)
        counts[mi] *= e.count_scale
        costs[mi] *= e.cost_scale
    return counts, costs


def _curve_value(curve, frame):
    return curve.base * (
        1.0
        + curve.amp * math.sin(2.0 * math.pi * frame / curve.period + curve.phase)
        + curve.jitter_amp
        * math.sin(2.0 * math.pi * frame / curve.jitter_period + 1.7 * curve.phase)
    )


def _per_call_primitives(trace, roster, config, frame):
    count_scales, _ = _scanned_event_scales(trace, roster, frame)
    frag_scale = roster.fragment_scale(config)
    out = []
    for mi, ri in enumerate(roster.model_pass_indices):
        lvl = config[ri]
        cb, cv, cf = trace.curves[mi]
        scale = count_scales[mi]
        b = _curve_value(cb, frame) * trace.level_scale_batches[mi][lvl] * scale
        v = _curve_value(cv, frame) * trace.level_scale_vertices[mi][lvl] * scale
        f = _curve_value(cf, frame) * trace.level_scale_fragments[mi][lvl] * scale * frag_scale
        ub, uv, uf = roster.model_masks[mi]
        out.append((b if ub else 0.0, v if uv else 0.0, f if uf else 0.0))
    return tuple(out)


def _per_call_power_from_primitives(oracle, config, primitives, cost_scales):
    chi, psi, true = oracle.unit_costs.chi, oracle.unit_costs.psi, oracle.true_costs
    per_pass = []
    for i, ri in enumerate(oracle.roster.model_pass_indices):
        lvl = config[ri]
        scale = 1.0 if cost_scales is None else cost_scales[i]
        kb = oracle.k_b[i] * scale
        kv = chi * true.ins_v[i] * scale
        kf = (chi * true.ins_f[i][lvl] + psi * true.tex_f[i][lvl]) * scale
        per_pass.append((kb, kv, kf))
    coeffs = np.array(per_pass)
    assert oracle.true_coefficients(config, cost_scales).tobytes() == coeffs.tobytes()
    alpha = 0.0
    for (kb, kv, kf), (big_b, big_v, big_f), (b, v, f) in zip(
        per_pass, oracle.saturation.per_pass, primitives
    ):
        alpha += kb * b / big_b + kv * v / big_v + kf * f / big_f
    return oracle.saturation.p_min + oracle.saturation.span * (1.0 - math.exp(-alpha))


def _per_call_noise(oracle, frame):
    if oracle.noise_sigma == 0.0:
        return 0.0
    draw = float(np.random.default_rng([oracle.seed, frame]).standard_normal())
    return max(-3.0, min(3.0, draw)) * oracle.noise_sigma * oracle.saturation.span


def _partial_uses_case():
    """Three passes, no resolution pass, 2/4/1 levels, partial ``uses`` masks,
    nonzero curves for the unused kinds, distorted costs, and stacked count
    and cost events on one pass."""
    roster = PassRoster(
        (
            PassDescriptor("geometry", 2, uses_batches=True),
            PassDescriptor("lighting", 4, uses_vertices=True, uses_fragments=True),
            PassDescriptor("overlay", 1, uses_batches=True, uses_fragments=True),
        )
    )
    curve = lambda base, phase: CurveSpec(base, 0.3, 97.0, phase, 0.1, 5.0)  # noqa: E731
    trace = SceneTrace(
        frame_count=200,
        curves=tuple(
            (curve(800.0 + 100 * i, 0.3 * i), curve(3e5, 1.1 + i), curve(4e5, 2.3 * i))
            for i in range(3)
        ),
        level_scale_batches=((1.0, 0.9), (1.0, 0.95, 0.7, 0.41), (1.0,)),
        level_scale_vertices=((1.0, 0.8), (1.0, 0.83, 0.66, 0.37), (1.0,)),
        level_scale_fragments=((1.0, 0.7), (1.0, 0.71, 0.53, 0.29), (1.0,)),
        events=(
            TraceEvent(20, "lighting", count_scale=1.1, cost_scale=1.3),
            TraceEvent(20, "geometry", count_scale=0.7),
            TraceEvent(57, "lighting", count_scale=0.7, cost_scale=0.9),
            TraceEvent(90, "lighting", count_scale=1.3, cost_scale=1.7),
            TraceEvent(91, "overlay", cost_scale=2.2),
            TraceEvent(150, "lighting", count_scale=0.3, cost_scale=0.3),
        ),
    )
    oracle = HiddenPowerOracle(
        roster=roster,
        saturation=SaturationConstants(
            9.0, 140.0, ((900.0, 2e6, 9e5), (700.0, 5e5, 1.1e6), (1500.0, 3e6, 6e5))
        ),
        k_b=(0.7, 0.3, 1.1),
        unit_costs=UnitCosts(0.0021, 0.013),
        public_costs=CostTable(
            ins_v=(120.0, 310.0, 45.0),
            ins_f=((380.0, 170.0), (520.0, 300.0, 150.0, 60.0), (210.0,)),
            tex_f=((11.0, 4.0), (17.0, 9.0, 5.0, 1.0), (3.0,)),
        ),
        cost_distortion=1.3,
        noise_sigma=0.004,
        seed=11,
    )
    return roster, trace, oracle


def test_power_path_equals_per_call_formula(
    demo_scenario, regime_scenario, lattice_scenario
):
    regime_events = regime_scenario.trace.events + (
        TraceEvent(120, "shading", count_scale=0.6),
        TraceEvent(200, "postfx", count_scale=1.3, cost_scale=0.8),
    )
    cases = [
        (demo_scenario.roster, demo_scenario.trace, demo_scenario.oracle),
        (
            regime_scenario.roster,
            dataclasses.replace(regime_scenario.trace, events=regime_events),
            regime_scenario.oracle,
        ),
        (lattice_scenario.roster, lattice_scenario.trace, lattice_scenario.oracle),
        _partial_uses_case(),
    ]
    rng = random.Random(20181018)
    checked = 0
    for roster, trace, oracle in cases:
        assert trace.events, "each case needs events for the event table to matter"
        frames = {e.frame for e in trace.events} | {e.frame - 1 for e in trace.events}
        frames |= {0, trace.frame_count - 1} | set(rng.sample(range(trace.frame_count), 8))
        frames = sorted(frames)
        rng.shuffle(frames)
        # Warm the memos of the originals at the first frame, then derive the
        # others with dataclasses.replace: a copied memo would answer for them.
        exact_power(oracle, roster.worst_config(), frames[0], trace)
        measure_power(oracle, roster.worst_config(), frames[0], trace)
        oracles = [
            dataclasses.replace(oracle, seed=oracle.seed + 1, noise_sigma=0.01),
            dataclasses.replace(oracle, seed=oracle.seed + 2, noise_sigma=0.003),
        ]
        traces = [trace, dataclasses.replace(trace, events=())]
        pairs = [(o, t) for o in oracles for t in traces]
        for frame in frames:
            rng.shuffle(pairs)
            for o, t in pairs:
                configs = [roster.best_config(), roster.worst_config()] + [
                    RenderingConfiguration(
                        tuple(rng.randrange(p.level_count) for p in roster.passes)
                    )
                    for _ in range(4)
                ]
                _, costs = _scanned_event_scales(t, roster, frame)
                assert t.terms(roster, [frame])[2].ravel().tolist() == costs
                for cfg in configs:
                    prims = _per_call_primitives(t, roster, cfg, frame)
                    assert t.primitives_for(roster, cfg, frame) == prims
                    exact = _per_call_power_from_primitives(o, cfg, prims, costs)
                    assert exact_power(o, cfg, frame, t) == exact
                    noisy = max(exact + _per_call_noise(o, frame), 1e-9)
                    assert measure_power(o, cfg, frame, t) == noisy
                    assert float(o.exact(cfg, prims)) == _per_call_power_from_primitives(
                        o, cfg, prims, None
                    )
                    checked += 1
    assert checked > 1000


def test_count_producers_zero_unused_kinds(mini_scenario):
    """The power formula sums whatever counts it is given, so every producer
    of counts must report 0.0 for the kinds a pass does not use."""
    roster, trace, oracle = _partial_uses_case()
    unused = [(mi, kind) for mi, uses in enumerate(roster.model_masks)
              for kind in range(3) if not uses[kind]]
    assert unused and all(_curve_value(trace.curves[mi][kind], 0) > 0 for mi, kind in unused)

    rng = random.Random(5)
    for frame in (0, 20, 91, 199):
        for _ in range(4):
            cfg = RenderingConfiguration(tuple(rng.randrange(p.level_count) for p in roster.passes))
            prims = trace.primitives_for(roster, cfg, frame)
            assert all(prims[mi][kind] == 0.0 for mi, kind in unused)

    # The sweep reads only the scenario's seed, roster and oracle.
    scenario = dataclasses.replace(mini_scenario, seed=oracle.seed, roster=roster, oracle=oracle)
    watts, counts = _generic_sweep_samples(scenario, oracle.saturation.per_pass)
    assert all((counts[:, mi, kind] == 0.0).all() for mi, kind in unused)
    fit = fit_coefficients(oracle.saturation, watts, counts)
    assert np.array_equal(fit.identified, roster.model_masks)

    probe = probe_saturation(oracle, probe_min_power(oracle, empty_trace(roster, 30), 30))
    assert [
        (mi, kind) for mi, flags in enumerate(probe.flags)
        for kind in range(3) if flags[kind] == "unused"
    ] == unused


def test_scalar_power_adds_load_terms_left_to_right():
    """The power formula adds its load terms left to right, for predictions
    and the oracle alike. Terms of 1.0 then six of 1e-16 add to exactly 1.0
    that way;
    a compensated sum, as the builtin sum() of floats is since Python 3.12,
    gives 1.0 + 3 ulp."""
    n = 7
    roster = PassRoster(tuple(PassDescriptor(f"p{i}", 1, uses_batches=True) for i in range(n)))
    saturation = SaturationConstants(10.0, 100.0, ((1.0, 1.0, 1.0),) * n)
    k_b = (1.0,) + (1e-16,) * (n - 1)
    assert math.fsum(k_b) != 1.0
    primitives = ((1.0, 0.0, 0.0),) * n
    watts = 10.0 + 90.0 * (1.0 - math.exp(-1.0))
    coefficients = np.array([(k, 0.0, 0.0) for k in k_b])
    assert pass_loads(saturation, coefficients, primitives).tolist() == list(k_b)
    assert predict_power(saturation, coefficients, primitives) == watts
    oracle = HiddenPowerOracle(
        roster=roster,
        saturation=saturation,
        k_b=k_b,
        unit_costs=UnitCosts(0.0, 0.0),
        public_costs=CostTable(ins_v=(0.0,) * n, ins_f=((0.0,),) * n, tex_f=((0.0,),) * n),
    )
    assert float(oracle.exact(roster.best_config(), primitives)) == watts


def test_exact_power_all_equals_scalar_path(
    mini_scenario, regime_scenario, demo_scenario
):
    roster, trace, oracle = regime_scenario.roster, regime_scenario.trace, regime_scenario.oracle
    # regime_change's frame-30 event scales a pass's hidden cost.
    assert _scanned_event_scales(trace, roster, 10) != _scanned_event_scales(trace, roster, 200)
    no_resolution = _partial_uses_case()
    assert no_resolution[0].resolution_index is None
    cases = [
        (mini_scenario.roster, mini_scenario.trace, mini_scenario.oracle, 5),
        (roster, trace, oracle, 10),
        (roster, trace, oracle, 200),
        (demo_scenario.roster, demo_scenario.trace, demo_scenario.oracle, 450),
        *(no_resolution + (frame,) for frame in (0, 57, 91, 199)),
    ]
    for roster, trace, oracle, frame in cases:
        bulk = exact_power_all(oracle, frame, trace)
        assert bulk.shape == (roster.config_count,)
        assert bulk.tolist() == [
            exact_power(oracle, config, frame, trace)
            for config in enumerate_configurations(roster)
        ], (roster, frame)

    sc = mini_scenario
    for frame in (-1, sc.trace.frame_count):
        with pytest.raises(ValueError, match=rf"frame {frame} outside .*\[0, 240\)"):
            exact_power_all(sc.oracle, frame, sc.trace)


def test_frame_powers_equal_scalar_path(mini_scenario, regime_scenario, demo_scenario):
    """The array powers and counts of every frame equal the scalar ones bit
    for bit, whole traces and 16-frame chunks alike, and so do the array
    predictions, the clamp below P_M included."""
    regime = regime_scenario
    # A count event and cost events inside 16-frame chunks.
    regime_trace = dataclasses.replace(
        regime.trace,
        events=regime.trace.events
        + (
            TraceEvent(120, "shading", count_scale=0.6),
            TraceEvent(200, "postfx", count_scale=1.3, cost_scale=0.8),
        ),
    )
    assert all(e.frame % 16 for e in regime_trace.events)
    demo = demo_scenario
    assert demo.oracle.noise_sigma > 0.0
    # p_min = 0 is below what SaturationConstants accepts; on an empty trace
    # every exact power is 0.0, so each negative draw clamps the reading.
    saturation = dataclasses.replace(mini_scenario.oracle.saturation)
    object.__setattr__(saturation, "p_min", 0.0)
    idle_oracle = dataclasses.replace(mini_scenario.oracle, saturation=saturation, noise_sigma=0.05)
    partial = _partial_uses_case()
    rng = random.Random(22)

    def some(roster, k):
        configs = enumerate_configurations(roster)
        return [roster.best_config(), roster.worst_config(), *rng.sample(configs, k)]

    mini = mini_scenario
    assert mini.roster.resolution_index is not None
    quiet_demo = dataclasses.replace(demo.oracle, noise_sigma=0.0)
    # (roster, trace, oracle, configurations, frames per FramePowers or None
    # for the whole trace)
    cases = [
        (regime.roster, regime_trace, regime.oracle, enumerate_configurations(regime.roster), 16),
        (mini.roster, mini.trace, mini.oracle, enumerate_configurations(mini.roster), None),
        (demo.roster, demo.trace, demo.oracle, some(demo.roster, 4), 16),
        (demo.roster, demo.trace, quiet_demo, some(demo.roster, 4), None),
        (*partial, enumerate_configurations(partial[0]), 16),
        (mini.roster, empty_trace(mini.roster, 64), idle_oracle, some(mini.roster, 2), None),
    ]
    clamped = saturated = 0
    for roster, trace, oracle, configs, chunk in cases:
        step = chunk or trace.frame_count
        for start in range(0, trace.frame_count, step):
            frames = list(range(start, min(start + step, trace.frame_count)))
            at = FramePowers(oracle, trace, frames)
            for config in configs:
                primitives = [trace.primitives_for(roster, config, f) for f in frames]
                assert at.primitives(config).tolist() == [list(map(list, p)) for p in primitives]
                # The count table shape: every configuration at one frame.
                assert config_counts(roster, at.table(0), config).tolist() == [
                    list(p) for p in _per_call_primitives(trace, roster, config, frames[0])
                ]
                assert at.exact(config).tolist() == [
                    exact_power(oracle, config, f, trace) for f in frames
                ]
                measured = at.measured(config).tolist()
                assert measured == [measure_power(oracle, config, f, trace) for f in frames]
                clamped += measured.count(1e-9)
                for scale in (1.0, 1e4):
                    coefficients = oracle.true_coefficients(config) * scale
                    predicted = predict_powers(
                        oracle.saturation, coefficients, at.primitives(config)
                    ).tolist()
                    assert predicted == [
                        predict_power(oracle.saturation, coefficients, p) for p in primitives
                    ]
                    saturated += predicted.count(math.nextafter(oracle.saturation.p_max, 0.0))
    assert clamped > 0 and saturated > 0


def test_frame_powers_part_equals_its_own_frames(regime_scenario, demo_scenario):
    """A slice of a FramePowers gives the powers and counts of a FramePowers
    built over those frames alone, whether the noise was drawn before the
    slice was taken or after."""
    for scenario in (regime_scenario, demo_scenario):
        roster, oracle, trace = scenario.roster, scenario.oracle, scenario.trace
        config = RenderingConfiguration(tuple(p.level_count // 2 for p in roster.passes))
        frames = list(range(0, trace.frame_count, 3))
        for rows in (slice(0, 1), slice(5, 41), slice(len(frames) - 7, len(frames))):
            alone = FramePowers(oracle, trace, frames[rows])
            for drawn in (False, True):
                at = FramePowers(oracle, trace, frames)
                if drawn:
                    at.measured(roster.best_config())
                part = at[rows]
                assert part.frames == frames[rows]
                assert part.measured(config).tolist() == alone.measured(config).tolist()
                assert part.exact(config).tolist() == alone.exact(config).tolist()
                assert part.primitives(config).tolist() == alone.primitives(config).tolist()


# Seeds of one to four 32-bit words; 2**96 + 1 fills SeedSequence's pool of
# four words with the seed alone, so the last word enters in its loop over
# the remaining entropy.
STATE_SEEDS = (0, 1, 20180427, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1)
# (first, count): k = 0, 1, 255, 256, 257, 1199 and the generic sweep's
# 20_000_000 + 0..119.
STATE_RUNS = ((0, 2), (255, 3), (1199, 1), (20_000_000, 120))


@pytest.mark.parametrize("seed", STATE_SEEDS)
def test_seed_states_are_seed_sequence_states(seed):
    for prefix in ((seed,), (seed, 424243)):
        for first, count in STATE_RUNS:
            states = seed_states(prefix, first, count)
            assert states.dtype == np.uint64 and states.shape == (count, 4)
            for j, state in enumerate(states):
                entropy = [*prefix, first + j]
                want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
                assert state.tolist() == want.tolist()
        # A generator seeded from a row draws what default_rng draws.
        state = seed_states(prefix, 257, 1)[0]
        ours, theirs = seeded_generator(state), np.random.default_rng([*prefix, 257])
        assert ours.standard_normal() == theirs.standard_normal()
        assert ours.uniform(0.1, 1.0, size=(4, 3)).tolist() == theirs.uniform(
            0.1, 1.0, size=(4, 3)
        ).tolist()


def test_seed_states_beyond_one_word_are_exact_or_rejected():
    top = seed_states((7, 2**32 - 1), 2**32 - 2, 2)
    for j, k in enumerate((2**32 - 2, 2**32 - 1)):
        want = np.random.SeedSequence([7, 2**32 - 1, k]).generate_state(4, np.uint64)
        assert top[j].tolist() == want.tolist()
    # A last word past 32 bits would shift SeedSequence's word count, and a
    # negative one has no words: neither is answered.
    for first, count in ((2**32 - 1, 2), (2**32, 1), (-1, 1), (-300, 3)):
        with pytest.raises(ValueError, match="outside"):
            seed_states((7,), first, count)
    for prefix in ((-1,), (7, -424243), (-(2**40),)):
        with pytest.raises(ValueError, match="non-negative"):
            seed_states(prefix, 0, 4)
    oracle = dataclasses.replace(_partial_uses_case()[2], seed=7)
    for frame in (-1, 2**32, 2**40):
        with pytest.raises(ValueError, match="outside"):
            oracle.noise(frame)


@pytest.mark.parametrize("seed", [None, 1, 6, 2**32 + 1])
def test_noise_is_the_per_call_draw_on_every_demo_frame(demo_scenario, seed):
    oracle = demo_scenario.oracle
    if seed is not None:
        oracle = dataclasses.replace(oracle, seed=seed)
    # Every trace frame, and the probe's readings from frame 10_000_000 on.
    frames = [*range(demo_scenario.trace.frame_count), *range(10_000_000, 10_000_300)]
    assert [oracle.noise(f) for f in frames] == [_per_call_noise(oracle, f) for f in frames]


def test_noise_memo_is_one_block_of_one_oracle(mini_scenario, monkeypatch):
    """Each draw equals the per-call draw, whichever oracle drew last; an
    oracle keeps only its latest block, and a new oracle, even one with the
    same seed, computes its own."""
    computed = []
    states = simgpu.seed_states
    monkeypatch.setattr(
        simgpu, "seed_states", lambda *args: computed.append(args[1]) or states(*args)
    )
    a = dataclasses.replace(mini_scenario.oracle, seed=41)
    b = dataclasses.replace(a, seed=42)
    same = dataclasses.replace(a)
    # (oracle, frame, first frame of the block computed, or None)
    draws = [
        (a, 300, 256), (b, 300, 256), (a, 300, None), (a, 255, 0), (a, 256, 256),
        (a, 511, None), (b, 301, None), (a, 512, 512), (same, 300, 256), (a, 513, None),
    ]
    for oracle, frame, block in draws:
        computed.clear()
        assert oracle.noise(frame) == _per_call_noise(oracle, frame)
        assert computed == ([] if block is None else [block])


def _per_sample_sweep(scenario, saturation_per_pass):
    """The generic sweep with a ``default_rng`` built per sample and per
    noise draw: each sample's weights are ``default_rng([seed, 424243, k])``'s
    draws, and its noise the meter's at frame 20_000_000 + k."""
    oracle, roster = scenario.oracle, scenario.roster
    uses = np.asarray(roster.model_masks, dtype=float)
    n = len(saturation_per_pass)
    watts, counts = [], []
    for k in range(120):
        rng = np.random.default_rng([scenario.seed, 424243, k])
        weights = rng.uniform(0.1, 1.0, size=(n, 3)) * uses
        weights *= 1.8 * (k + 1) / 120 / weights.sum()
        prims = tuple(
            tuple(weights[i][j] * saturation_per_pass[i][j] for j in range(3)) for i in range(n)
        )
        power = _per_call_power_from_primitives(oracle, roster.best_config(), prims, None)
        power += _per_call_noise(oracle, 20_000_000 + k)
        watts.append(max(power, 1e-9))
        counts.append(prims)
    return np.array(watts), np.array(counts)


def test_generic_sweep_equals_per_sample_default_rng(demo_scenario, mini_scenario):
    for scenario in (demo_scenario, mini_scenario):
        for seed in (scenario.seed, 2**32 + 1):
            oracle = dataclasses.replace(scenario.oracle, seed=seed)
            sc = dataclasses.replace(scenario, seed=seed, oracle=oracle)
            per_pass = oracle.saturation.per_pass
            watts, counts = _generic_sweep_samples(sc, per_pass)
            expected_watts, expected_counts = _per_sample_sweep(sc, per_pass)
            assert watts.tobytes() == expected_watts.tobytes()
            assert counts.tobytes() == expected_counts.tobytes()


def test_negative_seed_is_rejected_by_the_oracle(mini_scenario):
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        dataclasses.replace(mini_scenario.oracle, seed=-1)
