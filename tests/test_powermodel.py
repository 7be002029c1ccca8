import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rendergov.configspace import (
    PassDescriptor,
    PassRoster,
    RenderingConfiguration,
    config_index,
    enumerate_configurations,
)
from rendergov.harness import initialize
from rendergov.simgpu import FramePowers
from rendergov.powermodel import (
    CLAMP_FRACTION,
    CostTable,
    PowerModel,
    SaturationConstants,
    UnitCosts,
    coefficients_for_config,
    fit_coefficients,
    level_coefficients,
    linearize,
    pass_loads,
    predict_all,
    predict_power,
    solve_unit_costs,
)

ONE_PASS_SAT = SaturationConstants(10.0, 100.0, ((1.0, 1.0, 1.0),))
TWO_PASS_SAT = SaturationConstants(
    10.0, 100.0, ((100.0, 2e5, 4e5), (50.0, 1e5, 3e5))
)


def test_predict_zero_load_is_exactly_p_min():
    coeffs = np.array([(0.5, 1.0, 2.0)])
    assert predict_power(ONE_PASS_SAT, coeffs, ((0.0, 0.0, 0.0),)) == 10.0


def test_predict_matches_hand_computed_example():
    coeffs = np.array([(0.5, 1.0, 2.0)])
    p = predict_power(ONE_PASS_SAT, coeffs, ((0.2, 0.1, 0.3),))
    assert p == pytest.approx(59.5604, abs=1e-4)
    assert p == pytest.approx(10.0 + 90.0 * (1.0 - math.exp(-0.8)), rel=1e-12)


def test_predict_saturates_strictly_below_p_max():
    coeffs = np.array([(0.5, 1.0, 2.0)])
    p = predict_power(ONE_PASS_SAT, coeffs, ((1e12, 1e12, 1e12),))
    assert 99.999 < p < 100.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
)
@seed(20180427)
def test_predict_bounds_and_monotonicity(prims, coeffs):
    coefficients = np.array([coeffs])
    p = predict_power(ONE_PASS_SAT, coefficients, (tuple(prims),))
    assert 10.0 <= p < 100.0
    bumped = tuple(v + 1.0 for v in prims)
    assert predict_power(ONE_PASS_SAT, coefficients, (bumped,)) >= p


def test_linearize_at_p_min_gives_near_zero_target():
    rows, (target,), (clamped,) = linearize(ONE_PASS_SAT, [10.0], [((0.0, 0.0, 0.0),)])
    assert clamped
    assert 0.0 < target < 0.01


def test_linearize_inverse_of_hand_example():
    (row,), (target,), (clamped,) = linearize(ONE_PASS_SAT, [59.5647], [((0.2, 0.1, 0.3),)])
    assert not clamped
    assert target == pytest.approx(0.8, abs=1e-3)
    assert tuple(row.tolist()) == (0.2, 0.1, 0.3)


def test_linearize_clamps_saturated_reading():
    rows, (target,), (clamped,) = linearize(ONE_PASS_SAT, [120.0], [((1.0, 1.0, 1.0),)])
    assert clamped
    assert target == pytest.approx(-math.log(1e-3), rel=1e-12)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=0.9), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=3, max_size=3),
)
@seed(11)
def test_linearize_round_trip(prims, coeffs):
    coefficients = np.array([coeffs])
    primitives = (tuple(prims),)
    alpha = sum(pass_loads(ONE_PASS_SAT, coefficients, primitives).tolist())
    p = predict_power(ONE_PASS_SAT, coefficients, primitives)
    rows, (target,), (clamped,) = linearize(ONE_PASS_SAT, [p], [primitives])
    if not clamped:
        assert target == pytest.approx(alpha, rel=1e-12, abs=1e-12)


def _linearize_frame(saturation, p, per_pass):
    """One frame's row, target and clamp flag by the scalar formula that
    :func:`linearize` takes over whole windows: the reference its bits must
    match."""
    eps = CLAMP_FRACTION * saturation.span
    clamped = not (saturation.p_min + eps <= p <= saturation.p_max - eps)
    p = min(max(p, saturation.p_min + eps), saturation.p_max - eps)
    target = -math.log(1.0 - (p - saturation.p_min) / saturation.span)
    row = []
    for (big_b, big_v, big_f), (b, v, f) in zip(saturation.per_pass, per_pass):
        row.extend((b / big_b, v / big_v, f / big_f))
    return row, target, clamped


@pytest.mark.parametrize(
    "saturation",
    [
        TWO_PASS_SAT,
        SaturationConstants(
            13.37, 97.1, ((123.4, 5.6e5, 7.8e5), (3.3, 1.1e4, 2.2e5), (0.7, 9e3, 1.3e6))
        ),
    ],
)
def test_linearize_equals_per_frame_formula_bit_for_bit(saturation):
    """Rows, targets and clamp flags equal the per-frame scalar formula's,
    readings below, at, just inside and above both clamp bounds included."""
    rng = np.random.default_rng(28)
    eps = CLAMP_FRACTION * saturation.span
    low, high = saturation.p_min + eps, saturation.p_max - eps
    bounds = [
        saturation.p_min, low, math.nextafter(low, -math.inf), math.nextafter(low, math.inf),
        saturation.p_max, high, math.nextafter(high, -math.inf), math.nextafter(high, math.inf),
        1e-9, 0.5 * saturation.p_min, 2.0 * saturation.p_max,
    ]
    watts = np.concatenate(
        [bounds, rng.uniform(saturation.p_min - 5.0, saturation.p_max + 5.0, 40)]
    )
    counts = rng.uniform(0.0, 1.5, (len(watts), len(saturation.per_pass), 3))
    counts *= saturation.per_pass
    counts[::3, -1] = 0.0
    rows, targets, clamped = linearize(saturation, watts, counts)
    expected = [
        _linearize_frame(saturation, p, c) for p, c in zip(watts.tolist(), counts.tolist())
    ]
    assert rows.tobytes() == np.array([row for row, _, _ in expected]).tobytes()
    assert targets.tobytes() == np.array([t for _, t, _ in expected]).tobytes()
    assert clamped.tolist() == [c for _, _, c in expected]
    assert clamped[1:8].tolist() == [False, True, False, True, False, False, True]


def _synthetic_samples(rng, saturation, coefficients, n, noise=0.0):
    watts, counts = [], []
    for _ in range(n):
        prims = tuple(
            tuple(rng.uniform(0.0, 0.6) * big for big in triple)
            for triple in saturation.per_pass
        )
        p = predict_power(saturation, coefficients, prims)
        p += rng.normal(0.0, noise * saturation.span) if noise else 0.0
        watts.append(max(p, 1e-9))
        counts.append(prims)
    return np.array(watts), np.array(counts)


TRUE_COEFFS = np.array([(0.7, 0.6, 0.9), (0.5, 0.55, 1.2)])


def test_fit_recovers_noiseless_coefficients_exactly():
    rng = np.random.default_rng(42)
    samples = _synthetic_samples(rng, TWO_PASS_SAT, TRUE_COEFFS, 30)
    fit = fit_coefficients(TWO_PASS_SAT, *samples)
    assert not fit.degenerate
    for got, want in zip(fit.coefficients, TRUE_COEFFS):
        for g, w in zip(got, want):
            assert abs(g - w) / w <= 1e-6


def test_models_and_fits_compare_by_identity_and_hold_read_only_arrays(demo_scenario):
    """Two distinct but equal snapshots compare unequal and hash without
    raising, and their arrays, the model's own coefficients that
    ``coefficients_for`` returns included, cannot be written."""
    model, other = (initialize(demo_scenario).power_model for _ in range(2))
    assert model == model and model != other
    assert len({model, other, model}) == 2
    own = model.coefficients_for(model.fitted_config)
    assert own is model.coefficients
    with pytest.raises(ValueError, match="read-only"):
        own[0, 0] = 1.0
    samples = _synthetic_samples(np.random.default_rng(42), TWO_PASS_SAT, TRUE_COEFFS, 30)
    fit, again = (fit_coefficients(TWO_PASS_SAT, *samples) for _ in range(2))
    assert fit == fit and fit != again
    assert len({fit, again, fit}) == 2
    for array in (fit.coefficients, fit.identified):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
    replaced = dataclasses.replace(model, coefficients=np.ones_like(model.coefficients))
    assert not replaced.coefficients.flags.writeable


def test_fit_flags_identical_samples_as_degenerate():
    prims = ((30.0, 5e4, 1e5), (20.0, 3e4, 9e4))
    p = predict_power(TWO_PASS_SAT, TRUE_COEFFS, prims)
    fit = fit_coefficients(TWO_PASS_SAT, [p] * 12, [prims] * 12)
    assert fit.degenerate


def test_fit_under_gaussian_noise_predicts_held_out_frames():
    rng = np.random.default_rng(31337)
    samples = _synthetic_samples(rng, TWO_PASS_SAT, TRUE_COEFFS, 30, noise=0.01)
    fit = fit_coefficients(TWO_PASS_SAT, *samples)
    held_out = _synthetic_samples(rng, TWO_PASS_SAT, TRUE_COEFFS, 100)
    errs = [
        abs(predict_power(TWO_PASS_SAT, fit.coefficients, per_pass) - measured)
        for measured, per_pass in zip(*held_out)
    ]
    assert np.mean(errs) <= 0.02 * TWO_PASS_SAT.span


def test_fit_requires_enough_samples():
    rng = np.random.default_rng(1)
    samples = _synthetic_samples(rng, TWO_PASS_SAT, TRUE_COEFFS, 5)
    with pytest.raises(ValueError):
        fit_coefficients(TWO_PASS_SAT, *samples)


def test_fit_marks_silent_pass_unidentified():
    rng = np.random.default_rng(2)
    watts, counts = [], []
    for _ in range(12):
        prims = (
            tuple(rng.uniform(0.0, 0.6) * b for b in TWO_PASS_SAT.per_pass[0]),
            (0.0, 0.0, 0.0),
        )
        watts.append(predict_power(TWO_PASS_SAT, TRUE_COEFFS, prims))
        counts.append(prims)
    fit = fit_coefficients(TWO_PASS_SAT, watts, counts)
    assert np.array_equal(fit.identified, [(True, True, True), (False, False, False)])
    assert np.array_equal(fit.coefficients[1], (0.0, 0.0, 0.0))


@st.composite
def _windows(draw):
    """Saturation constants and a well-formed window for them: at least
    three frames per pass, positive readings and nonnegative counts, not
    necessarily consistent with any coefficients."""
    n = draw(st.integers(1, 3))
    frames = draw(st.integers(3 * n, 3 * n + 12))
    p_min = draw(st.floats(0.1, 50.0))
    p_max = p_min + draw(st.floats(1.0, 200.0))
    per_pass = draw(hnp.arrays(float, (n, 3), elements=st.floats(1e-3, 1e6)))
    watts = draw(hnp.arrays(float, frames, elements=st.floats(1e-6, 2.0 * p_max)))
    counts = draw(hnp.arrays(float, (frames, n, 3), elements=st.floats(0.0, 1e6)))
    return SaturationConstants(p_min, p_max, per_pass.tolist()), watts, counts


@given(_windows())
@seed(29)
def test_fit_coefficients_are_nonnegative(window):
    saturation, watts, counts = window
    fit = fit_coefficients(saturation, watts, counts)
    assert fit.coefficients.shape == fit.identified.shape == (len(saturation.per_pass), 3)
    assert (fit.coefficients >= 0.0).all()
    assert (fit.coefficients[~fit.identified] == 0.0).all()


@st.composite
def _cost_inputs(draw):
    """Valid unit costs, a cost table (costs nonincreasing with the level)
    and one batch cost per pass."""
    n = draw(st.integers(1, 4))
    costs = st.floats(0.0, 1e4)
    levels = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ins_f, tex_f = (
        tuple(
            tuple(sorted(draw(st.lists(costs, min_size=k, max_size=k)), reverse=True))
            for k in levels
        )
        for _ in range(2)
    )
    table = CostTable(tuple(draw(st.lists(costs, min_size=n, max_size=n))), ins_f, tex_f)
    unit_costs = UnitCosts(draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 1e3)))
    k_b = draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    return unit_costs, table, k_b


@given(_cost_inputs())
@seed(29)
def test_level_coefficients_are_nonnegative(inputs):
    unit_costs, table, k_b = inputs
    coefficients = level_coefficients(unit_costs, table, k_b)
    assert coefficients.shape == (table.n_passes, max(map(len, table.ins_f)), 3)
    assert (coefficients >= 0.0).all()


def _simple_roster(level_counts, aa_like=False):
    passes = []
    for i, n in enumerate(level_counts):
        passes.append(
            PassDescriptor(
                f"p{i}",
                n,
                uses_batches=not (aa_like and i == len(level_counts) - 1),
                uses_vertices=not (aa_like and i == len(level_counts) - 1),
                uses_fragments=True,
            )
        )
    return PassRoster(tuple(passes))


def test_solve_unit_costs_recovers_exact_chi_psi():
    roster = _simple_roster([3, 3])
    table = CostTable(
        ins_v=(300.0, 250.0),
        ins_f=((400.0, 200.0, 100.0), (500.0, 240.0, 90.0)),
        tex_f=((12.0, 6.0, 2.0), (20.0, 9.0, 3.0)),
    )
    chi, psi = 0.002, 0.01
    fitted = RenderingConfiguration((1, 2))
    coeffs = np.array(
        [
            (0.5, chi * 300.0, chi * 200.0 + psi * 6.0),
            (0.4, chi * 250.0, chi * 90.0 + psi * 3.0),
        ]
    )
    res = solve_unit_costs(coeffs, table, fitted, roster)
    assert res.unit_costs.chi == pytest.approx(chi, abs=1e-9)
    assert res.unit_costs.psi == pytest.approx(psi, abs=1e-9)


def test_solve_unit_costs_single_fragment_equation_flags_psi():
    roster = PassRoster((PassDescriptor("fx", 2, uses_fragments=True),))
    table = CostTable(ins_v=(0.0,), ins_f=((100.0, 0.0),), tex_f=((0.0, 0.0),))
    coeffs = np.array([(0.0, 0.0, 0.2)])
    res = solve_unit_costs(coeffs, table, RenderingConfiguration((0,)), roster)
    assert res.unit_costs.chi == pytest.approx(0.002, abs=1e-12)
    assert res.unit_costs.psi == 0.0


def test_solve_unit_costs_inconsistent_system_matches_grid_search():
    roster = _simple_roster([2, 2])
    table = CostTable(
        ins_v=(300.0, 200.0),
        ins_f=((400.0, 100.0), (350.0, 80.0)),
        tex_f=((10.0, 2.0), (14.0, 3.0)),
    )
    # Deliberately inconsistent coefficient targets.
    coeffs = np.array([(0.0, 0.9, 1.1), (0.0, 0.3, 0.6)])
    fitted = RenderingConfiguration((0, 0))
    res = solve_unit_costs(coeffs, table, fitted, roster)

    def sse(chi, psi):
        eqs = [
            (300.0, 0.0, 0.9),
            (400.0, 10.0, 1.1),
            (200.0, 0.0, 0.3),
            (350.0, 14.0, 0.6),
        ]
        return sum((chi * a + psi * b - y) ** 2 for a, b, y in eqs)

    best = min(
        ((chi, psi) for chi in np.linspace(0.0, 0.01, 401) for psi in np.linspace(0.0, 0.2, 401)),
        key=lambda cp: sse(*cp),
    )
    assert res.unit_costs.chi == pytest.approx(best[0], abs=5e-5)
    assert res.unit_costs.psi == pytest.approx(best[1], abs=1e-3)
    assert res.residual_norm > 0.0
    assert sse(res.unit_costs.chi, res.unit_costs.psi) <= sse(*best) + 1e-9


def test_coefficients_for_config_reproduces_fitted_within_residual():
    roster = _simple_roster([3, 3])
    table = CostTable(
        ins_v=(300.0, 250.0),
        ins_f=((400.0, 200.0, 100.0), (500.0, 240.0, 90.0)),
        tex_f=((12.0, 6.0, 2.0), (20.0, 9.0, 3.0)),
    )
    rng = np.random.default_rng(5)
    fitted_config = RenderingConfiguration((1, 1))
    # Slightly perturbed so the system is inconsistent but close.
    coeffs = np.array(
        [
            (0.5, 0.002 * 300.0 * 1.03, (0.002 * 200.0 + 0.01 * 6.0) * 0.97),
            (0.4, 0.002 * 250.0 * 0.98, (0.002 * 240.0 + 0.01 * 9.0) * 1.02),
        ]
    )
    res = solve_unit_costs(coeffs, table, fitted_config, roster)
    rebuilt = coefficients_for_config(res.unit_costs, table, fitted_config, coeffs, roster)
    sat = TWO_PASS_SAT
    prims = tuple(tuple(0.3 * b for b in triple) for triple in sat.per_pass)
    p_fit = predict_power(sat, coeffs, prims)
    p_rebuilt = predict_power(sat, rebuilt, prims)
    d_alpha = abs(
        sum(pass_loads(sat, rebuilt, prims).tolist())
        - sum(pass_loads(sat, coeffs, prims).tolist())
    )
    assert abs(p_rebuilt - p_fit) <= sat.span * (1.0 - math.exp(-d_alpha)) + 1e-9
    # batch cost is carried over untouched
    assert rebuilt[0, 0] == coeffs[0, 0]


def test_coefficients_for_config_zero_cost_level_gives_zero_kf():
    roster = _simple_roster([2])
    table = CostTable(ins_v=(300.0,), ins_f=((400.0, 0.0),), tex_f=((10.0, 0.0),))
    fitted = np.array([(0.5, 0.6, 0.85)])
    uc = UnitCosts(0.002, 0.01)
    out = coefficients_for_config(uc, table, RenderingConfiguration((1,)), fitted, roster)
    assert out[0, 2] == 0.0


def test_coefficients_for_config_monotone_in_texels():
    roster = _simple_roster([2])
    fitted = np.array([(0.5, 0.6, 0.85)])
    cfg = RenderingConfiguration((0,))
    uc = UnitCosts(0.002, 0.01)
    low = CostTable(ins_v=(300.0,), ins_f=((400.0, 100.0),), tex_f=((10.0, 2.0),))
    high = CostTable(ins_v=(300.0,), ins_f=((400.0, 100.0),), tex_f=((25.0, 2.0),))
    kf_low = coefficients_for_config(uc, low, cfg, fitted, roster)[0, 2]
    kf_high = coefficients_for_config(uc, high, cfg, fitted, roster)[0, 2]
    assert kf_high > kf_low


def _model_for(roster, table, sat, coeffs, uc, fitted_config):
    return PowerModel(
        roster=roster,
        saturation=sat,
        coefficients=coeffs,
        unit_costs=uc,
        cost_table=table,
        fitted_config=fitted_config,
    )


def test_predict_all_produces_one_prediction_per_configuration(demo_scenario):
    roster = demo_scenario.roster
    sat = demo_scenario.oracle.saturation
    n = len(roster.model_pass_indices)
    model = _model_for(
        roster,
        demo_scenario.cost_table,
        sat,
        np.zeros((n, 3)),
        UnitCosts(0.002, 0.01),
        roster.best_config(),
    )
    # Three levels per pass, three resolution levels.
    preds = predict_all(model, np.zeros((3, 3, n, 3)))
    assert len(preds) == 729
    assert all(p == sat.p_min for p in preds)


def test_predict_all_empty_frame_is_p_min_everywhere():
    roster = _simple_roster([2, 2])
    table = CostTable(
        ins_v=(300.0, 200.0), ins_f=((400.0, 100.0), (350.0, 80.0)),
        tex_f=((10.0, 2.0), (14.0, 3.0)),
    )
    model = _model_for(
        roster, table, TWO_PASS_SAT,
        np.array([(0.5, 0.6, 0.8), (0.4, 0.4, 0.7)]),
        UnitCosts(0.002, 0.01), roster.best_config(),
    )
    # Two levels per pass, no resolution pass.
    preds = predict_all(model, np.zeros((2, 1, 2, 3)))
    assert all(p == TWO_PASS_SAT.p_min for p in preds)


def _per_config_predictions(model, primitives_for):
    """The scalar formula one configuration at a time: the oracle for predict_all."""
    return [
        predict_power(model.saturation, model.coefficients_for(cfg), primitives_for(cfg))
        for cfg in enumerate_configurations(model.roster)
    ]


def _synthetic_model(roster, rng, fitted_levels):
    """Random but valid saturation, coefficients, cost table and unit costs."""
    model_passes = roster.model_passes
    sat = SaturationConstants(
        12.0,
        95.0,
        tuple(tuple(rng.uniform(50.0, 5e5, size=3)) for _ in model_passes),
    )

    def nonincreasing(n, top):
        return tuple(sorted(rng.uniform(0.0, top, size=n), reverse=True))

    table = CostTable(
        ins_v=tuple(rng.uniform(100.0, 400.0, size=len(model_passes))),
        ins_f=tuple(nonincreasing(p.level_count, 600.0) for p in model_passes),
        tex_f=tuple(nonincreasing(p.level_count, 20.0) for p in model_passes),
    )
    coeffs = np.array([rng.uniform(0.1, 1.5, size=3) for _ in model_passes])
    return _model_for(
        roster, table, sat, coeffs, UnitCosts(0.002, 0.01),
        RenderingConfiguration(fitted_levels),
    )


def _synthetic_counts(roster, rng, saturation):
    """One frame's count table, ``[l, r, i]`` pass i's (b, v, f) at level l
    and resolution level r, and a primitives hook that computes a
    configuration's counts on its own, with the same arithmetic. Pass i's
    counts depend only on its own level and the resolution scale. Like every
    producer of counts, it reports 0.0 for the kinds a pass does not use, as
    the power formula requires."""
    uses = np.asarray(roster.model_masks, dtype=float)
    base = [
        rng.uniform(0.0, 0.8, size=3) * big * used
        for big, used in zip(saturation.per_pass, uses)
    ]
    shrink = [rng.uniform(0.3, 1.0, size=(p.level_count, 3)) for p in roster.model_passes]

    def primitives_for(config):
        frag = roster.fragment_scale(config)
        out = []
        for mi, ri in enumerate(roster.model_pass_indices):
            b, v, f = base[mi] * shrink[mi][config[ri]]
            out.append((float(b), float(v), float(f) * frag))
        return tuple(out)

    res = roster.resolution_index
    frags = (1.0,) if res is None else roster.passes[res].fragment_scale_per_level
    levels = max(p.level_count for p in roster.model_passes)
    table = np.zeros((levels, len(frags), len(base), 3))
    for mi, p in enumerate(roster.model_passes):
        for level in range(p.level_count):
            for r, frag in enumerate(frags):
                b, v, f = base[mi] * shrink[mi][level]
                table[level, r, mi] = (float(b), float(v), float(f) * frag)
    return table, primitives_for


def test_predict_all_equals_per_config_formula(demo_scenario):
    sc = demo_scenario
    fitted = RenderingConfiguration((1, 2, 0, 1, 2, 1))
    model = dataclasses.replace(initialize(sc).power_model, fitted_config=fitted)
    for frame in (40, 480, 1100):
        hook = lambda cfg: sc.trace.primitives_for(sc.roster, cfg, frame)  # noqa: E731
        want = _per_config_predictions(model, hook)
        got = predict_all(model, FramePowers(sc.oracle, sc.trace, [frame]).table(0))
        assert isinstance(got, np.ndarray) and got.shape == (729,)
        assert got.tolist() == want
        # The fitted configuration's raw coefficients are not its reuse ones.
        reuse = coefficients_for_config(
            model.unit_costs, model.cost_table, fitted, model.coefficients, sc.roster
        )
        assert want[config_index(sc.roster, fitted)] != predict_power(
            model.saturation, reuse, hook(fitted)
        )

    rng = np.random.default_rng(20180427)
    no_resolution = PassRoster(
        tuple(
            PassDescriptor(f"p{i}", n, uses_batches=True, uses_vertices=True, uses_fragments=True)
            for i, n in enumerate((3, 2, 3))
        )
    )
    mixed = PassRoster(
        (
            PassDescriptor("a", 1, uses_batches=True, uses_vertices=True, uses_fragments=True),
            PassDescriptor("b", 4, uses_vertices=True, uses_fragments=True),
            PassDescriptor("res", 3, is_resolution=True, fragment_scale_per_level=(1.0, 0.75, 0.5)),
            PassDescriptor("c", 2, uses_fragments=True),
            PassDescriptor("d", 3, uses_batches=True),
            PassDescriptor("e", 4, uses_batches=True, uses_fragments=True),
        )
    )
    for roster, fitted_levels in ((no_resolution, (2, 1, 0)), (mixed, (0, 3, 1, 1, 0, 2))):
        for _ in range(5):
            model = _synthetic_model(roster, rng, fitted_levels)
            table, hook = _synthetic_counts(roster, rng, model.saturation)
            assert predict_all(model, table).tolist() == _per_config_predictions(model, hook)


def test_two_pass_prediction_is_sum_of_per_pass_load_terms():
    prims = ((30.0, 5e4, 1e5), (20.0, 3e4, 9e4))
    terms = pass_loads(TWO_PASS_SAT, TRUE_COEFFS, prims).tolist()
    p = predict_power(TWO_PASS_SAT, TRUE_COEFFS, prims)
    expected = 10.0 + 90.0 * (1.0 - math.exp(-sum(terms)))
    assert p == pytest.approx(expected, rel=1e-12)
    only_first = (prims[0], (0.0, 0.0, 0.0))
    only_second = ((0.0, 0.0, 0.0), prims[1])
    a1 = sum(pass_loads(TWO_PASS_SAT, TRUE_COEFFS, only_first).tolist())
    a2 = sum(pass_loads(TWO_PASS_SAT, TRUE_COEFFS, only_second).tolist())
    assert sum(terms) == pytest.approx(a1 + a2, rel=1e-12)


def test_fit_rejects_fewer_than_three_samples_per_pass():
    rng = np.random.default_rng(9)
    watts, counts = _synthetic_samples(rng, TWO_PASS_SAT, TRUE_COEFFS, 3 * 2)
    fit_coefficients(TWO_PASS_SAT, watts, counts)
    for frames in (slice(0), slice(-1)):
        with pytest.raises(ValueError, match="need at least 6 samples"):
            fit_coefficients(TWO_PASS_SAT, watts[frames], counts[frames])
