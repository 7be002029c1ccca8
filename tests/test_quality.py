from functools import partial

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from rendergov.configspace import (
    PassDescriptor,
    PassRoster,
    RenderingConfiguration,
    single_degradation_config,
)
from rendergov.quality import (
    ErrorModel,
    ErrorRatioTable,
    FrameImage,
    calibrate_ratios,
    estimate_error,
    map_mean,
    quality_error,
    reference_moments,
    row_sums,
    ssim,
    ssim_rows,
    update_worst_errors,
)
from rendergov.simgpu import FrameSynthesizer, PassDegradation, render_frame
from rendergov.truth import FrameScorer

from conftest import _full_frame_scorer


def _pattern(size=16, shift=0.0):
    y, x = np.mgrid[0:size, 0:size].astype(float)
    return np.clip(0.5 + 0.3 * np.sin(x / 2.0 + shift) * np.cos(y / 3.0), 0.0, 1.0)


def test_ssim_identical_images_is_exactly_one():
    img = FrameImage(_pattern())
    assert ssim(img, img) == 1.0


def test_ssim_constant_image_self_similarity():
    img = FrameImage(np.full((16, 16), 0.4))
    assert ssim(img, img) == 1.0


def test_ssim_negative_image_below_one():
    a = _pattern()
    assert ssim(FrameImage(a), FrameImage(1.0 - a)) < 1.0


def test_ssim_matches_naive_reference_on_blurred_pattern(naive_ssim):
    from scipy.ndimage import uniform_filter

    a = _pattern(16)
    b = uniform_filter(a, size=3)
    assert abs(ssim(FrameImage(a), FrameImage(b)) - naive_ssim(a, b)) <= 1e-9


def _full_frame_ssim(x: np.ndarray, y: np.ndarray) -> float:
    """SSIM as computed before row cropping: padded scipy filters over the
    whole frame, cropped to the valid windows, mean over the full map as
    quality.map_mean defines it: each row's np.add.reduce, added first row
    to last, over the map's size."""
    half = np.arange(11) - 5.0
    taps = np.exp(-(half * half) / (2.0 * 1.5 * 1.5))
    taps /= taps.sum()

    def windowed_mean(img):
        out = correlate1d(img, taps, axis=0, mode="constant")
        return correlate1d(out, taps, axis=1, mode="constant")[5:-5, 5:-5]

    mu_x, mu_y = windowed_mean(x), windowed_mean(y)
    var_x = windowed_mean(x * x) - mu_x * mu_x
    var_y = windowed_mean(y * y) - mu_y * mu_y
    cov = windowed_mean(x * y) - mu_x * mu_y
    c1, c2 = 0.01**2, 0.03**2
    ssim_map = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(sum(np.add.reduce(row) for row in ssim_map) / ssim_map.size)


def _bit_exact_pairs():
    rng = np.random.default_rng(21)
    base = rng.uniform(0.0, 1.0, (64, 48))
    pairs = [("identical", base, base.copy())]
    for name, row in (("first row", 0), ("middle row", 31), ("last row", 63)):
        y = base.copy()
        y[row] = rng.uniform(0.0, 1.0, 48)
        pairs.append((name, base, y))
    pairs.append(("all rows", base, rng.uniform(0.0, 1.0, base.shape)))
    pairs.append(("11x11", rng.uniform(0.0, 1.0, (11, 11)), rng.uniform(0.0, 1.0, (11, 11))))
    y = base.copy()
    y[5:9, :] = 0.5
    y[40:44, 3:7] = 0.25
    pairs.append(("two separate bands", base, y))
    for k in range(3):
        pairs.append((f"random {k}", *rng.uniform(0.0, 1.0, (2, 33, 29))))
    # Noisy bands of random height and place: summing the computed rows
    # apart from the rows of ones would drift in the last place on some.
    for k in range(24):
        y = base.copy()
        r0 = rng.integers(0, 60)
        r1 = r0 + rng.integers(1, 9)
        y[r0:r1] = np.clip(y[r0:r1] + rng.normal(0.0, 0.1, y[r0:r1].shape), 0.0, 1.0)
        pairs.append((f"noisy band {k}", base, y))
    roster = PassRoster(tuple(PassDescriptor(n, 3, uses_fragments=True) for n in "abcd"))
    synth = FrameSynthesizer(
        roster=roster,
        degradations=(
            PassDegradation("blur", (0.0, 1.0, 2.0)),
            PassDegradation("noise", (0.0, 0.05, 0.1)),
            PassDegradation("pixelate", (0.0, 2.0, 4.0)),
            PassDegradation("area_noise", (0.0, 0.3, 0.6)),
        ),
        height=64,
        width=64,
        seed=9,
    )
    ref = render_frame(synth, roster.best_config(), 17).pixels
    for i in range(roster.size):
        band = render_frame(synth, single_degradation_config(roster, i, 2), 17).pixels
        pairs.append((f"synthesizer band {i}", ref, band))
    return pairs


def test_cropped_ssim_is_bit_exact():
    for name, x, y in _bit_exact_pairs():
        ref, candidate = FrameImage(x), FrameImage(y)
        want = _full_frame_ssim(x, y)
        assert ssim(ref, candidate) == want, name
        moments = reference_moments(ref)
        assert np.array_equal(ssim_rows(x, y, moments), ssim_rows(x, y)), name


def test_map_mean_adds_row_sums_in_map_order():
    """A map's mean is its row sums added first row to last, over its size,
    whether its rows are summed one map at a time or as a batch of maps."""
    rng = np.random.default_rng(7)
    # The map shapes of 128, 64 and 40 px frames, a non-square one, and one
    # whose rows are longer than numpy's pairwise block of 128 elements.
    for shape in ((118, 118), (54, 54), (30, 30), (37, 91), (41, 140)):
        size = shape[0] * shape[1]
        for count in (1, 5):
            maps = rng.uniform(-1.0, 1.0, size=(count, *shape))
            maps[:, : shape[0] // 3] = 1.0
            loops = []
            for m in maps:
                total = 0.0
                for row_sum in m.sum(axis=1):
                    total += row_sum
                loops.append(total / size)
                assert map_mean(row_sums(m), size) == loops[-1], shape
                one_at_a_time = [np.add.reduce(row) for row in m]
                assert row_sums(m).tolist() == one_at_a_time, shape
            # A batch of maps, and the Fortran-ordered maps ssim_rows returns.
            assert map_mean(row_sums(maps), size).tolist() == loops, (shape, count)
            fortran = np.asfortranarray(maps)
            assert map_mean(row_sums(fortran), size).tolist() == loops, (shape, count)


def test_ssim_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ssim(FrameImage(np.zeros((16, 16))), FrameImage(np.zeros((16, 20))))
    with pytest.raises(ValueError):
        ssim(FrameImage(np.zeros((8, 8))), FrameImage(np.zeros((8, 8))))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
@seed(13)
def test_ssim_symmetry(rng_seed):
    rng = np.random.default_rng(rng_seed)
    a = FrameImage(rng.uniform(0, 1, (16, 16)))
    b = FrameImage(rng.uniform(0, 1, (16, 16)))
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12


def test_quality_error_identical_frames_is_zero():
    img = FrameImage(_pattern())
    assert quality_error(img, img) == 0.0


def test_quality_error_orders_with_degradation_magnitude():
    rng = np.random.default_rng(3)
    a = _pattern(32)
    noise = rng.normal(0.0, 1.0, a.shape)
    small = FrameImage(np.clip(a + 0.03 * noise, 0, 1))
    large = FrameImage(np.clip(a + 0.12 * noise, 0, 1))
    ref = FrameImage(a)
    e_small = quality_error(ref, small)
    e_large = quality_error(ref, large)
    assert 0.0 < e_small < e_large


def _ratio_roster(levels=3):
    return PassRoster(
        (
            PassDescriptor("a", levels, uses_fragments=True),
            PassDescriptor("b", levels, uses_fragments=True),
        )
    )


def test_calibrate_ratios_level_independent_degradation_gives_unit_ratios():
    roster = _ratio_roster()
    base = _pattern(32)
    corrupted = np.clip(base + 0.2 * np.sin(np.arange(32) / 1.3), 0, 1)

    def render(config, frame):
        if any(lvl > 0 for lvl in config):
            return FrameImage(corrupted)
        return FrameImage(base)

    table = calibrate_ratios(_full_frame_scorer(render, roster), roster, [0, 1])
    for row in table.ratios:
        assert row[1] == pytest.approx(1.0, abs=1e-12)
        assert row[2] == 1.0


def test_calibrate_ratios_flags_inert_pass():
    roster = _ratio_roster()
    base = _pattern(32)

    def render(config, frame):
        if config[0] > 0:
            return FrameImage(np.clip(base + 0.1, 0, 1))
        return FrameImage(base)  # pass 1 never changes anything

    table = calibrate_ratios(_full_frame_scorer(render, roster), roster, [0])
    # A pass with no usable frame gets all-zero ratios; the other reaches 1.
    assert table.ratios[0][-1] == 1.0
    assert all(r == 0.0 for r in table.ratios[1])


def test_calibrate_ratios_rejects_empty_calibration():
    roster = _ratio_roster()
    with pytest.raises(ValueError):
        calibrate_ratios(
            _full_frame_scorer(lambda c, f: FrameImage(_pattern()), roster), roster, []
        )


def test_calibrate_ratios_linear_area_degradation_matches_strength_ratios():
    roster = PassRoster(
        (
            PassDescriptor("cover", 3, uses_fragments=True),
            PassDescriptor("other", 2, uses_fragments=True),
        )
    )
    synth = FrameSynthesizer(
        roster=roster,
        degradations=(
            PassDegradation("area_noise", (0.0, 0.4, 0.8), amplitude=0.3),
            PassDegradation("noise", (0.0, 0.1)),
        ),
        height=128,
        width=128,
        seed=5,
    )
    table = calibrate_ratios(partial(FrameScorer, synth), roster, [11, 57, 203])
    want = 0.4 / 0.8
    assert table.ratios[0][1] == pytest.approx(want, rel=0.1)
    assert table.ratios[0][2] == 1.0


@pytest.mark.parametrize("name", ["demo_scenario", "mini_scenario", "lattice_scenario"])
def test_calibrate_ratios_through_frame_scorer_equals_full_frame_scores(name, request):
    scenario = request.getfixturevalue(name)
    synth, roster = scenario.synthesizer, scenario.roster
    frames = scenario.calibration_frames
    full_frame = _full_frame_scorer(lambda c, f: render_frame(synth, c, f), roster)
    table = calibrate_ratios(partial(FrameScorer, synth), roster, frames)
    assert table == calibrate_ratios(full_frame, roster, frames)
    assert any(row[-1] != 0.0 for row in table.ratios)


def _error_model():
    ratios = ErrorRatioTable(((0.0, 0.5, 1.0), (0.0, 0.25, 1.0), (0.0, 0.5, 1.0)))
    return ErrorModel((0.04, 0.03, 0.02), ratios, (10, 10, 10))


def test_update_worst_errors_is_incremental():
    em = _error_model()
    ref = FrameImage(_pattern(32))
    rng = np.random.default_rng(8)
    bg = FrameImage(np.clip(_pattern(32) + rng.normal(0, 0.1, (32, 32)), 0, 1))
    updated = update_worst_errors(em, {1: quality_error(ref, bg)}, ref_frame=50)
    assert updated.e_worst[0] == em.e_worst[0]
    assert updated.e_worst[2] == em.e_worst[2]
    assert updated.e_worst[1] == pytest.approx(quality_error(ref, bg))
    assert updated.ref_frames == (10, 50, 10)
    assert updated.staleness(60) == (50, 10, 50)


def test_update_worst_errors_identical_background_gives_zero():
    em = _error_model()
    ref = FrameImage(_pattern(32))
    updated = update_worst_errors(em, {0: quality_error(ref, ref)}, ref_frame=5)
    assert updated.e_worst[0] == 0.0


def test_estimate_error_best_config_is_zero():
    em = _error_model()
    assert estimate_error(em, RenderingConfiguration((0, 0, 0))) == 0.0


def test_estimate_error_worked_additivity_example():
    # pass 0 fully degraded (ratio 1, worst error 0.04) plus pass 2 at a
    # mid level whose ratio-scaled error is 0.01
    ratios = ErrorRatioTable(((0.0, 0.5, 1.0), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    em = ErrorModel((0.04, 0.1, 0.02), ratios, (0, 0, 0))
    e = estimate_error(em, RenderingConfiguration((2, 0, 1)))
    assert e == pytest.approx(0.05, abs=1e-12)


def test_estimate_error_worst_level_recovers_e_worst_exactly():
    em = _error_model()
    assert estimate_error(em, RenderingConfiguration((2, 0, 0))) == em.e_worst[0]
    assert estimate_error(em, RenderingConfiguration((0, 2, 0))) == em.e_worst[1]


def test_estimate_error_monotone_in_ratio_scaled_contribution():
    em = _error_model()
    low = estimate_error(em, RenderingConfiguration((1, 0, 0)))
    high = estimate_error(em, RenderingConfiguration((2, 0, 0)))
    assert high >= low


def test_error_model_initial_is_all_zero_and_never_updated():
    em = ErrorModel.initial(ErrorRatioTable(((0.0, 1.0),)))
    assert em.e_worst == (0.0,)
    assert em.staleness(100) == (-1,)
