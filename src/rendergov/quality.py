"""SSIM-based quality error and its extrapolation to the whole configuration space.

Computing the error of every configuration by rendering it is unaffordable, so
the error model keeps one computed worst-level error per pass and scales it to
intermediate levels with pre-calibrated ratios; a configuration's error is the
sum of its degraded passes' contributions. The sum may exceed 1 -- only its
ordering matters to the selection step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .configspace import (
    PassRoster,
    RenderingConfiguration,
    level_grid,
    single_degradations,
)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_DYNAMIC_RANGE = 1.0

# Errors below this are treated as "the pass did nothing in this frame" during
# ratio calibration.
INERT_ERROR_FLOOR = 1e-6


@dataclass(frozen=True)
class FrameImage:
    """Row-major grayscale frame with intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        check_intensities(px)
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def check_intensities(pixels: np.ndarray) -> None:
    """Raise ValueError unless every intensity lies in [0, 1]."""
    if pixels.size and (pixels.min() < 0.0 or pixels.max() > 1.0):
        raise ValueError("intensities must lie in [0, 1]")


def _gaussian_taps(window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (window - 1) / 2.0
    x = np.arange(window) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


_TAPS = _gaussian_taps()
_HALF = SSIM_WINDOW // 2


def _valid_correlate(img: np.ndarray) -> np.ndarray:
    """Gaussian along axis 0, only where the window lies inside ``img``.

    Accumulates in the order scipy.ndimage.correlate1d uses for symmetric
    taps (centre tap, then mirrored pairs from the outermost in), so every
    value is bitwise equal to scipy's.
    """
    n = img.shape[0]
    out = img[_HALF : n - _HALF] * _TAPS[_HALF]
    for j in range(_HALF, 0, -1):
        pair = img[_HALF - j : n - _HALF - j] + img[_HALF + j : n - _HALF + j]
        out += pair * _TAPS[_HALF - j]
    return out


def _windowed_mean(img: np.ndarray) -> np.ndarray:
    # Separable Gaussian over the windows fully inside the image; the second
    # pass runs on a transposed copy so both passes slice whole rows.
    return _valid_correlate(_valid_correlate(img).T.copy()).T


@dataclass(frozen=True)
class ReferenceMoments:
    """Windowed mean and mean square of a reference frame, for every window.

    Computed once per reference and passed to :func:`ssim_rows`, so scoring
    many candidates against one reference filters only the candidate terms.
    """

    mean: np.ndarray
    mean_sq: np.ndarray

    def rows(self, lo: int, hi: int) -> "ReferenceMoments":
        """The moments of map rows ``lo .. hi - 1``."""
        return ReferenceMoments(self.mean[lo:hi], self.mean_sq[lo:hi])


def reference_moments(reference: FrameImage) -> ReferenceMoments:
    x = reference.pixels
    return ReferenceMoments(_windowed_mean(x), _windowed_mean(x * x))


def ssim_rows(
    xs: np.ndarray, ys: np.ndarray, moments: ReferenceMoments | None = None
) -> np.ndarray:
    """SSIM map rows for a run of reference rows ``xs`` and candidate rows ``ys``.

    Map row r covers image rows r .. r + 10 of the slices, so the result has
    10 rows and 10 columns fewer than they do. Every entry depends only on its
    own window, so it is bitwise the same whichever rows around it are
    computed with it. ``moments``, if given, must be the reference moments of
    exactly these map rows.
    """
    if moments is None:
        mu_x = _windowed_mean(xs)
        mean_sq_x = _windowed_mean(xs * xs)
    else:
        mu_x, mean_sq_x = moments.mean, moments.mean_sq
    mu_y = _windowed_mean(ys)
    var_x = mean_sq_x - mu_x * mu_x
    var_y = _windowed_mean(ys * ys) - mu_y * mu_y
    cov = _windowed_mean(xs * ys) - mu_x * mu_y

    c1 = (SSIM_K1 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DYNAMIC_RANGE) ** 2
    return ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )


def row_sums(rows: np.ndarray) -> np.ndarray:
    """Each SSIM map row's sum, by ``np.add.reduce`` along the row, for
    :func:`map_mean`."""
    # A 2-D reduction sums each row as the 1-D one does only in C order;
    # ssim_rows returns its rows in Fortran order.
    return np.add.reduce(np.ascontiguousarray(rows), axis=-1)


def map_mean(sums: np.ndarray, size: int) -> np.ndarray:
    """The mean of SSIM maps of ``size`` elements, from their :func:`row_sums`
    along the last axis: the sums added first row to last, over ``size``.

    Every SSIM of the program takes a map's mean this way. The fold is
    sequential, so each mean is bitwise a plain loop's over its row sums, and
    the scorers of :mod:`truth`, which sum each distinct row once, get the
    bits :func:`ssim` gets for the whole frame.
    """
    return np.add.accumulate(sums, axis=-1)[..., -1] / size


def ssim(reference: FrameImage, candidate: FrameImage) -> float:
    """Mean local structural similarity over Gaussian-weighted 11x11 windows,
    taken by :func:`map_mean`.

    A window covering only rows where the images agree scores exactly 1.0,
    so only the windows that reach a differing row are computed; the rest of
    the map stays 1.0 and the mean runs over the whole map, which keeps the
    result bitwise equal to filtering the full frame.
    """
    if reference.pixels.shape != candidate.pixels.shape:
        raise ValueError(
            f"image dimensions differ: {reference.pixels.shape} vs {candidate.pixels.shape}"
        )
    if min(reference.pixels.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels on each side")
    x = reference.pixels
    y = candidate.pixels
    h, w = x.shape
    ssim_map = np.ones((h - 2 * _HALF, w - 2 * _HALF))
    differing = np.flatnonzero((x != y).any(axis=1))
    if differing.size:
        # Map row r covers image rows r .. r + 2*_HALF.
        lo = max(int(differing[0]) - 2 * _HALF, 0)
        hi = min(int(differing[-1]), h - 2 * _HALF - 1) + 1
        ssim_map[lo:hi] = ssim_rows(x[lo : hi + 2 * _HALF], y[lo : hi + 2 * _HALF])
    return float(map_mean(row_sums(ssim_map), ssim_map.size))


def quality_error(reference: FrameImage, candidate: FrameImage) -> float:
    """1 - SSIM, clamped at zero."""
    return max(0.0, 1.0 - ssim(reference, candidate))


@dataclass(frozen=True)
class ErrorRatioTable:
    """Per pass and level, the error relative to that pass's worst level.

    ``ratios[i][0]`` is 0 (no degradation); ``ratios[i][level_count-1]`` is
    exactly 1. The ratios are a property of the rendering engine, not of the
    scene, so they are calibrated once.
    """

    ratios: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        ratios = tuple(tuple(float(r) for r in row) for row in self.ratios)
        for i, row in enumerate(ratios):
            if any(r < 0 for r in row):
                raise ValueError(f"pass {i}: ratios must be nonnegative")
        object.__setattr__(self, "ratios", ratios)


@dataclass(frozen=True)
class ErrorModel:
    """Computed worst-level errors plus the ratio table, as one snapshot.

    ``ref_frames[i]`` records which scene frame pass i's error was computed
    from (-1 if never); staleness is measured against it.
    """

    e_worst: tuple[float, ...]
    ratios: ErrorRatioTable
    ref_frames: tuple[int, ...]

    def __post_init__(self) -> None:
        e = tuple(float(v) for v in self.e_worst)
        if any(v < 0 for v in e):
            raise ValueError("worst-level errors cannot be negative")
        if len(e) != len(self.ratios.ratios) or len(e) != len(self.ref_frames):
            raise ValueError("error model sections disagree on pass count")
        object.__setattr__(self, "e_worst", e)
        object.__setattr__(self, "ref_frames", tuple(int(f) for f in self.ref_frames))

    @staticmethod
    def initial(ratios: ErrorRatioTable) -> "ErrorModel":
        n = len(ratios.ratios)
        return ErrorModel(tuple(0.0 for _ in range(n)), ratios, tuple(-1 for _ in range(n)))

    def staleness(self, current_frame: int) -> tuple[int, ...]:
        return tuple(
            -1 if rf < 0 else current_frame - rf for rf in self.ref_frames
        )


def calibrate_ratios(
    scorer,
    roster: PassRoster,
    calibration_frames,
) -> ErrorRatioTable:
    """Measure per-level error ratios by exhaustive single-pass degradations.

    ``scorer(frame)`` must return a callable that maps a list of
    configurations to their ``1 - SSIM`` against the all-best render of that
    frame, as :class:`truth.FrameScorer` does; each calibration frame asks it
    once, for every single-pass degradation. For each pass and level the
    ratio is the mean over calibration frames of e(level) / e(worst level);
    frames where the worst level itself produces no error are skipped, and a
    pass with no usable frame at all, or with one level, gets all-zero ratios.
    """
    calibration_frames = list(calibration_frames)
    if not calibration_frames:
        raise ValueError("calibration needs at least one frame")

    degradations = single_degradations(roster)
    configs = list(degradations.values())
    # Per calibration frame: (pass, level) -> error.
    errors = [dict(zip(degradations, scorer(frame)(configs))) for frame in calibration_frames]

    ratios = []
    for i, p in enumerate(roster.passes):
        lmax = p.level_count - 1
        usable = [e for e in errors if lmax and e[i, lmax] >= INERT_ERROR_FLOOR]
        row = [0.0] * (lmax + 1)
        # At the worst level each frame's ratio is 1.0, so the mean is 1.0.
        for lvl in range(1, lmax + 1 if usable else 0):
            row[lvl] = sum((e[i, lvl] / e[i, lmax] for e in usable), 0.0) / len(usable)
        ratios.append(tuple(row))
    return ErrorRatioTable(tuple(ratios))


def update_worst_errors(
    error_model: ErrorModel,
    errors: dict[int, float],
    ref_frame: int,
) -> ErrorModel:
    """Refresh e_worst for the passes whose background SSIMs arrived.

    ``errors`` maps pass index to its worst-level error, ``1 - SSIM`` of the
    frame rendered with that pass fully degraded against the all-best render
    of ``ref_frame``; entries not supplied keep their previous value and age.
    """
    e_worst = list(error_model.e_worst)
    ref_frames = list(error_model.ref_frames)
    for i, error in errors.items():
        e_worst[i] = error
        ref_frames[i] = ref_frame
    return replace(
        error_model, e_worst=tuple(e_worst), ref_frames=tuple(ref_frames)
    )


def estimate_error(error_model: ErrorModel, config: RenderingConfiguration) -> float:
    """Additive error estimate: sum of ratio-scaled worst errors of degraded passes."""
    total = 0.0
    for i, lvl in enumerate(config):
        if lvl > 0:
            total += error_model.ratios.ratios[i][lvl] * error_model.e_worst[i]
    return total


def estimate_all_errors(error_model: ErrorModel, roster: PassRoster) -> np.ndarray:
    """:func:`estimate_error` for every configuration, in enumeration order.

    Per-pass tables (``ratio * e_worst``, 0.0 at level 0) are summed in roster
    order, so every entry equals the scalar estimate exactly.
    """
    grid = level_grid(roster)
    total = np.zeros(tuple(p.level_count for p in roster.passes))
    for i, p in enumerate(roster.passes):
        e = error_model.e_worst[i]
        ratios = error_model.ratios.ratios[i]
        table = np.array([0.0] + [ratios[lvl] * e for lvl in range(1, p.level_count)])
        total = total + table[grid[i]]
    return total.ravel()
