"""Exact SSIM ground truth of one frame's configurations.

Every SSIM the program scores goes through this module's view of a frame:
:func:`map_segments` splits the SSIM map into runs of rows whose windows
touch the same passes, and :class:`Bands` renders each (pass, level) band
once from the frame's all-best render. A :class:`FrameScorer` scores any
list of configurations of one frame; the governor's background SSIMs, ratio
calibration and ``harness._true_errors`` all use it. :func:`lattice_errors`
scores every configuration at once for ``harness.oracle_table``. Both sum
each distinct map row once and take every map's mean from those row sums as
:func:`quality.map_mean` defines it, so both give, bit for bit, what
:func:`quality.quality_error` gives for full-frame renders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .configspace import PassRoster, level_grid
from .quality import (
    SSIM_WINDOW,
    ReferenceMoments,
    check_intensities,
    map_mean,
    reference_moments,
    row_sums,
    ssim_rows,
)
from .scenario import Scenario
from .simgpu import FrameSynthesizer, render_band, render_frame


@dataclass(frozen=True)
class MapSegments:
    """How an SSIM map splits into segments, for frames whose pass bands
    start at image rows ``starts``.

    A pass degrades only its own band, and an SSIM map row depends only on
    the image rows its window covers, so a map row is a function of the
    levels of the passes whose bands that window touches. A segment is a run
    of map rows whose windows touch the same passes.
    """

    # Per segment: (first map row, end row, first pass, end pass).
    bounds: tuple[tuple[int, int, int, int], ...]
    # Per map row: its segment, and its row within that segment.
    segment_of: np.ndarray
    local: np.ndarray
    # Per image row: the pass whose band holds it.
    band_of: np.ndarray


@lru_cache(maxsize=8)
def map_segments(starts: tuple[int, ...], height: int) -> MapSegments:
    span = SSIM_WINDOW - 1
    n_rows = height - span
    # Map row r's window covers image rows r .. r + span, which belong to
    # passes band_of[r] .. band_of[r + span]; a segment starts wherever
    # either end changes.
    band_of = np.searchsorted(starts, np.arange(height), side="right") - 1
    first, last = band_of[:n_rows], band_of[span:]
    cuts = np.flatnonzero((first[1:] != first[:-1]) | (last[1:] != last[:-1])) + 1
    rows = [0, *cuts.tolist(), n_rows]
    lengths = np.diff(rows)
    segment_of = np.repeat(np.arange(len(lengths)), lengths)
    local = np.arange(n_rows) - np.repeat(rows[:-1], lengths)
    for array in (segment_of, local, band_of):
        array.setflags(write=False)
    bounds = tuple(
        (rows[s], rows[s + 1], int(first[rows[s]]), int(last[rows[s]]) + 1)
        for s in range(len(lengths))
    )
    return MapSegments(bounds, segment_of, local, band_of)


def band_starts(synth: FrameSynthesizer) -> tuple[int, ...]:
    return tuple(synth.band(i)[0] for i in range(synth.roster.size))


class Bands(dict):
    """``bands[pass, level]``: that pass's band of one frame at that level,
    rendered from ``base``, the frame's base pattern, and range-checked on
    first use."""

    def __init__(self, synth: FrameSynthesizer, frame: int, base: np.ndarray):
        super().__init__()
        self.synth, self.frame, self.base = synth, frame, base

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        rows = render_band(self.synth, *key, self.frame, self.base)
        check_intensities(rows)
        self[key] = rows
        return rows


class FrameScorer:
    """Exact ``1 - SSIM`` of configurations of one frame, against its
    all-best render; ``scorer(configs)`` gives one score per configuration.

    The reference is rendered once, when the scorer is made, and each
    (pass, level) band once, from the reference's rows, on first use. So a
    frame's base pattern is computed at most once however many calls score
    it, whatever the pattern cache has evicted in between. The all-best
    configuration scores exactly 0.0. When one call scores more than one
    distinct degraded configuration, the reference's moments are computed
    once and shared.

    Work is shared across a call's candidates per band instead of per frame:
    each run of map rows of a :class:`MapSegments` segment at given levels is
    computed once, and its :func:`quality.row_sums` go into a bank. The bank
    starts with a block of the sums of 1.0 rows, which stands for every
    segment whose passes are all at level 0, as :func:`quality.ssim` leaves
    those rows. Each candidate's row sums are gathered from the bank and
    averaged by :func:`quality.map_mean`. So every score is bitwise the one
    :func:`quality.quality_error` gives for the whole frame.
    """

    def __init__(self, synth: FrameSynthesizer, frame: int):
        self.synth, self.frame = synth, frame
        self.reference = render_frame(synth, synth.roster.best_config(), frame)
        self.bands = Bands(synth, frame, self.reference.pixels)

    def __call__(self, configs) -> list[float]:
        best = self.synth.roster.best_config()
        degraded = list(dict.fromkeys(c for c in configs if c != best))
        if not degraded:
            return [0.0] * len(configs)
        x = self.reference.pixels
        moments = reference_moments(self.reference) if len(degraded) > 1 else None
        span = SSIM_WINDOW - 1
        starts = band_starts(self.synth)
        segmentation = map_segments(starts, self.synth.height)
        segments = segmentation.bounds
        bands = self.bands

        # The row-sum bank's parts: a block of 1.0 rows' sums, each exactly
        # the map's width, then each filled run's.
        longest = max(hi - lo for lo, hi, _, _ in segments)
        width = x.shape[1] - span
        parts = [np.full(longest, float(width))]
        used = longest
        # Per segment: its passes, and their levels -> first bank row of the block.
        memos = [(q0, q1, {(0,) * (q1 - q0): 0}) for _, _, q0, q1 in segments]

        def fill(config, run) -> None:
            # One filter over a run of adjacent uncached segments, split into the memos.
            nonlocal used
            lo, hi = segments[run[0]][0], segments[run[-1]][1]
            p0, p1 = segments[run[0]][2], segments[run[-1]][3]
            ys = np.concatenate([bands[i, config[i]] for i in range(p0, p1)])
            ys = ys[lo - starts[p0] : hi + span - starts[p0]]
            rows = ssim_rows(
                x[lo : hi + span], ys, None if moments is None else moments.rows(lo, hi)
            )
            parts.append(row_sums(rows))
            for s in run:
                q0, q1, memo = memos[s]
                memo[config.levels[q0:q1]] = used + segments[s][0] - lo
            used += hi - lo

        # Each candidate's bank block per segment, filling the memos as needed.
        blocks = []
        for config in degraded:
            levels = config.levels
            row = [memo.get(levels[q0:q1]) for q0, q1, memo in memos]
            if None in row:
                run: list[int] = []
                # A trailing sentinel block ends the last run.
                for s, block in enumerate([*row, 0]):
                    if block is None:
                        run.append(s)
                    elif run:
                        fill(config, run)
                        run = []
                row = [memo[levels[q0:q1]] for q0, q1, memo in memos]
            blocks.append(row)
        bank = np.concatenate(parts)
        # A candidate's map row r is row local[r] of the bank block that holds
        # its levels of segment segment_of[r].
        sums = bank[np.array(blocks)[:, segmentation.segment_of] + segmentation.local]
        ssims = map_mean(sums, sums.shape[1] * width).tolist()
        scores = {config: max(0.0, 1.0 - ssim) for config, ssim in zip(degraded, ssims)}
        return [scores.get(c, 0.0) for c in configs]


# Map rows one filter call of :func:`lattice_errors` computes at most, junk
# rows included, unless one run is longer. On demo (128 px) 64-80 rows were
# the fastest; 128 and more were slower, as the filter's temporaries outgrow
# the cache, and peak memory grows with them.
_FILL_ROWS = 64


@dataclass(frozen=True)
class _LatticePlan:
    """Everything :func:`lattice_errors` needs that depends only on the
    roster and the frame geometry."""

    # Per filter call: the reference's image rows, the candidate's rows in
    # the frame's band stack, the reference moments' rows, and the output
    # rows the bank keeps.
    fills: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    # The bank's row sums: a block of ``ones`` sums of 1.0 rows, then the
    # kept rows' sums.
    ones: int
    rows: int
    # Per map row, in order: the bank entry of its sum, over
    # :func:`configspace.level_grid` shapes of the levels of the passes its
    # segment touches.
    tables: tuple[np.ndarray, ...]
    # Elements per map, and the lattice's shape.
    size: int
    shape: tuple[int, ...]


def _fill_runs(segments, counts) -> list[tuple[int, int, dict[int, int]]]:
    """Runs ``(first segment, last segment, level per pass)`` of adjacent
    segments that cover each segment at each combination of its passes'
    levels except all-0, once.

    Each run starts at the first segment with a combination left and extends
    while the next segment has one left that agrees on their shared passes.
    """
    left = [
        set(itertools.product(*map(range, counts[q0:q1]))) - {(0,) * (q1 - q0)}
        for _, _, q0, q1 in segments
    ]
    runs = []
    for s, (_, _, q0, q1) in enumerate(segments):
        while left[s]:
            combo = min(left[s])
            left[s].remove(combo)
            levels = dict(zip(range(q0, q1), combo))
            t = s + 1
            while t < len(segments):
                _, _, p0, p1 = segments[t]
                shared = [(q, levels[q]) for q in range(p0, p1) if q in levels]
                agree = (c for c in left[t] if all(c[q - p0] == v for q, v in shared))
                fit = min(agree, default=None)
                if fit is None:
                    break
                left[t].remove(fit)
                levels.update(zip(range(p0, p1), fit))
                t += 1
            runs.append((s, t - 1, levels))
    return runs


@lru_cache(maxsize=8)
def _lattice_plan(
    roster: PassRoster, starts: tuple[int, ...], height: int, width: int
) -> _LatticePlan:
    """The fills and row-sum tables of :func:`lattice_errors`.

    The runs of :func:`_fill_runs` are stacked into filter calls of at most
    :data:`_FILL_ROWS` map rows; the 10 map rows between two stacked runs
    mix both runs' image rows and are dropped. Each map row's table spans
    the levels of the passes its segment touches, along those passes' axes
    of :func:`configspace.level_grid`.
    """
    segments = map_segments(starts, height)
    span = SSIM_WINDOW - 1
    n_rows, w = height - span, width - span
    counts = tuple(p.level_count for p in roster.passes)
    sizes = np.diff([*starts, height])
    # The band stack is the reference frame, whose rows are every pass at
    # level 0, then each pass's band at each level above 0: image row y of
    # pass q's band at level l > 0 is row stack_at[q] + l * sizes[q] + y.
    above_0 = sizes * (np.array(counts) - 1)
    stack_at = height + np.cumsum([0, *above_0[:-1]]) - sizes - starts

    ones = max(hi - lo for lo, hi, _, _ in segments.bounds)
    # Per segment: the bank row of each combination of its passes' levels,
    # for the segment's first map row; all-0 is the 1.0 block.
    first = [np.zeros(counts[q0:q1], dtype=np.intp) for *_, q0, q1 in segments.bounds]
    fills, batch, bank_rows = [], [], ones

    def flush() -> None:
        image = np.concatenate([rows for rows, _ in batch])
        keep = np.concatenate([np.arange(len(rows)) < len(rows) - span for rows, _ in batch])
        ys = np.concatenate([ys for _, ys in batch])
        fills.append((image, ys, np.minimum(image[:-span], n_rows - 1), np.flatnonzero(keep)))
        batch.clear()

    for s, t, levels in _fill_runs(segments.bounds, counts):
        lo, hi = segments.bounds[s][0], segments.bounds[t][1]
        if batch and sum(len(rows) for rows, _ in batch) + hi - lo > _FILL_ROWS:
            flush()
        image = np.arange(lo, hi + span)
        passes = segments.band_of[image]
        level = np.array([levels[q] for q in passes.tolist()])
        degraded = stack_at[passes] + level * sizes[passes]
        batch.append((image, np.where(level > 0, degraded, 0) + image))
        for u in range(s, t + 1):
            lo_u, _, q0, q1 = segments.bounds[u]
            first[u][tuple(levels[q] for q in range(q0, q1))] = bank_rows + lo_u - lo
        bank_rows += hi - lo
    if batch:
        flush()

    grid = level_grid(roster)
    tables = tuple(
        rows[grid[q0:q1]] + k
        for (lo, hi, q0, q1), rows in zip(segments.bounds, first)
        for k in range(hi - lo)
    )
    return _LatticePlan(
        fills=tuple(fills),
        ones=ones,
        rows=bank_rows,
        tables=tables,
        size=n_rows * w,
        shape=counts,
    )


def lattice_errors(scenario: Scenario, frame: int) -> np.ndarray:
    """Exact ``1 - SSIM`` of every configuration at ``frame``, in enumeration
    order; a :class:`FrameScorer`'s scores of the whole lattice, bit for bit.

    Every segment's map rows are filled for every combination of its passes'
    levels, against reference moments computed once, and summed by
    :func:`quality.row_sums`. A map row's sum depends only on the levels of
    the passes its segment touches, so each map row's sums form a table
    over those levels that broadcasts over :func:`configspace.level_grid`
    shapes, as :func:`powermodel.lattice_loads` spreads each pass's load
    terms. The tables are added into one running total, first map row to
    last, and the total is divided by the map's size once. That is
    :func:`quality.map_mean`'s definition, so every configuration's error
    has the bits of the mean of its own row sums.
    """
    synth, roster = scenario.synthesizer, scenario.roster
    plan = _lattice_plan(roster, band_starts(synth), synth.height, synth.width)
    reference = render_frame(synth, roster.best_config(), frame)
    moments = reference_moments(reference)
    bands = Bands(synth, frame, reference.pixels)
    stack = [reference.pixels]
    for i, p in enumerate(roster.passes):
        stack += [bands[i, level] for level in range(1, p.level_count)]
    stack = np.concatenate(stack)
    del reference, bands  # the stack holds their rows now
    bank = np.empty(plan.rows)
    # A row of 1.0s sums exactly to the map's width.
    bank[: plan.ones] = synth.width - SSIM_WINDOW + 1
    at = plan.ones
    for image, ys, rows, keep in plan.fills:
        m = ReferenceMoments(moments.mean[rows], moments.mean_sq[rows])
        bank[at : at + len(keep)] = row_sums(ssim_rows(stack[image], stack[ys], m))[keep]
        at += len(keep)
    # 0.0 + x is x, so the total starts where map_mean's fold does.
    total = np.zeros(plan.shape)
    for table in plan.tables:
        total += bank[table]
    return np.maximum(1.0 - total / plan.size, 0.0).ravel()
