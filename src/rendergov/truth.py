"""Exact SSIM ground truth of one frame's configurations.

Every SSIM the program scores goes through this module's view of a frame:
:func:`map_segments` splits the SSIM map into runs of rows whose windows
touch the same passes, and :class:`Bands` renders each (pass, level) band
once from the frame's all-best render. A :class:`FrameScorer` scores any
list of configurations of one frame; the governor's background SSIMs, ratio
calibration and ``harness._true_errors`` all use it. :func:`lattice_errors`
scores every configuration at once for ``harness.oracle_table``. Both give,
bit for bit, what :func:`quality.quality_error` gives for full-frame renders,
within one numpy build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .configspace import PassRoster, level_grid
from .quality import (
    SSIM_WINDOW,
    ReferenceMoments,
    check_intensities,
    reference_moments,
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
    computed once into a row bank. The bank starts with a block of 1.0 rows,
    which stands for every segment whose passes are all at level 0, as
    :func:`quality.ssim` leaves those rows. Each candidate's whole map is
    gathered from the bank and averaged in full along one axis, which sums in
    the order of the map's own ``mean()``. So every score is bitwise the one
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

        # The row bank's parts: a block of 1.0 rows, then each filled run.
        longest = max(hi - lo for lo, hi, _, _ in segments)
        parts = [np.ones((longest, x.shape[1] - span))]
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
            parts.append(rows)
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
        del parts  # the bank holds every part now
        # A candidate's map row r is row local[r] of the bank block that holds
        # its levels of segment segment_of[r].
        maps = bank[np.array(blocks)[:, segmentation.segment_of] + segmentation.local]
        ssims = maps.reshape(len(maps), -1).mean(axis=1).tolist()
        scores = {config: max(0.0, 1.0 - ssim) for config, ssim in zip(degraded, ssims)}
        return [scores.get(c, 0.0) for c in configs]


# The most elements numpy's pairwise summation adds in one block (its
# PW_BLOCKSIZE), with eight partial sums.
PAIRWISE_BLOCK = 128


def pairwise_sum(block, lo: int, hi: int):
    """Elements ``lo .. hi - 1`` of a contiguous float64 array, summed in the
    order of numpy's pairwise summation, given ``block(lo, hi)``: the sum of
    each block of at most :data:`PAIRWISE_BLOCK` elements.

    numpy splits a range of more than a block at half its length, rounded
    down to a multiple of 8, and adds the halves' sums; ``np.add.reduce``
    along a row of at most a block sums that block the way the whole array's
    reduction does. With ``block`` returning ``[(lo, hi)]`` the result is the
    list of blocks, in order.
    """
    if hi - lo <= PAIRWISE_BLOCK:
        return block(lo, hi)
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return pairwise_sum(block, lo, mid) + pairwise_sum(block, mid, hi)


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
    # The bank's rows: a block of ``ones`` rows of 1.0, then the kept rows.
    ones: int
    rows: int
    # Per summation block length: bank indices, one row per block of that
    # length and combination of levels. int32 halves what the plan holds
    # (0.64 -> 0.32 MB on demo), for ~0.2 ms more per call in the gathers.
    gathers: dict[int, np.ndarray]
    # Per block's first element: its length, its rows in that gather, and
    # its table's level-grid shape.
    blocks: dict[int, tuple[int, int, int, tuple[int, ...]]]
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
    """The fills and gathers of :func:`lattice_errors`.

    The runs of :func:`_fill_runs` are stacked into filter calls of at most
    :data:`_FILL_ROWS` map rows; the 10 map rows between two stacked runs
    mix both runs' image rows and are dropped. Each summation block's bank
    indices span the levels of the passes its rows' segments touch, along
    those passes' axes of :func:`configspace.level_grid`.
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
    # Per segment: the bank row of each combination of its passes' levels
    # (row-major), for the segment's first map row; all-0 is the 1.0 block.
    first = [
        np.zeros(math.prod(counts[q0:q1]), dtype=np.intp) for *_, q0, q1 in segments.bounds
    ]
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
            combo = np.ravel_multi_index([levels[q] for q in range(q0, q1)], counts[q0:q1])
            first[u][combo] = bank_rows + lo_u - lo
        bank_rows += hi - lo
    if batch:
        flush()

    grid = level_grid(roster)
    # Per segment, over the lattice: its first row's bank row.
    block_rows = []
    for (*_, q0, q1), rows in zip(segments.bounds, first):
        combo = 0
        for q in range(q0, q1):
            combo = combo * counts[q] + grid[q]
        block_rows.append(rows[combo])
    size = n_rows * w
    gathers: dict[int, list[np.ndarray]] = {}
    blocks = {}
    for lo, hi in pairwise_sum(lambda lo, hi: [(lo, hi)], 0, size):
        row, col = np.divmod(np.arange(lo, hi), w)
        of = segments.segment_of[row]
        parts = [
            (block_rows[u][..., None] + segments.local[row[of == u]]) * w + col[of == u]
            for u in range(of[0], of[-1] + 1)
        ]
        shape = np.broadcast_shapes(*(part.shape[:-1] for part in parts))
        index = np.concatenate([np.broadcast_to(p, (*shape, p.shape[-1])) for p in parts], axis=-1)
        group = gathers.setdefault(hi - lo, [])
        start = sum(map(len, group))
        group.append(index.reshape(-1, hi - lo))
        blocks[lo] = (hi - lo, start, start + len(group[-1]), shape)
    return _LatticePlan(
        fills=tuple(fills),
        ones=ones,
        rows=bank_rows,
        gathers={n: np.concatenate(group).astype(np.int32) for n, group in gathers.items()},
        blocks=blocks,
        size=size,
        shape=counts,
    )


def lattice_errors(scenario: Scenario, frame: int) -> np.ndarray:
    """Exact ``1 - SSIM`` of every configuration at ``frame``, in enumeration
    order; a :class:`FrameScorer`'s scores of the whole lattice, bit for bit.

    Every segment's map rows are filled for every combination of its passes'
    levels, against reference moments computed once. A map's mean is the
    pairwise sum of its summation blocks (:func:`pairwise_sum`) over its
    size, and a block's sum depends only on the levels of the passes its
    rows' segments touch. So each block becomes a table over those levels,
    one ``np.add.reduce`` row per combination, and the tables are added in
    numpy's order by broadcasting over :func:`configspace.level_grid`
    shapes, as :func:`simgpu.exact_power_all` adds its per-pass tables.
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
    bank = np.empty((plan.rows, synth.width - SSIM_WINDOW + 1))
    bank[: plan.ones] = 1.0
    at = plan.ones
    for image, ys, rows, keep in plan.fills:
        m = ReferenceMoments(moments.mean[rows], moments.mean_sq[rows])
        bank[at : at + len(keep)] = ssim_rows(stack[image], stack[ys], m)[keep]
        at += len(keep)
    bank = bank.ravel()
    sums = {n: np.add.reduce(bank[index], axis=1) for n, index in plan.gathers.items()}

    def block(lo: int, hi: int) -> np.ndarray:
        n, a, b, shape = plan.blocks[lo]
        return sums[n][a:b].reshape(shape)

    ssims = np.broadcast_to(pairwise_sum(block, 0, plan.size), plan.shape) / plan.size
    return np.maximum(1.0 - ssims, 0.0).ravel()
