"""Deterministic stand-ins for the GPU, the renderer, and the power meter.

The hidden oracle evaluates the public power model's own formula
(:func:`powermodel.power`) but with its own (possibly distorted) cost
parameters, so "model form correct, parameters unknown" is testable. The scene
trace turns frame indices into per-pass primitive counts; the synthesizer turns
frame indices and configurations into images whose degradations live in
(mostly) disjoint horizontal bands so error additivity approximately holds.
Everything is a pure function of (seed, frame index, configuration).
"""

from __future__ import annotations

import copy
import math
import zlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.ndimage import uniform_filter

from .configspace import PassRoster, RenderingConfiguration
from .powermodel import (
    CostTable,
    SaturationConstants,
    UnitCosts,
    lattice_loads,
    level_coefficients,
    level_rows,
    mean,
    pass_loads,
    per_entry,
    power,
)
from .quality import FrameImage


class ProbeError(RuntimeError):
    """Raised when initialization probing cannot produce usable constants."""


# --------------------------------------------------------------------------
# Scene trace
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """Smooth primitive-count curve: a slow swell plus an optional fast ripple.

    value = base * (1 + amp * sin(2*pi*frame/period + phase)
                      + jitter_amp * sin(2*pi*frame/jitter_period + 1.7*phase))

    The ripple models frame-to-frame content variation; distinct small
    jitter periods across passes keep short fitting windows well conditioned.
    """

    base: float
    amp: float = 0.0
    period: float = 1.0
    phase: float = 0.0
    jitter_amp: float = 0.0
    jitter_period: float = 7.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("curve base must be nonnegative")
        if self.amp < 0 or self.jitter_amp < 0 or self.amp + self.jitter_amp > 1.0:
            raise ValueError("amplitudes must be nonnegative with amp + jitter_amp <= 1")
        if self.period <= 0 or self.jitter_period <= 0:
            raise ValueError("curve periods must be positive")


@dataclass(frozen=True)
class TraceEvent:
    """Scripted content change: from ``frame`` on, scale a pass's counts and/or
    its hidden shader cost. Count changes are visible to the public model
    through the primitive counts; cost changes are not, which is what forces a
    refit."""

    frame: int
    pass_name: str
    count_scale: float = 1.0
    cost_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.count_scale < 0 or self.cost_scale < 0:
            raise ValueError("event scales must be nonnegative")


@dataclass(frozen=True)
class SceneTrace:
    """Per-frame, per-pass primitive generation with per-level multipliers.

    ``curves[i]`` holds (batches, vertices, fragments) curve specs for model
    pass i. ``level_scale_*[i][l]`` multiplies the respective count when pass i
    runs at level l; fragments are additionally scaled by the resolution
    pass's fragment scale.

    ``__post_init__``, which ``dataclasses.replace`` runs again, sets up each
    curve parameter as one ``(passes, 3)`` array and the level scales as one
    ``(levels, passes, 3)`` array, from which :meth:`terms` and
    :meth:`counts` take many frames or configurations in one array pass;
    nothing on the instance grows with the trace.
    """

    frame_count: int
    curves: tuple[tuple[CurveSpec, CurveSpec, CurveSpec], ...]
    level_scale_batches: tuple[tuple[float, ...], ...]
    level_scale_vertices: tuple[tuple[float, ...], ...]
    level_scale_fragments: tuple[tuple[float, ...], ...]
    events: tuple[TraceEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.frame_count < 0:
            raise ValueError("frame count cannot be negative")
        n = len(self.curves)
        tables = (self.level_scale_batches, self.level_scale_vertices, self.level_scale_fragments)
        for name, table in zip(
            ("level_scale_batches", "level_scale_vertices", "level_scale_fragments"), tables
        ):
            if len(table) != n:
                raise ValueError(f"{name} must cover every model pass")
            for row in table:
                if any(s < 0 for s in row):
                    raise ValueError(f"{name}: scales must be nonnegative")
        frames = [e.frame for e in self.events]
        if frames != sorted(frames):
            raise ValueError("events must be sorted by frame")
        # base, amp, period, phase, jitter_amp, jitter_period and the jitter's
        # phase 1.7 * phase, each of shape (passes, 3).
        params = [
            (c.base, c.amp, c.period, c.phase, c.jitter_amp, c.jitter_period, 1.7 * c.phase)
            for triple in self.curves
            for c in triple
        ]
        object.__setattr__(
            self, "_curve_params", np.array(params, dtype=float).reshape(n, 3, 7).transpose(2, 0, 1)
        )
        # [l, i]: pass i's (b, v, f) scales at level l; a pass with fewer
        # levels repeats its last one.
        levels = max((len(row) for table in tables for row in table), default=1)
        rows = [
            list(row) + [row[-1]] * (levels - len(row)) for kinds in zip(*tables) for row in kinds
        ]
        scales = np.array(rows, dtype=float).reshape(n, 3, levels)
        object.__setattr__(self, "_level_scales", scales.transpose(2, 0, 1))

    @property
    def is_empty(self) -> bool:
        return all(c.base == 0.0 for triple in self.curves for c in triple) and not any(
            e.count_scale != 1.0 for e in self.events
        )

    def terms(self, roster: PassRoster, frames):
        """What every configuration's counts and power at ``frames`` share:
        the per-pass curve values, ``(frames, passes, 3)``, and the count and
        cost scales of the events up to each frame, each ``(frames, passes,
        1)``. The values follow :class:`CurveSpec`'s formula term for term,
        with ``math.sin`` taken per entry (:func:`powermodel.per_entry`)."""
        base, amp, period, phase, jitter_amp, jitter_period, jitter_phase = self._curve_params
        x = (2.0 * math.pi) * np.asarray(frames, dtype=float)[:, None, None]
        ripple = amp * per_entry(math.sin, x / period + phase)
        jitter = jitter_amp * per_entry(math.sin, x / jitter_period + jitter_phase)
        names = [roster.passes[i].name for i in roster.model_pass_indices]
        counts, costs = [1.0] * len(names), [1.0] * len(names)
        # Entry k: the (count, cost) scales after the first k events.
        table = [counts + costs]
        for e in self.events:
            mi = names.index(e.pass_name)
            counts[mi] *= e.count_scale
            costs[mi] *= e.cost_scale
            table.append(counts + costs)
        after = np.searchsorted(
            [e.frame for e in self.events], np.asarray(frames, dtype=int), side="right"
        )
        scales = np.reshape(table, (-1, 2, len(names), 1))[after]
        return base * ((1.0 + ripple) + jitter), scales[:, 0], scales[:, 1]

    def counts(
        self,
        roster: PassRoster,
        values: np.ndarray,
        count_scales: np.ndarray,
        config: RenderingConfiguration | None = None,
    ) -> np.ndarray:
        """Observable (b, v, f) counts: curve values times level scale times
        event count scale times the resolution pass's fragment scale, 0.0 for
        every kind a pass does not use.

        With ``config``, its counts at many frames, from :meth:`terms` of
        those frames: ``[k, i]`` is pass i's at frame k. Without, one frame's
        count table, from one row of each: ``[l, r, i]`` is pass i's at level
        l with the resolution pass at level r.
        """
        res = roster.resolution_index
        frag = np.ones((1 if res is None else roster.passes[res].level_count, 3))
        if res is not None:
            frag[:, 2] = roster.passes[res].fragment_scale_per_level
        if config is None:
            level_scales, frag = self._level_scales[:, None], frag[:, None]
        else:
            roster.validate_config(config)
            levels = [config[ri] for ri in roster.model_pass_indices]
            level_scales = self._level_scales[levels, range(len(levels))]
            frag = frag[0 if res is None else config[res]]
        counts = ((values * level_scales) * count_scales) * frag
        return np.where(np.reshape(roster.model_masks, (-1, 3)), counts, 0.0)

    def primitives_for(
        self, roster: PassRoster, config: RenderingConfiguration, frame: int
    ) -> tuple[tuple[float, float, float], ...]:
        """Observable (b, v, f) per model pass for one frame and
        configuration: :meth:`counts` at that frame alone."""
        values, count_scales, _ = self.terms(roster, [frame])
        return tuple(map(tuple, self.counts(roster, values, count_scales, config)[0].tolist()))


def empty_trace(roster: PassRoster, frame_count: int) -> SceneTrace:
    """A trace that sends nothing to the GPU; used for idle-power probing."""
    n = len(roster.model_pass_indices)
    zero = CurveSpec(0.0)
    ones = tuple(
        tuple(1.0 for _ in range(roster.passes[ri].level_count))
        for ri in roster.model_pass_indices
    )
    return SceneTrace(
        frame_count=frame_count,
        curves=tuple((zero, zero, zero) for _ in range(n)),
        level_scale_batches=ones,
        level_scale_vertices=ones,
        level_scale_fragments=ones,
    )


# --------------------------------------------------------------------------
# Hidden power oracle
# --------------------------------------------------------------------------


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), which its
# random-stream policy (NEP 19) keeps fixed.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """``n``'s 32-bit words, least significant first, as SeedSequence splits
    an entropy integer: 0 is one word."""
    if n < 0:
        raise ValueError(f"seed words must be non-negative integers, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def seed_states(prefix, first: int, count: int) -> np.ndarray:
    """``[j]`` is ``np.random.SeedSequence([*prefix, first + j])
    .generate_state(4, np.uint64)``, the state ``np.random.default_rng`` seeds
    a PCG64 with, for ``count`` consecutive last words at once.

    SeedSequence's hashmix and mix steps, in numpy's order, over uint32
    arrays: the constant prefix words stay one-entry arrays that broadcast
    against the column of last words, and the hash constants, which depend
    only on the number of steps taken, are plain integers. Each last word must
    fit one 32-bit word, so ``first + count`` may not pass 2**32.
    """
    if first < 0 or count < 0 or first + count > 1 << 32:
        raise ValueError(f"seed words {first}..{first + count - 1} outside [0, 2**32)")
    entropy = [np.array([w], dtype=np.uint32) for p in prefix for w in _uint32_words(p)]
    entropy.append(np.arange(first, first + count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight uint32 words, cycling over the pool.
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ value >> 16).astype(np.uint64))
    # Each uint64 is two uint32 words, the first one low.
    states = np.empty((count, 4), dtype=np.uint64)
    for j in range(4):
        states[:, j] = words[2 * j] | words[2 * j + 1] << np.uint64(32)
    return states


class _SeedState(np.random.bit_generator.ISeedSequence):
    """Hands one row of :func:`seed_states` to ``np.random.PCG64``, which asks
    its seed sequence for exactly that: ``generate_state(4, np.uint64)``."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def seeded_generator(state: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng`` builds from the entropy whose
    :func:`seed_states` row is ``state``."""
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


def _entry_jitter(seed: int, tag: str, factor: float) -> float:
    """Deterministic multiplicative jitter in [1/factor, factor].

    Keeps ``default_rng``: each tag's CRC is a different last word, so the
    oracle's few jitter draws share no block of :func:`seed_states`."""
    if factor == 1.0:
        return 1.0
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode("ascii"))])
    u = rng.uniform(-1.0, 1.0)
    return float(factor**u)


# Frames whose noise seed states one oracle computes at a time.
NOISE_BLOCK = 256


@dataclass(frozen=True)
class HiddenPowerOracle:
    """Ground-truth power source with its own saturation and cost parameters.

    ``cost_distortion`` is a multiplicative factor: each true cost entry is the
    public entry times factor**u with a seeded u in [-1, 1], so 1.0 means the
    public cost table is exactly true.

    ``coefficients[i, l]`` holds model pass i's unscaled true ``(k_b, k_v,
    k_f)`` at level l (:func:`powermodel.level_coefficients`), and every power
    query reads that table. :meth:`noise` keeps the :func:`seed_states` of the
    :data:`NOISE_BLOCK` frames around its latest draw, one block per oracle.
    """

    roster: PassRoster
    saturation: SaturationConstants
    k_b: tuple[float, ...]
    unit_costs: UnitCosts
    public_costs: CostTable
    cost_distortion: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0
    true_costs: CostTable = field(init=False)
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma cannot be negative")
        if self.cost_distortion < 1.0:
            raise ValueError("cost distortion factor must be >= 1.0")
        if len(self.k_b) != len(self.roster.model_pass_indices):
            raise ValueError("k_b must have one entry per model pass")
        if any(k < 0 for k in self.k_b):
            raise ValueError("k_b entries must be nonnegative")
        d, s, public = self.cost_distortion, self.seed, self.public_costs
        ins_v = tuple(x * _entry_jitter(s, f"ins_v/{i}", d) for i, x in enumerate(public.ins_v))
        ins_f, tex_f = (
            tuple(
                tuple(x * _entry_jitter(s, f"{name}/{i}/{l}", d) for l, x in enumerate(row))
                for i, row in enumerate(getattr(public, name))
            )
            for name in ("ins_f", "tex_f")
        )
        true_costs = CostTable(ins_v, ins_f, tex_f)
        object.__setattr__(self, "true_costs", true_costs)
        object.__setattr__(
            self, "coefficients", level_coefficients(self.unit_costs, true_costs, self.k_b)
        )
        # (block index, its seed states): dataclasses.replace starts afresh.
        object.__setattr__(self, "_noise_block", (None, None))

    def true_coefficients(
        self, config: RenderingConfiguration, cost_scales=None
    ) -> np.ndarray:
        """``[i]`` is pass i's (k_b, k_v, k_f) at the configuration's levels,
        times the pass's cost scale: ``config``'s rows of :attr:`coefficients`."""
        rows = level_rows(self.roster, self.coefficients, config)
        if cost_scales is not None:
            rows = rows * np.reshape(cost_scales, (-1, 1))
        return rows

    def exact(self, config: RenderingConfiguration, counts, cost_scales=1.0) -> np.ndarray:
        """The power formula, unclamped, at each row of per-pass (b, v, f)
        counts ``counts[..., i]``, over :meth:`true_coefficients` of
        ``config`` times ``cost_scales``, which broadcast as ``(...,
        passes, 1)``. As for every count, the counts must be 0.0 for every
        kind a pass does not use."""
        coefficients = level_rows(self.roster, self.coefficients, config) * cost_scales
        return power(self.saturation, pass_loads(self.saturation, coefficients, counts))

    def noise(self, frame_index: int) -> float:
        """The meter's noise at a frame: ``default_rng([seed, frame_index])``'s
        first standard normal, clamped at 3 sigma, bit for bit."""
        if self.noise_sigma == 0.0:
            return 0.0
        block, row = divmod(frame_index, NOISE_BLOCK)
        memo = self._noise_block
        if memo[0] != block:
            memo = block, seed_states((self.seed,), block * NOISE_BLOCK, NOISE_BLOCK)
            object.__setattr__(self, "_noise_block", memo)
        rng = seeded_generator(memo[1][row])
        draw = max(-3.0, min(3.0, float(rng.standard_normal())))
        return draw * self.noise_sigma * self.saturation.span


def exact_power(
    oracle: HiddenPowerOracle,
    config: RenderingConfiguration,
    frame_index: int,
    trace: SceneTrace,
) -> float:
    """Noise-free ground-truth power for one frame: :meth:`FramePowers.exact`
    at that frame alone."""
    return float(FramePowers(oracle, trace, [frame_index]).exact(config)[0])


def exact_power_all(oracle: HiddenPowerOracle, frame_index: int, trace: SceneTrace) -> np.ndarray:
    """:func:`exact_power` of every configuration at one frame, in
    enumeration order: :meth:`FramePowers.exact_all`."""
    return FramePowers(oracle, trace, [frame_index]).exact_all(0)


def measure_power(
    oracle: HiddenPowerOracle,
    config: RenderingConfiguration,
    frame_index: int,
    trace: SceneTrace,
) -> float:
    """Ground-truth power plus seeded Gaussian noise (clamped at 3 sigma):
    :meth:`FramePowers.measured` at that frame alone."""
    return float(FramePowers(oracle, trace, [frame_index]).measured(config)[0])


class FramePowers:
    """The counts and the exact and measured power of configurations at each
    of a list of frames, in array passes: every watt the program takes of a
    trace.

    Construction rejects a frame outside the trace, before any noise draw, and
    takes what every configuration shares at these frames
    (:meth:`SceneTrace.terms`). Each frame's :meth:`HiddenPowerOracle.noise`
    draw is taken once, by :meth:`noises` or on the first measurement or
    part. :meth:`primitives`, :meth:`exact` and :meth:`measured` give one
    configuration at every frame; :meth:`table` and :meth:`exact_all` every
    configuration at one frame. The most recent configuration's counts are
    kept, by identity, for a prediction that follows its measurement.
    """

    def __init__(self, oracle: HiddenPowerOracle, trace: SceneTrace, frames) -> None:
        for frame in frames:
            if not 0 <= frame < trace.frame_count:
                raise ValueError(f"frame {frame} outside the trace [0, {trace.frame_count})")
        self.oracle, self.trace, self.frames = oracle, trace, frames
        self._values, self._counts, self._costs = trace.terms(oracle.roster, frames)
        self._noise = None
        self._primitives_memo = None

    def noises(self) -> np.ndarray:
        """Each frame's :meth:`HiddenPowerOracle.noise` draw."""
        if self._noise is None:
            self._noise = np.array([self.oracle.noise(frame) for frame in self.frames], dtype=float)
        return self._noise

    def __getitem__(self, rows: slice) -> FramePowers:
        """These powers at ``frames[rows]`` alone, sharing the scene terms and
        noise draws, so that a part costs a pass over its own rows."""
        part = copy.copy(self)
        part.frames = self.frames[rows]
        part._values, part._counts = self._values[rows], self._counts[rows]
        part._costs, part._noise = self._costs[rows], self.noises()[rows]
        part._primitives_memo = None
        return part

    def primitives(self, config: RenderingConfiguration) -> np.ndarray:
        """``[k, i]`` is model pass i's (b, v, f) at frame k."""
        if self._primitives_memo is not None and self._primitives_memo[0] is config:
            return self._primitives_memo[1]
        out = self.trace.counts(self.oracle.roster, self._values, self._counts, config)
        self._primitives_memo = config, out
        return out

    def table(self, row: int) -> np.ndarray:
        """The count table of ``frames[row]``: ``[l, r, i]`` is model pass
        i's (b, v, f) at level l with the resolution pass at level r."""
        return self.trace.counts(self.oracle.roster, self._values[row], self._counts[row])

    def exact(self, config: RenderingConfiguration) -> np.ndarray:
        """:func:`exact_power` of ``config`` at each frame."""
        return self.oracle.exact(config, self.primitives(config), self._costs)

    def exact_all(self, row: int) -> np.ndarray:
        """:func:`exact_power` of every configuration at ``frames[row]``, in
        enumeration order: each pass's load at each (level, resolution level)
        over the true coefficients, spread over the lattice
        (:func:`powermodel.lattice_loads`)."""
        oracle = self.oracle
        coefficients = oracle.coefficients.transpose(1, 0, 2)[:, None] * self._costs[row]
        loads = pass_loads(oracle.saturation, coefficients, self.table(row))
        return power(oracle.saturation, lattice_loads(oracle.roster, loads))

    def measured(self, config: RenderingConfiguration) -> np.ndarray:
        """:func:`measure_power` of ``config`` at each frame."""
        return np.maximum(self.exact(config) + self.noises(), 1e-9)


# --------------------------------------------------------------------------
# Frame synthesizer
# --------------------------------------------------------------------------

DEGRADATION_OPS = ("blur", "noise", "quantize", "pixelate", "area_noise")


@dataclass(frozen=True)
class PassDegradation:
    """How one pass corrupts its image band, with one strength per level.

    Strength must be 0 at level 0 and strictly increase with the level index.
    ``amplitude`` only applies to ``area_noise``, where strength is the covered
    fraction of the band instead of the noise amplitude.
    """

    op: str
    strength: tuple[float, ...]
    amplitude: float = 0.25

    def __post_init__(self) -> None:
        if self.op not in DEGRADATION_OPS:
            raise ValueError(f"unknown degradation op {self.op!r}")
        s = tuple(float(x) for x in self.strength)
        if not s or s[0] != 0.0:
            raise ValueError("strength must start at 0 for level 0")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise ValueError("strength must strictly increase with the level index")
        object.__setattr__(self, "strength", s)


@lru_cache(maxsize=8)
def _pattern_indices(height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each pixel reads the pattern's two full-grid terms: ``x + 2y``,
    which is its own index, and ``x * y``, an index into the grid's sorted
    distinct products (returned too, as floats)."""
    y = np.arange(height)[:, None]
    x = np.arange(width)
    products, inverse = np.unique(x * y, return_inverse=True)
    return x + 2 * y, products.astype(float), inverse.reshape(height, width)


# One frame: every repeated use of a frame's pattern happens inside one
# render_frame call or one truth.FrameScorer, which holds its reference, so
# the cache serves only a caller that renders the same frame again.
@lru_cache(maxsize=1)
def _base_pattern(seed: int, frame_index: int, height: int, width: int) -> np.ndarray:
    """Smooth deterministic test pattern that slowly evolves with the frame."""
    # Row and column coordinates broadcast to the grid; the terms that depend
    # on one axis only are evaluated once per row or column. The two that
    # depend on x + 2y and on x * y are evaluated once per distinct value and
    # gathered: every coordinate is an integer, so each value is the exact
    # float the full grid would hold, and the terms keep their bits.
    y = np.arange(height, dtype=float)[:, None]
    x = np.arange(width, dtype=float)
    t = float(frame_index)
    s = float(seed % 997)
    diagonal, products, product_index = _pattern_indices(height, width)
    sums = np.arange(width + 2 * height - 2, dtype=float)
    img = (
        0.5
        + 0.21 * np.sin(2 * np.pi * (x * 3.1 / width) + 0.9 * math.sin(0.011 * t) + 0.01 * s)
        * np.cos(2 * np.pi * (y * 2.3 / height) + 1.3 * math.sin(0.007 * t))
        + (0.14 * np.sin(2 * np.pi * sums / 23.0 + 0.05 * t + 0.02 * s))[diagonal]
        + (0.08 * np.cos(2 * np.pi * products / (width * 11.0) + 0.03 * t))[product_index]
    )
    img = np.clip(img, 0.03, 0.97)
    img.setflags(write=False)
    return img


def _block_average(band: np.ndarray, block: int) -> np.ndarray:
    h, w = band.shape
    row_starts = np.arange(0, h, block)
    col_starts = np.arange(0, w, block)
    pooled = np.add.reduceat(np.add.reduceat(band, row_starts, axis=0), col_starts, axis=1)
    row_counts = np.diff(np.append(row_starts, h))
    col_counts = np.diff(np.append(col_starts, w))
    pooled /= row_counts[:, None] * col_counts[None, :]
    return np.repeat(np.repeat(pooled, row_counts, axis=0), col_counts, axis=1)


def _structured_noise(shape: tuple[int, int], frame_index: int, pass_index: int) -> np.ndarray:
    y = np.arange(shape[0], dtype=float)[:, None]
    x = np.arange(shape[1], dtype=float)
    phase = 2.0 * np.pi * ((frame_index * 0.137 + pass_index * 0.61) % 1.0)
    return np.sin(2 * np.pi * x / 3.7 + phase) * np.cos(2 * np.pi * y / 2.9 + 0.5 * phase)


def _apply_degradation(
    band: np.ndarray, spec: PassDegradation, strength: float, frame_index: int, pass_index: int
) -> np.ndarray:
    if spec.op == "blur":
        size = 2 * int(round(strength)) + 1
        if size <= 1:
            return band
        return uniform_filter(band, size=size, mode="nearest")
    if spec.op == "noise":
        return np.clip(
            band + strength * _structured_noise(band.shape, frame_index, pass_index), 0.0, 1.0
        )
    if spec.op == "quantize":
        if strength <= 0.0:
            return band
        return np.clip(np.round(band / strength) * strength, 0.0, 1.0)
    if spec.op == "pixelate":
        block = int(round(strength))
        if block <= 1:
            return band
        return _block_average(band, block)
    if spec.op == "area_noise":
        cols = int(round(min(1.0, strength) * band.shape[1]))
        if cols <= 0:
            return band
        out = band.copy()
        noise = _structured_noise((band.shape[0], cols), frame_index, pass_index)
        out[:, :cols] = np.clip(out[:, :cols] + spec.amplitude * noise, 0.0, 1.0)
        return out
    raise AssertionError(spec.op)


@dataclass(frozen=True)
class FrameSynthesizer:
    """Procedural renderer: base pattern plus per-pass band degradations."""

    roster: PassRoster
    degradations: tuple[PassDegradation, ...]
    height: int = 128
    width: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.degradations) != self.roster.size:
            raise ValueError("need one degradation spec per roster pass")
        for p, d in zip(self.roster.passes, self.degradations):
            if len(d.strength) != p.level_count:
                raise ValueError(
                    f"pass {p.name!r}: need one strength per level, got {len(d.strength)}"
                )
        if self.height < 11 or self.width < 11:
            raise ValueError("synthesizer images must be at least 11x11 for SSIM")

    def band(self, pass_index: int) -> tuple[int, int]:
        """Row range owned by a pass's degradation operator."""
        n = self.roster.size
        r0 = (pass_index * self.height) // n
        r1 = ((pass_index + 1) * self.height) // n
        return r0, r1


def render_band(
    synth: FrameSynthesizer,
    pass_index: int,
    level: int,
    frame_index: int,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """The rows of ``synth.band(pass_index)`` with that pass at ``level``.

    A pass's degradation reads and writes only its own band, so a frame is
    the base pattern with each degraded pass's band replaced; level 0 returns
    the base rows. ``base``, the frame's base pattern, is looked up when not
    given. The rows are not range-checked here: :class:`FrameImage` checks
    whole frames, and callers that score bands without one check each band
    with :func:`quality.check_intensities`.
    """
    spec = synth.degradations[pass_index]
    if not 0 <= level < len(spec.strength):
        raise ValueError(f"pass {pass_index} has no level {level}")
    if base is None:
        base = _base_pattern(synth.seed, frame_index, synth.height, synth.width)
    r0, r1 = synth.band(pass_index)
    rows = base[r0:r1]
    if level:
        rows = _apply_degradation(rows, spec, spec.strength[level], frame_index, pass_index)
    return rows


def render_frame(
    synth: FrameSynthesizer, config: RenderingConfiguration, frame_index: int
) -> FrameImage:
    """Render one frame; the all-best configuration is the unmodified pattern."""
    synth.roster.validate_config(config)
    base = _base_pattern(synth.seed, frame_index, synth.height, synth.width)
    if all(lvl == 0 for lvl in config):
        return FrameImage(base)
    img = base.copy()
    for i, lvl in enumerate(config):
        if lvl:
            r0, r1 = synth.band(i)
            img[r0:r1] = render_band(synth, i, lvl, frame_index, base)
    return FrameImage(img)


# --------------------------------------------------------------------------
# Initialization probing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeOptions:
    min_power_frames: int = 30
    frames_per_reading: int = 1
    start_count: float = 1.0
    max_doublings: int = 40
    plateau_threshold: float = 0.005
    min_rise_fraction: float = 0.2


@dataclass(frozen=True)
class ProbeResult:
    saturation: SaturationConstants
    # "ok" | "cap" | "unused" per (model pass, primitive kind)
    flags: tuple[tuple[str, str, str], ...]
    frames_used: int


def probe_min_power(
    oracle: HiddenPowerOracle,
    trace_empty: SceneTrace,
    frames: int,
) -> float:
    """Estimate idle power by averaging measurements of an empty scene."""
    if not trace_empty.is_empty:
        raise ValueError("min-power probing requires an empty trace")
    if frames < 1 or frames > trace_empty.frame_count:
        raise ValueError("probe frame count must be in [1, trace length]")
    readings = FramePowers(oracle, trace_empty, range(frames)).measured(oracle.roster.best_config())
    return mean(readings.tolist())


def probe_saturation(
    oracle: HiddenPowerOracle,
    p_min: float,
    options: ProbeOptions = ProbeOptions(),
) -> ProbeResult:
    """Find the saturated power and per-pass saturating counts by load ramps.

    Each used primitive of each pass is ramped alone, doubling the count until
    the power gain over one doubling falls below the plateau threshold (and the
    ramp has actually risen; a ramp that never rises runs to the cap and is
    flagged). The exact power of a ramp's every doubling is taken in one call,
    and its readings add each frame's noise until the ramp stops. The
    saturating count reported for a ramp is the count at which the normalized
    load reaches one e-folding, recovered by inverting the power curve on
    mid-range readings. The saturated power is the maximum reading over all
    ramps.
    """
    roster = oracle.roster
    masks = roster.model_masks
    n = len(roster.model_pass_indices)
    best = roster.best_config()
    counts = (options.start_count * 2.0 ** np.arange(options.max_doublings + 1)).tolist()

    start = frame = 10_000_000  # probe readings use their own frame-counter namespace
    ramps: dict[tuple[int, int], list[tuple[float, float]]] = {}  # (pass, kind): (count, power)s
    flags = [["unused", "unused", "unused"] for _ in range(n)]
    reps = options.frames_per_reading

    for mi in range(n):
        for kind in range(3):
            if not masks[mi][kind]:
                continue
            ramp = np.zeros((len(counts), n, 3))
            ramp[:, mi, kind] = counts
            readings: list[tuple[float, float]] = []
            flag = "cap"
            for count, exact in zip(counts, oracle.exact(best, ramp).tolist()):
                p = mean(exact + oracle.noise(frame + r) for r in range(reps))
                frame += reps
                readings.append((count, p))
                if (
                    len(readings) > 1
                    and p - readings[-2][1] < options.plateau_threshold * p
                    and p - readings[0][1] > options.min_rise_fraction * p
                ):
                    flag = "ok"
                    break
            flags[mi][kind] = flag
            ramps[mi, kind] = readings

    if not ramps:
        raise ProbeError("no primitive kind is used by any pass; nothing to probe")
    p_max_observed = max(p for readings in ramps.values() for _, p in readings)
    if p_max_observed <= p_min:
        raise ProbeError("probing never raised power above idle")
    if all(flags[mi][kind] == "cap" for mi, kind in ramps):
        raise ProbeError("every ramp hit the doubling cap without saturating")

    span = p_max_observed - p_min
    constants = [[1.0, 1.0, 1.0] for _ in range(n)]
    for (mi, kind), readings in ramps.items():
        # Invert the power curve on mid-range readings, where the estimate is
        # best conditioned; fall back to any invertible reading, then the cap.
        estimates = []
        fallback = []
        for count, p in readings:
            norm = (p - p_min) / span
            if 0.15 <= norm <= 0.85:
                estimates.append(count / -math.log(1.0 - norm))
            elif 0.0 < norm < 0.99:
                fallback.append(count / -math.log(1.0 - norm))
        constants[mi][kind] = mean(estimates or fallback or [readings[-1][0]])

    saturation = SaturationConstants(
        p_min=p_min,
        p_max=p_max_observed,
        per_pass=tuple(tuple(c) for c in constants),
    )
    return ProbeResult(
        saturation=saturation,
        flags=tuple(tuple(f) for f in flags),
        frames_used=frame - start,
    )
