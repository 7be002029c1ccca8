"""Deterministic stand-ins for the GPU, the renderer, and the power meter.

The hidden oracle evaluates the same saturating-exponential form as the public
power model but with its own (possibly distorted) cost parameters, so "model
form correct, parameters unknown" is testable. The scene trace turns frame
indices into per-pass primitive counts; the synthesizer turns frame indices and
configurations into images whose degradations live in (mostly) disjoint
horizontal bands so error additivity approximately holds. Everything is a pure
function of (seed, frame index, configuration).
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.ndimage import uniform_filter

from .configspace import PassRoster, RenderingConfiguration
from .powermodel import (
    CostTable,
    PowerCoefficients,
    SaturationConstants,
    UnitCosts,
    model_masks,
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

    def value(self, frame: int) -> float:
        return self.base * (
            1.0
            + self.amp * math.sin(2.0 * math.pi * frame / self.period + self.phase)
            + self.jitter_amp
            * math.sin(2.0 * math.pi * frame / self.jitter_period + 1.7 * self.phase)
        )


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

    Every configuration measured at one frame shares that frame's curve
    values and event scales, so the trace keeps them for the most recent
    ``(roster, frame)`` only, and the cumulative event scales for the most
    recent roster. A frame's power is often measured and predicted for one
    configuration, so :meth:`primitives_for` keeps its most recent answer
    too, for a repeated query with the same configuration and roster
    objects; identity keeps a miss, the common case, cheap. The memos live
    on the instance and are set up empty in
    ``__post_init__``, which ``dataclasses.replace`` runs again.
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
        for name, table in (
            ("level_scale_batches", self.level_scale_batches),
            ("level_scale_vertices", self.level_scale_vertices),
            ("level_scale_fragments", self.level_scale_fragments),
        ):
            if len(table) != n:
                raise ValueError(f"{name} must cover every model pass")
            for row in table:
                if any(s < 0 for s in row):
                    raise ValueError(f"{name}: scales must be nonnegative")
        frames = [e.frame for e in self.events]
        if frames != sorted(frames):
            raise ValueError("events must be sorted by frame")
        object.__setattr__(self, "_event_memo", None)
        object.__setattr__(self, "_frame_memo", None)
        object.__setattr__(self, "_query_memo", None)

    @property
    def is_empty(self) -> bool:
        return all(c.base == 0.0 for triple in self.curves for c in triple) and not any(
            e.count_scale != 1.0 for e in self.events
        )

    def _event_table(self, roster: PassRoster):
        """Event frames, and the per-model-pass (count, cost) scales in
        effect after each prefix of the events; entry k follows k events."""
        memo = self._event_memo
        if memo is not None and (memo[0] is roster or memo[0] == roster):
            return memo[1]
        names = [roster.passes[i].name for i in roster.model_pass_indices]
        counts = [1.0] * len(names)
        costs = [1.0] * len(names)
        table = [(tuple(counts), tuple(costs))]
        for e in self.events:
            mi = names.index(e.pass_name)
            counts[mi] *= e.count_scale
            costs[mi] *= e.cost_scale
            table.append((tuple(counts), tuple(costs)))
        result = ([e.frame for e in self.events], table)
        object.__setattr__(self, "_event_memo", (roster, result))
        return result

    def _frame_terms(self, roster: PassRoster, frame: int):
        """Per-pass curve values (b, v, f) and the (count, cost) event scales
        at ``frame``."""
        memo = self._frame_memo
        if memo is not None and memo[1] == frame and (memo[0] is roster or memo[0] == roster):
            return memo[2]
        frames, table = self._event_table(roster)
        counts, costs = table[bisect_right(frames, frame)]
        values = tuple(tuple(c.value(frame) for c in triple) for triple in self.curves)
        terms = (values, counts, costs)
        object.__setattr__(self, "_frame_memo", (roster, frame, terms))
        return terms

    def cost_scales(self, roster: PassRoster, frame: int) -> tuple[float, ...]:
        """Hidden per-pass cost multipliers in effect at ``frame``."""
        return self._frame_terms(roster, frame)[2]

    def primitives_for(
        self, roster: PassRoster, config: RenderingConfiguration, frame: int
    ) -> tuple[tuple[float, float, float], ...]:
        """Observable (b, v, f) per model pass for one frame and configuration."""
        memo = self._query_memo
        if memo is not None and memo[0] is config and memo[1] == frame and memo[2] is roster:
            return memo[3]
        roster.validate_config(config)
        values, count_scales, _ = self._frame_terms(roster, frame)
        frag_scale = roster.fragment_scale(config)
        masks = model_masks(roster)
        out = []
        for mi, ri in enumerate(roster.model_pass_indices):
            lvl = config[ri]
            vb, vv, vf = values[mi]
            scale = count_scales[mi]
            b = vb * self.level_scale_batches[mi][lvl] * scale
            v = vv * self.level_scale_vertices[mi][lvl] * scale
            f = vf * self.level_scale_fragments[mi][lvl] * scale * frag_scale
            ub, uv, uf = masks[mi]
            out.append((b if ub else 0.0, v if uv else 0.0, f if uf else 0.0))
        out = tuple(out)
        object.__setattr__(self, "_query_memo", (config, frame, roster, out))
        return out


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


def _entry_jitter(seed: int, tag: str, factor: float) -> float:
    """Deterministic multiplicative jitter in [1/factor, factor]."""
    if factor == 1.0:
        return 1.0
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode("ascii"))])
    u = rng.uniform(-1.0, 1.0)
    return float(factor**u)


@dataclass(frozen=True)
class HiddenPowerOracle:
    """Ground-truth power source with its own saturation and cost parameters.

    ``cost_distortion`` is a multiplicative factor: each true cost entry is the
    public entry times factor**u with a seeded u in [-1, 1], so 1.0 means the
    public cost table is exactly true.

    The unscaled vertex and per-level fragment coefficients are computed once
    from the true costs, and :meth:`noise` keeps the most recent frame's
    draw, so power queries for many configurations at one frame share both.
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

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise sigma cannot be negative")
        if self.cost_distortion < 1.0:
            raise ValueError("cost distortion factor must be >= 1.0")
        if len(self.k_b) != len(self.roster.model_pass_indices):
            raise ValueError("k_b must have one entry per model pass")
        if any(k < 0 for k in self.k_b):
            raise ValueError("k_b entries must be nonnegative")
        d = self.cost_distortion
        s = self.seed
        ins_v = tuple(
            x * _entry_jitter(s, f"ins_v/{i}", d) for i, x in enumerate(self.public_costs.ins_v)
        )
        ins_f = tuple(
            tuple(x * _entry_jitter(s, f"ins_f/{i}/{l}", d) for l, x in enumerate(row))
            for i, row in enumerate(self.public_costs.ins_f)
        )
        tex_f = tuple(
            tuple(x * _entry_jitter(s, f"tex_f/{i}/{l}", d) for l, x in enumerate(row))
            for i, row in enumerate(self.public_costs.tex_f)
        )
        true_costs = CostTable(ins_v, ins_f, tex_f)
        object.__setattr__(self, "true_costs", true_costs)
        chi, psi = self.unit_costs.chi, self.unit_costs.psi
        object.__setattr__(self, "_k_v", tuple(chi * x for x in true_costs.ins_v))
        object.__setattr__(
            self,
            "_k_f",
            tuple(
                tuple(chi * i_f + psi * t_f for i_f, t_f in zip(ins_row, tex_row))
                for ins_row, tex_row in zip(true_costs.ins_f, true_costs.tex_f)
            ),
        )
        object.__setattr__(self, "_noise_memo", None)

    def true_coefficients(
        self, config: RenderingConfiguration, cost_scales=None
    ) -> PowerCoefficients:
        """Per-pass (k_b, k_v, k_f) at the configuration's levels, each times
        the pass's cost scale: k_v = chi*Ins_v and k_f = chi*Ins_f + psi*Tex_f
        over the true costs."""
        per_pass = []
        for i, ri in enumerate(self.roster.model_pass_indices):
            scale = 1.0 if cost_scales is None else cost_scales[i]
            per_pass.append(
                (self.k_b[i] * scale, self._k_v[i] * scale, self._k_f[i][config[ri]] * scale)
            )
        return PowerCoefficients(tuple(per_pass))

    def exact_power_from_primitives(
        self, config: RenderingConfiguration, primitives, cost_scales=None
    ) -> float:
        """The power formula with :meth:`true_coefficients`, term for term as
        :func:`powermodel.load_terms` evaluates it, without building them:
        every power query pays only for its own arithmetic."""
        sat = self.saturation
        n = len(sat.per_pass)
        model_indices = self.roster.model_pass_indices
        if len(model_indices) != n or len(primitives) != n:
            raise ValueError("saturation, coefficients, and primitives disagree on pass count")
        masks = model_masks(self.roster)
        terms = []
        for i, ri in enumerate(model_indices):
            scale = 1.0 if cost_scales is None else cost_scales[i]
            big_b, big_v, big_f = sat.per_pass[i]
            b, v, f = primitives[i]
            ub, uv, uf = masks[i]
            b = b if ub else 0.0
            v = v if uv else 0.0
            f = f if uf else 0.0
            terms.append(
                self.k_b[i] * scale * b / big_b
                + self._k_v[i] * scale * v / big_v
                + self._k_f[i][config[ri]] * scale * f / big_f
            )
        alpha = sum(terms)
        return sat.p_min + sat.span * (1.0 - math.exp(-alpha))

    def noise(self, frame_index: int) -> float:
        if self.noise_sigma == 0.0:
            return 0.0
        memo = self._noise_memo
        if memo is not None and memo[0] == frame_index:
            return memo[1]
        rng = np.random.default_rng([self.seed, frame_index])
        draw = float(rng.standard_normal())
        draw = max(-3.0, min(3.0, draw))
        value = draw * self.noise_sigma * self.saturation.span
        object.__setattr__(self, "_noise_memo", (frame_index, value))
        return value


def exact_power(
    oracle: HiddenPowerOracle,
    config: RenderingConfiguration,
    frame_index: int,
    trace: SceneTrace,
) -> float:
    """Noise-free ground-truth power for one frame."""
    if not 0 <= frame_index < trace.frame_count:
        raise ValueError(f"frame {frame_index} outside the trace [0, {trace.frame_count})")
    primitives = trace.primitives_for(oracle.roster, config, frame_index)
    cost_scales = trace.cost_scales(oracle.roster, frame_index)
    return oracle.exact_power_from_primitives(config, primitives, cost_scales)


def measure_power(
    oracle: HiddenPowerOracle,
    config: RenderingConfiguration,
    frame_index: int,
    trace: SceneTrace,
) -> float:
    """Ground-truth power plus seeded Gaussian noise (clamped at 3 sigma);
    :func:`exact_power` rejects frames outside the trace before any draw."""
    p = exact_power(oracle, config, frame_index, trace) + oracle.noise(frame_index)
    return max(p, 1e-9)


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


@lru_cache(maxsize=64)
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
    synth: FrameSynthesizer, pass_index: int, level: int, frame_index: int
) -> np.ndarray:
    """The rows of ``synth.band(pass_index)`` with that pass at ``level``.

    A pass's degradation reads and writes only its own band, so a frame is
    the base pattern with each degraded pass's band replaced; level 0 returns
    the base rows. The rows are not range-checked here: :class:`FrameImage`
    checks whole frames, and callers that score bands without one check each
    band with :func:`quality.check_intensities`.
    """
    spec = synth.degradations[pass_index]
    if not 0 <= level < len(spec.strength):
        raise ValueError(f"pass {pass_index} has no level {level}")
    r0, r1 = synth.band(pass_index)
    rows = _base_pattern(synth.seed, frame_index, synth.height, synth.width)[r0:r1]
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
            img[r0:r1] = render_band(synth, i, lvl, frame_index)
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
    p_max_observed: float


def probe_min_power(
    oracle: HiddenPowerOracle,
    trace_empty: SceneTrace,
    frames: int = 30,
) -> float:
    """Estimate idle power by averaging measurements of an empty scene."""
    if not trace_empty.is_empty:
        raise ValueError("min-power probing requires an empty trace")
    if frames < 1 or frames > trace_empty.frame_count:
        raise ValueError("probe frame count must be in [1, trace length]")
    cfg = oracle.roster.best_config()
    total = 0.0
    for f in range(frames):
        total += measure_power(oracle, cfg, f, trace_empty)
    return total / frames


def _probe_measure(oracle: HiddenPowerOracle, primitives, frame: int, reps: int) -> float:
    cfg = oracle.roster.best_config()
    total = 0.0
    for r in range(reps):
        total += oracle.exact_power_from_primitives(cfg, primitives) + oracle.noise(frame + r)
    return total / reps


def probe_saturation(
    oracle: HiddenPowerOracle,
    p_min: float,
    options: ProbeOptions = ProbeOptions(),
) -> ProbeResult:
    """Find the saturated power and per-pass saturating counts by load ramps.

    Each used primitive of each pass is ramped alone, doubling the count until
    the power gain over one doubling falls below the plateau threshold (and the
    ramp has actually risen; a ramp that never rises runs to the cap and is
    flagged). The saturating count reported for a ramp is the count at which
    the normalized load reaches one e-folding, recovered by inverting the
    power curve on mid-range readings. The saturated power is the maximum
    reading over all ramps.
    """
    roster = oracle.roster
    masks = model_masks(roster)
    n = len(roster.model_pass_indices)
    zeros = tuple((0.0, 0.0, 0.0) for _ in range(n))

    frame = 10_000_000  # probe readings use their own frame-counter namespace
    frames_used = 0
    ramps: list[list[tuple[float, float]]] = []  # per ramp: (count, power)
    ramp_slots: list[tuple[int, int]] = []
    flags = [["unused", "unused", "unused"] for _ in range(n)]
    reps = options.frames_per_reading

    for mi in range(n):
        for kind in range(3):
            if not masks[mi][kind]:
                continue
            readings: list[tuple[float, float]] = []
            count = options.start_count
            prims = [list(t) for t in zeros]

            def measure_at(c: float) -> float:
                nonlocal frame, frames_used
                prims[mi][kind] = c
                p = _probe_measure(
                    oracle, tuple(tuple(t) for t in prims), frame, reps
                )
                frame += reps
                frames_used += reps
                return p

            p = measure_at(count)
            readings.append((count, p))
            flag = "cap"
            for _ in range(options.max_doublings):
                nxt = count * 2.0
                p_next = measure_at(nxt)
                readings.append((nxt, p_next))
                rise = p_next - readings[0][1]
                if (
                    p_next - p < options.plateau_threshold * p_next
                    and rise > options.min_rise_fraction * p_next
                ):
                    flag = "ok"
                    count = nxt
                    break
                count, p = nxt, p_next
            flags[mi][kind] = flag
            ramps.append(readings)
            ramp_slots.append((mi, kind))

    if not ramps:
        raise ProbeError("no primitive kind is used by any pass; nothing to probe")
    p_max_observed = max(p for readings in ramps for _, p in readings)
    if p_max_observed <= p_min:
        raise ProbeError("probing never raised power above idle")
    if all(flags[mi][kind] == "cap" for mi, kind in ramp_slots):
        raise ProbeError("every ramp hit the doubling cap without saturating")

    span = p_max_observed - p_min
    constants = [[1.0, 1.0, 1.0] for _ in range(n)]
    for (mi, kind), readings in zip(ramp_slots, ramps):
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
        if not estimates:
            estimates = fallback or [readings[-1][0]]
        constants[mi][kind] = sum(estimates) / len(estimates)

    saturation = SaturationConstants(
        p_min=p_min,
        p_max=p_max_observed,
        per_pass=tuple(tuple(c) for c in constants),
    )
    return ProbeResult(
        saturation=saturation,
        flags=tuple(tuple(f) for f in flags),
        frames_used=frames_used,
        p_max_observed=p_max_observed,
    )
