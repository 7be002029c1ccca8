"""Saturating-exponential GPU power model: prediction, fitting, and coefficient reuse.

Predicted power is P_m + (P_M - P_m) * (1 - exp(-sum_i alpha_i)) with one load
term per non-resolution pass,

    alpha_i = k_b[i] * b_i / B_i + k_v[i] * v_i / V_i + k_f[i] * f_i / F_i.

A pass's load term sums only the primitive kinds the pass uses. That is a
precondition on the counts, not something the formula re-checks: whoever
produces per-pass (b, v, f) counts reports 0.0 for every kind the pass does
not use (``PassRoster.model_masks``), as the scene trace, the saturation probe
and the generic sweep do.

Every watt the program computes, predicted or exact, one frame or a whole
trace or lattice, is :func:`power` of :func:`pass_loads`: one formula whose
shapes are arrays, with the same bits in each.

Fitting inverts the exponential with a log transform and solves a linear least
squares problem with nonnegativity enforced by clamp-and-re-solve passes over
the active set. A fitted coefficient set for one configuration is extended to
every other configuration through per-instruction (chi) and per-texel (psi)
unit costs combined with the static instruction/texel cost table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import PassRoster, RenderingConfiguration, config_index, level_grid

# Normalized powers are clamped this fraction of (P_M - P_m) away from the
# saturation bounds before the log transform, keeping targets finite.
CLAMP_FRACTION = 1e-3

# A design column whose normalized load never reaches this floor carries no
# usable signal; its coefficient is reported unidentified instead of letting
# least squares amplify measurement noise into it.
MIN_COLUMN_SIGNAL = 0.01

Primitives = tuple[float, float, float]


@dataclass(frozen=True)
class SaturationConstants:
    """Idle/saturated power and per-pass saturating primitive counts."""

    p_min: float
    p_max: float
    per_pass: tuple[Primitives, ...]

    def __post_init__(self) -> None:
        if not (0.0 < self.p_min < self.p_max):
            raise ValueError("need 0 < p_min < p_max")
        pp = tuple(tuple(float(c) for c in triple) for triple in self.per_pass)
        for triple in pp:
            if len(triple) != 3 or any(c <= 0 for c in triple):
                raise ValueError("saturation counts must be positive (B, V, F) triples")
        object.__setattr__(self, "per_pass", pp)

    @property
    def span(self) -> float:
        return self.p_max - self.p_min


@dataclass(frozen=True)
class CostTable:
    """Static shader costs per non-resolution pass.

    ``ins_v[i]`` is instructions per vertex (level-independent), while
    ``ins_f[i][l]`` and ``tex_f[i][l]`` are instructions and texel accesses per
    fragment at level ``l``. Vertex shaders access no texels. Costs must not
    increase as quality degrades.
    """

    ins_v: tuple[float, ...]
    ins_f: tuple[tuple[float, ...], ...]
    tex_f: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        ins_v = tuple(float(x) for x in self.ins_v)
        ins_f = tuple(tuple(float(x) for x in row) for row in self.ins_f)
        tex_f = tuple(tuple(float(x) for x in row) for row in self.tex_f)
        if not (len(ins_v) == len(ins_f) == len(tex_f)):
            raise ValueError("cost table sections disagree on the number of passes")
        for x in ins_v:
            if x < 0:
                raise ValueError("instruction counts must be nonnegative")
        for name, table in (("ins_f", ins_f), ("tex_f", tex_f)):
            for i, row in enumerate(table):
                if any(x < 0 for x in row):
                    raise ValueError(f"{name}[{i}]: entries must be nonnegative")
                if any(row[l] < row[l + 1] for l in range(len(row) - 1)):
                    raise ValueError(
                        f"{name}[{i}]: costs may not increase as the level degrades"
                    )
        object.__setattr__(self, "ins_v", ins_v)
        object.__setattr__(self, "ins_f", ins_f)
        object.__setattr__(self, "tex_f", tex_f)

    @property
    def n_passes(self) -> int:
        return len(self.ins_v)


@dataclass(frozen=True)
class UnitCosts:
    """Cost of one shader instruction (chi) and one texel access (psi)."""

    chi: float
    psi: float

    def __post_init__(self) -> None:
        if self.chi < 0 or self.psi < 0:
            raise ValueError("unit costs must be nonnegative")


# Frozen models that hold arrays compare by identity and make them read-only.
@dataclass(frozen=True, eq=False)
class FitResult:
    # ``[i]`` is pass i's fitted (k_b, k_v, k_f), all nonnegative.
    coefficients: np.ndarray
    residual_norm: float
    degenerate: bool
    # ``[i, kind]`` is False where the sample window carried no signal for
    # that coefficient (all-zero design column), so the zero it got is a
    # placeholder, not an estimate.
    identified: np.ndarray
    clamp_count: int

    def __post_init__(self) -> None:
        self.coefficients.flags.writeable = self.identified.flags.writeable = False


@dataclass(frozen=True)
class UnitCostResult:
    unit_costs: UnitCosts
    residual_norm: float


@dataclass(frozen=True, eq=False)
class PowerModel:
    """Immutable snapshot of everything needed to predict any configuration.

    ``coefficients[i]`` is model pass i's (k_b, k_v, k_f) at the fitted
    configuration."""

    roster: PassRoster
    saturation: SaturationConstants
    coefficients: np.ndarray
    unit_costs: UnitCosts
    cost_table: CostTable
    fitted_config: RenderingConfiguration

    def __post_init__(self) -> None:
        self.coefficients.flags.writeable = False

    def coefficients_for(self, config: RenderingConfiguration) -> np.ndarray:
        """Raw fitted coefficients for the fitted configuration, reuse for the rest."""
        if config == self.fitted_config:
            return self.coefficients
        return coefficients_for_config(
            self.unit_costs, self.cost_table, config, self.coefficients, self.roster
        )


def per_entry(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of each entry of ``values``, taken on Python floats: for
    ``math.exp``, ``math.log`` and ``math.sin``, whose vectorized numpy
    counterparts can differ from them in the last bit, and by CPU."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def mean(values) -> float:
    """The mean of ``values``, added left to right (since Python 3.12 the
    builtin ``sum()`` compensates float rounding, which would change the last
    bits); 0.0 for no values."""
    total, count = 0.0, 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0


def pass_loads(saturation: SaturationConstants, coefficients, counts) -> np.ndarray:
    """Each pass's load term of broadcastable ``(..., passes, 3)``
    coefficients and (b, v, f) counts: ``(k_b*b/B + k_v*v/V) + k_f*f/F``.

    The counts must be 0.0 for every kind a pass does not use.
    """
    terms = np.multiply(coefficients, counts) / np.reshape(saturation.per_pass, (-1, 3))
    return (terms[..., 0] + terms[..., 1]) + terms[..., 2]


def power(saturation: SaturationConstants, loads: np.ndarray) -> np.ndarray:
    """The power formula, unclamped, of each row of per-pass load terms
    ``loads[..., i]``: every watt the program computes, predicted or exact.

    The passes add left to right, as :func:`mean` adds, and each
    exponential is taken with ``math.exp`` (:func:`per_entry`), so a watt has
    the same bits whatever the shape it is computed in.
    """
    alpha = np.zeros(loads.shape[:-1])
    for i in range(loads.shape[-1]):
        alpha = alpha + loads[..., i]
    return saturation.p_min + saturation.span * (1.0 - per_entry(math.exp, -alpha))


def predict_powers(
    saturation: SaturationConstants,
    coefficients: np.ndarray,
    counts,
) -> np.ndarray:
    """Predicted watts at each row of per-pass (b, v, f) counts
    ``counts[..., i]``, 0.0 for every kind a pass does not use, from
    ``(passes, 3)`` coefficients.

    The result lies in [P_m, P_M): the asymptote is open in exact arithmetic,
    but rounding can land on P_M at extreme loads, so the bound is enforced
    explicitly.
    """
    n = len(saturation.per_pass)
    if np.shape(coefficients) != (n, 3) or np.shape(counts)[-2:] != (n, 3):
        raise ValueError("saturation, coefficients, and primitives disagree on pass count")
    watts = power(saturation, pass_loads(saturation, coefficients, counts))
    return np.minimum(watts, math.nextafter(saturation.p_max, -math.inf))


def predict_power(
    saturation: SaturationConstants,
    coefficients: np.ndarray,
    primitives,
) -> float:
    """:func:`predict_powers` of one frame's per-pass (b, v, f) counts."""
    return float(predict_powers(saturation, coefficients, np.asarray(primitives, dtype=float)))


def check_window(saturation: SaturationConstants, watts, counts) -> tuple[np.ndarray, np.ndarray]:
    """A window's meter readings ``watts[k]`` and per-pass (b, v, f) counts
    ``counts[k, i]`` as float arrays, checked: one positive reading and one
    nonnegative triple per pass for each frame."""
    watts = np.asarray(watts, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if watts.ndim != 1 or counts.shape != (len(watts), len(saturation.per_pass), 3):
        raise ValueError("window and saturation constants disagree on shape or pass count")
    if (watts <= 0.0).any():
        raise ValueError("measured power must be positive")
    if (counts < 0.0).any():
        raise ValueError("primitive counts must be nonnegative")
    return watts, counts


def linearize(
    saturation: SaturationConstants, watts, counts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A window's regression rows, log-domain targets and clamp flags, from
    its readings ``watts[k]`` and per-pass (b, v, f) counts ``counts[k, i]``.

    Row k holds frame k's normalized counts (b/B, v/V, f/F), pass by pass, so
    a kind a pass does not use, whose count must be 0.0, gets a zero entry.
    The target is -ln(1 - (P - P_m) / (P_M - P_m)), with the reading clamped a
    small margin inside (P_m, P_M) first so the transform stays finite; the
    log is taken with ``math.log`` (:func:`per_entry`).
    """
    watts, counts = check_window(saturation, watts, counts)
    eps = CLAMP_FRACTION * saturation.span
    low, high = saturation.p_min + eps, saturation.p_max - eps
    clamped = (watts < low) | (watts > high)
    p = np.minimum(np.maximum(watts, low), high)
    targets = -per_entry(math.log, 1.0 - (p - saturation.p_min) / saturation.span)
    rows = counts / np.reshape(saturation.per_pass, (-1, 3))
    return rows.reshape(len(watts), -1), targets, clamped


def _nonnegative_lstsq(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares with x >= 0 via clamp-and-re-solve over the active set."""
    n = a.shape[1]
    active = np.ones(n, dtype=bool)
    x = np.zeros(n)
    for _ in range(n + 1):
        if not active.any():
            break
        sol, _, _, _ = np.linalg.lstsq(a[:, active], y, rcond=None)
        negative = sol < 0.0
        if not negative.any():
            x = np.zeros(n)
            x[active] = sol
            break
        idx = np.flatnonzero(active)
        active[idx[negative]] = False
    residual = float(np.linalg.norm(a @ x - y))
    return x, residual


def fit_coefficients(saturation: SaturationConstants, watts, counts) -> FitResult:
    """Fit per-pass (k_b, k_v, k_f) from a window of meter readings
    ``watts[k]`` and per-pass (b, v, f) counts ``counts[k, i]``.

    Requires at least three frames per non-resolution pass. Columns the
    window never exercised (below the minimum-signal floor) are excluded and
    reported unidentified; that includes every kind a pass does not use,
    whose counts must be 0.0. A rank-deficient remainder is solved least-norm
    and flagged degenerate.
    """
    n_passes = len(saturation.per_pass)
    if len(watts) < 3 * n_passes:
        raise ValueError(
            f"need at least {3 * n_passes} samples to fit {n_passes} passes, got {len(watts)}"
        )
    a, y, clamped = linearize(saturation, watts, counts)

    observed = np.abs(a).max(axis=0) >= MIN_COLUMN_SIGNAL

    x = np.zeros(a.shape[1])
    if observed.any():
        sub = a[:, observed]
        rank = np.linalg.matrix_rank(sub)
        degenerate = rank < int(observed.sum())
        sol, residual = _nonnegative_lstsq(sub, y)
        x[observed] = sol
    else:
        degenerate = True
        residual = float(np.linalg.norm(y))

    return FitResult(
        coefficients=x.reshape(n_passes, 3),
        residual_norm=residual,
        degenerate=degenerate,
        identified=observed.reshape(n_passes, 3),
        clamp_count=int(clamped.sum()),
    )


def _model_levels(roster: PassRoster, config: RenderingConfiguration) -> tuple[int, ...]:
    roster.validate_config(config)
    return tuple(config[i] for i in roster.model_pass_indices)


def solve_unit_costs(
    coefficients: np.ndarray,
    cost_table: CostTable,
    fitted_config: RenderingConfiguration,
    roster: PassRoster,
    identified=True,
) -> UnitCostResult:
    """Recover (chi, psi) from ``(passes, 3)`` fitted coefficients and the
    cost table.

    Solves the overdetermined system k_v[i] = chi * Ins_v[i] and
    k_f[i] = chi * Ins_f[i][l] + psi * Tex_f[i][l] at the fitted levels, in the
    least-squares sense with nonnegativity, pass by pass. Equations for
    coefficients a pass does not use, or the fit could not identify
    (``identified[i, kind]`` False), contribute nothing and are dropped.
    """
    levels = _model_levels(roster, fitted_config)
    if cost_table.n_passes != len(levels):
        raise ValueError("cost table does not cover the roster's model passes")
    # [i, 0] is pass i's k_v equation and [i, 1] its k_f equation.
    equations = np.zeros((len(levels), 2, 2))
    equations[:, 0, 0] = cost_table.ins_v
    for i, lvl in enumerate(levels):
        equations[i, 1] = cost_table.ins_f[i][lvl], cost_table.tex_f[i][lvl]
    keep = (np.reshape(roster.model_masks, (-1, 3)).astype(bool) & identified)[:, 1:]
    if not keep.any():
        raise ValueError("no usable equations: fit identified no vertex/fragment coefficients")
    a = equations[keep]
    y = coefficients[:, 1:][keep]

    if np.abs(a[:, 1]).max() == 0.0:
        # No equation sees a texel: psi is indeterminate, and stays 0.
        sol, residual = _nonnegative_lstsq(a[:, :1], y)
        chi, psi = float(sol[0]), 0.0
    else:
        sol, residual = _nonnegative_lstsq(a, y)
        chi, psi = float(sol[0]), float(sol[1])
    return UnitCostResult(UnitCosts(chi, psi), residual)


def level_coefficients(unit_costs: UnitCosts, cost_table: CostTable, k_b) -> np.ndarray:
    """``[i, l]`` is pass i's (k_b, k_v, k_f) at level l: its batch cost
    ``k_b[i]``, which no level changes, k_v = chi*Ins_v and
    k_f = chi*Ins_f + psi*Tex_f. A pass with fewer levels than the table
    repeats its last one."""
    levels = max(map(len, cost_table.ins_f), default=1)
    ins_f, tex_f = (
        np.array([row + row[-1:] * (levels - len(row)) for row in rows]).reshape(-1, levels)
        for rows in (cost_table.ins_f, cost_table.tex_f)
    )
    table = np.empty((cost_table.n_passes, levels, 3))
    table[..., 0] = np.reshape(k_b, (-1, 1))
    table[..., 1] = unit_costs.chi * np.reshape(cost_table.ins_v, (-1, 1))
    table[..., 2] = unit_costs.chi * ins_f + unit_costs.psi * tex_f
    return table


def level_rows(roster: PassRoster, table: np.ndarray, config: RenderingConfiguration) -> np.ndarray:
    """``[i]`` is ``table[i, l]``, model pass i's row at its level l in ``config``."""
    levels = _model_levels(roster, config)
    return table[range(len(levels)), levels]


def coefficients_for_config(
    unit_costs: UnitCosts,
    cost_table: CostTable,
    config: RenderingConfiguration,
    fitted: np.ndarray,
    roster: PassRoster,
) -> np.ndarray:
    """Coefficients for an arbitrary configuration from one fitted ``(passes,
    3)`` set: its rows of :func:`level_coefficients`, with the fitted batch
    costs."""
    table = level_coefficients(unit_costs, cost_table, fitted[:, 0])
    return level_rows(roster, table, config)


def config_counts(
    roster: PassRoster, counts: np.ndarray, config: RenderingConfiguration
) -> np.ndarray:
    """``[i]`` is pass i's (b, v, f) in ``config``, from a frame's count
    table ``counts[l, r, i]``: pass i's at level l and resolution level r."""
    levels = _model_levels(roster, config)
    res = roster.resolution_index
    return counts[levels, 0 if res is None else config[res], range(len(levels))]


def lattice_loads(roster: PassRoster, loads: np.ndarray) -> np.ndarray:
    """Per-pass load terms ``loads[l, r, i]``, pass i's at level l and
    resolution level r, spread over the lattice: ``[k, i]`` is pass i's at
    configuration k, in enumeration order."""
    grid = level_grid(roster)
    res = roster.resolution_index
    res_levels = 0 if res is None else grid[res]
    shape = tuple(p.level_count for p in roster.passes)
    per_pass = [
        np.broadcast_to(loads[grid[ri], res_levels, i], shape)
        for i, ri in enumerate(roster.model_pass_indices)
    ]
    return np.stack(per_pass, axis=-1).reshape(roster.config_count, -1)


def predict_all(model: PowerModel, counts: np.ndarray) -> np.ndarray:
    """Predicted watts for every configuration at one frame, in enumeration
    order, from the frame's count table ``counts[l, r, i]``
    (:meth:`simgpu.SceneTrace.counts`).

    A pass's load term depends only on its own level and the resolution
    level, so each is taken once over the reuse coefficients
    (:func:`level_coefficients`) and spread over the lattice
    (:func:`lattice_loads`). The watts are clamped below P_M as in
    :func:`predict_powers`, and the fitted configuration keeps its raw
    coefficients, as in :meth:`PowerModel.coefficients_for`, so every entry
    equals :func:`predict_power` of its configuration bit for bit.
    """
    roster, sat = model.roster, model.saturation
    reuse = level_coefficients(model.unit_costs, model.cost_table, model.coefficients[:, 0])
    loads = pass_loads(sat, reuse.transpose(1, 0, 2)[:, None], counts)
    out = np.minimum(power(sat, lattice_loads(roster, loads)), math.nextafter(sat.p_max, -math.inf))
    fitted = model.fitted_config
    out[config_index(roster, fitted)] = predict_powers(
        sat, model.coefficients, config_counts(roster, counts, fitted)
    )
    return out
