"""Runtime controller: budget mapping, constrained selection, temporal filtering,
and the accuracy-check / refit / coefficient-reuse cycle.

The governor is single-threaded per simulation run. Work that the real system
would push to worker threads (model fitting, unit-cost solving, SSIM) is issued
as requests whose results land a modeled number of frames later, so identical
seeds and scenarios produce identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .configspace import (
    PassRoster,
    RenderingConfiguration,
    config_at,
    single_degradation_config,
)
from .powermodel import (
    PowerModel,
    SaturationConstants,
    UnitCostResult,
    check_window,
    fit_coefficients,
    mean,
    predict_all,
    predict_powers,
    solve_unit_costs,
)
from .quality import ErrorModel, estimate_all_errors, estimate_error, update_worst_errors

PHASE_STEADY = "steady"
PHASE_SELECTING = "selecting"
PHASE_FILTERING = "filtering"
PHASE_CHECK = "check"
PHASE_FITTING = "fitting"


@dataclass(frozen=True)
class GovernorConfig:
    """Control-loop parameters; defaults follow the desktop configuration."""

    budget_percent: float = 0.4
    mode: str = "power"  # "power" minimizes error under a power budget; "error" the dual
    error_budget: float = 0.05
    accuracy_check_window: int = 10
    fitting_window: int = 30
    accuracy_threshold: float = 0.10
    error_frequency: int = 10
    selection_period: int = 200
    filter_interval: float = 2.0
    fps: float = 30.0
    fit_latency: float = 0.0026
    reuse_latency: float = 0.0007
    ssim_latency: float = 0.05
    initial_fit: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_percent <= 1.0:
            raise ValueError("budget percent must lie in [0, 1]")
        if self.mode not in ("power", "error"):
            raise ValueError("mode must be 'power' or 'error'")
        for name in ("accuracy_check_window", "fitting_window", "error_frequency", "selection_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.accuracy_threshold <= 0:
            raise ValueError("accuracy threshold must be positive")
        if self.filter_interval <= 0 or self.fps <= 0:
            raise ValueError("filter interval and fps must be positive")

    @property
    def fit_latency_frames(self) -> int:
        return max(1, math.ceil((self.fit_latency + self.reuse_latency) * self.fps))

    @property
    def ssim_latency_frames(self) -> int:
        return max(1, math.ceil(self.ssim_latency * self.fps))


@dataclass(frozen=True)
class SelectionResult:
    config: RenderingConfiguration
    infeasible: bool
    predicted_power: float
    estimated_error: float


def budget_watts(config: GovernorConfig, saturation: SaturationConstants) -> float:
    """Absolute budget from the percent position between idle and saturated power."""
    return saturation.p_min + config.budget_percent * saturation.span


def _check_predictions(roster: PassRoster, predictions: np.ndarray) -> np.ndarray:
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (roster.config_count,):
        raise ValueError(
            f"need one prediction per configuration ({roster.config_count}), "
            f"got shape {predictions.shape}"
        )
    return predictions


def _first_min(candidates: np.ndarray, primary: np.ndarray, secondary: np.ndarray) -> int:
    """Index of the lexicographic minimum of (primary, secondary, index) over
    the candidates."""
    candidates = candidates & (primary == primary[candidates].min())
    candidates = candidates & (secondary == secondary[candidates].min())
    return int(np.flatnonzero(candidates)[0])


def _result(
    roster: PassRoster,
    predictions: np.ndarray,
    error_model: ErrorModel,
    index: int,
    infeasible: bool,
) -> SelectionResult:
    config = config_at(roster, index)
    return SelectionResult(
        config, infeasible, float(predictions[index]), estimate_error(error_model, config)
    )


def select_configuration(
    roster: PassRoster,
    predictions: np.ndarray,
    error_model: ErrorModel,
    budget: float,
) -> SelectionResult:
    """Lowest estimated error among configurations predicted strictly under budget.

    ``predictions`` holds one power per configuration in enumeration order.
    Ties break toward lower predicted power, then enumeration order. With no
    feasible configuration, falls back to the minimum-power one and raises the
    infeasibility flag.
    """
    predictions = _check_predictions(roster, predictions)
    feasible = predictions < budget
    if not feasible.any():
        return _result(roster, predictions, error_model, int(np.argmin(predictions)), True)
    errors = estimate_all_errors(error_model, roster)
    index = _first_min(feasible, errors, predictions)
    return _result(roster, predictions, error_model, index, False)


def select_configuration_error_budget(
    roster: PassRoster,
    predictions: np.ndarray,
    error_model: ErrorModel,
    error_budget: float,
) -> SelectionResult:
    """Lowest predicted power among configurations with error strictly under budget.

    ``predictions`` holds one power per configuration in enumeration order.
    Ties break toward lower error, then enumeration order. The all-best
    configuration has error zero, so infeasibility only arises for a
    nonpositive budget; it is then returned flagged.
    """
    predictions = _check_predictions(roster, predictions)
    errors = estimate_all_errors(error_model, roster)
    feasible = errors < error_budget
    if not feasible.any():
        return _result(roster, predictions, error_model, 0, True)
    index = _first_min(feasible, predictions, errors)
    return _result(roster, predictions, error_model, index, False)


def temporal_filter(
    s_old: RenderingConfiguration,
    s_new: RenderingConfiguration,
    t: float,
    interval: float,
) -> RenderingConfiguration:
    """Componentwise rounded interpolation between two configurations."""
    if not 0.0 <= t <= interval:
        raise ValueError(f"t={t} outside [0, {interval}]")
    w = t / interval
    levels = tuple(
        int(math.floor((1.0 - w) * lo + w * ln + 0.5)) for lo, ln in zip(s_old, s_new)
    )
    return RenderingConfiguration(levels)


def accuracy_check(
    model: PowerModel,
    watts,
    counts,
    threshold: float,
    config: RenderingConfiguration,
) -> bool:
    """True when the mean absolute prediction error at ``config`` over the
    window of meter readings ``watts[k]`` and per-pass (b, v, f) counts
    ``counts[k, i]`` exceeds the threshold fraction of (P_M - P_m)."""
    watts, counts = check_window(model.saturation, watts, counts)
    if not len(watts):
        raise ValueError("empty accuracy-check window")
    predicted = predict_powers(model.saturation, model.coefficients_for(config), counts)
    return mean(np.abs(watts - predicted).tolist()) > threshold * model.saturation.span


def background_slots(roster: PassRoster) -> list[int | None]:
    """The background cycle's slots in order: ``None`` for the reference,
    then each degradable pass."""
    return [None] + [i for i, p in enumerate(roster.passes) if p.level_count > 1]


def pass_slot_config(roster: PassRoster, slot: int) -> RenderingConfiguration:
    """The configuration a pass slot scores: that pass alone at its worst level."""
    return single_degradation_config(roster, slot, roster.passes[slot].level_count - 1)


def background_plan(
    roster: PassRoster, config: GovernorConfig, frame_count: int
) -> list[tuple[int, tuple[int, ...]]]:
    """The background cycle of a :class:`Governor` ticked over frames
    0 … ``frame_count`` − 1: each reference frame, with the passes whose
    slots score against it inside the trace, in slot order. References with
    no such pass are left out.

    Slot k of the cycle falls on frame k · ``error_frequency``, so the plan
    depends only on the roster, ``error_frequency`` and the frame count.
    """
    slots = background_slots(roster)
    every = config.error_frequency
    plan = []
    for ref in range(0, frame_count, every * len(slots)):
        passes = tuple(
            slot for k, slot in enumerate(slots[1:], 1) if ref + k * every < frame_count
        )
        if passes:
            plan.append((ref, passes))
    return plan


@dataclass
class GovernorState:
    phase: str
    s_old: RenderingConfiguration
    s_new: RenderingConfiguration
    s_eff: RenderingConfiguration
    filter_start_frame: int = 0
    frames_since_set: int = 0
    background_cursor: int = 0
    # Frames of the accuracy-check or fitting window taken so far.
    window: int = 0


@dataclass(frozen=True)
class RunLogRecord:
    """One structured record per simulated frame: the governor's decisions.
    The frame's measured and predicted power are not decisions, so the
    harness computes them beside the loop."""

    frame: int
    phase: str
    s_eff: RenderingConfiguration
    budget_watts: float
    selection: bool = False
    refit: bool = False
    reuse: bool = False
    infeasible: bool = False
    degenerate: bool = False
    fit_clamped: int = 0
    fit_residual: float | None = None
    cost_residual: float | None = None
    bg_request: str = ""
    err_update_pass: int = -1
    err_update_value: float | None = None
    e_worst: tuple[float, ...] = ()
    staleness: tuple[int, ...] = ()


@dataclass(frozen=True)
class TickResult:
    s_eff: RenderingConfiguration
    record: RunLogRecord


class Governor:
    """Phase machine driving selection, filtering, checking, and refitting.

    Engine access goes through three hooks so the governor never touches the
    hidden oracle directly:

    - ``measure(config, frames) -> (watts, counts)``, the power meter's
      ``(frames,)`` readings and the pipeline's ``(frames, passes, 3)``
      counts: ``counts[k, i]`` is ``config``'s (b, v, f) for pass i at the
      k-th frame it renders
    - ``counts(frame) -> count table`` (pipeline queries for selection):
      ``[l, r, i]`` is pass i's (b, v, f) at level l and resolution level r,
      as :func:`powermodel.predict_all` takes it
    - ``scorer(frame) -> score``  (background renders and SSIMs): ``score``
      maps a list of configurations to their ``1 - SSIM`` against the
      all-best render of ``frame``, as :class:`truth.FrameScorer` does. It
      may also return scores computed ahead of time, elsewhere.

    Every ``error_frequency`` frames the background cycle takes its next
    slot, in :func:`background_slots` order. The ``ref`` slot takes the
    scorer of that frame; each pass slot scores that pass's worst-level
    configuration (:func:`pass_slot_config`) with it, and the error lands
    ``ssim_latency_frames`` later. Ticked over frames 0, 1, 2, …, the
    governor asks for exactly the scores :func:`background_plan` lists, in
    its order, so a caller can have them computed before they are asked for.

    Like the paper's governor, it reads the meter, and the counts of the
    configuration it renders, only for the frames of its accuracy-check and
    fitting windows. ``s_eff`` does not change inside a window, so the tick
    that fills one reads its frames' meter and counts in one ``measure``
    call; no other tick reads the meter, and only selection asks ``counts``,
    for its own frame.
    """

    def __init__(
        self,
        roster: PassRoster,
        config: GovernorConfig,
        power_model: PowerModel,
        error_model: ErrorModel,
        measure,
        counts,
        scorer,
        initial_config: RenderingConfiguration | None = None,
    ) -> None:
        self.roster = roster
        self.config = config
        self.power_model = power_model
        self.error_model = error_model
        self._measure = measure
        self._counts = counts
        self._scorer = scorer

        start = initial_config if initial_config is not None else roster.best_config()
        roster.validate_config(start)
        phase = PHASE_FITTING if config.initial_fit else PHASE_STEADY
        self.state = GovernorState(phase=phase, s_old=start, s_new=start, s_eff=start)
        self.budget = budget_watts(config, power_model.saturation)

        self._bg_slots = background_slots(roster)
        # The frame of the cycle's reference, and its scorer.
        self._pending_ref: tuple[int, object] | None = None
        self._pending: list[tuple[int, str, object]] = []

        self.selection_count = 0
        self.refit_count = 0
        self.fit_count = 0
        self.infeasible_count = 0
        self.clamp_total = 0

    # -- async plumbing ------------------------------------------------------

    def _schedule(self, due_frame: int, kind: str, payload) -> None:
        self._pending.append((due_frame, kind, payload))

    def _apply_due(self, frame: int, flags: dict) -> None:
        due = [item for item in self._pending if item[0] <= frame]
        self._pending = [item for item in self._pending if item[0] > frame]
        for _, kind, payload in due:
            if kind == "fit":
                model, fit_res, cost_res = payload
                self.power_model = model
                flags["reuse"] = True
                flags["degenerate"] = fit_res.degenerate
                flags["fit_clamped"] = fit_res.clamp_count
                flags["fit_residual"] = fit_res.residual_norm
                flags["cost_residual"] = cost_res.residual_norm
                self.clamp_total += fit_res.clamp_count
            elif kind == "error":
                pass_index, ref_frame, error = payload
                self.error_model = update_worst_errors(
                    self.error_model, {pass_index: error}, ref_frame
                )
                flags["err_update_pass"] = pass_index
                flags["err_update_value"] = self.error_model.e_worst[pass_index]

    def _issue_fit(self, frame: int, watts, counts, fitted_config: RenderingConfiguration) -> None:
        fit_res = fit_coefficients(self.power_model.saturation, watts, counts)
        # Slots this window could not identify keep what the previous snapshot
        # believed about this configuration instead of silently becoming zero.
        prior = self.power_model.coefficients_for(fitted_config)
        coefficients = np.where(fit_res.identified, fit_res.coefficients, prior)
        try:
            cost_res = solve_unit_costs(
                fit_res.coefficients,
                self.power_model.cost_table,
                fitted_config,
                self.roster,
                fit_res.identified,
            )
            unit_costs = cost_res.unit_costs
        except ValueError:
            # Nothing identified; keep the previous unit costs.
            cost_res = UnitCostResult(self.power_model.unit_costs, float("nan"))
            unit_costs = self.power_model.unit_costs
        model = replace(
            self.power_model,
            coefficients=coefficients,
            unit_costs=unit_costs,
            fitted_config=fitted_config,
        )
        self.fit_count += 1
        self._schedule(frame + self.config.fit_latency_frames, "fit", (model, fit_res, cost_res))

    # -- selection -----------------------------------------------------------

    def _select(self, frame: int) -> SelectionResult:
        predictions = predict_all(self.power_model, self._counts(frame))
        if self.config.mode == "error":
            result = select_configuration_error_budget(
                self.roster, predictions, self.error_model, self.config.error_budget
            )
        else:
            result = select_configuration(
                self.roster, predictions, self.error_model, self.budget
            )
        self.selection_count += 1
        if result.infeasible:
            self.infeasible_count += 1
        return result

    # -- background error renders ---------------------------------------------

    def _background(self, frame: int, flags: dict) -> str:
        if frame % self.config.error_frequency != 0:
            return ""
        slot = self._bg_slots[self.state.background_cursor]
        self.state.background_cursor = (self.state.background_cursor + 1) % len(self._bg_slots)
        if slot is None:
            self._pending_ref = (frame, self._scorer(frame))
            return "ref"
        if self._pending_ref is None:
            return ""
        ref_frame, score = self._pending_ref
        (error,) = score([pass_slot_config(self.roster, slot)])
        self._schedule(
            frame + self.config.ssim_latency_frames,
            "error",
            (slot, ref_frame, error),
        )
        return f"pass:{slot}"

    # -- the frame loop body ---------------------------------------------------

    def tick(self, frame: int) -> TickResult:
        st = self.state
        cfg = self.config
        flags: dict = {}

        self._apply_due(frame, flags)

        phase_label = st.phase
        if st.phase == PHASE_STEADY and st.frames_since_set >= cfg.selection_period:
            result = self._select(frame)
            flags["selection"] = True
            flags["infeasible"] = result.infeasible
            st.s_old = st.s_eff
            st.s_new = result.config
            st.filter_start_frame = frame
            st.phase = PHASE_FILTERING
            phase_label = PHASE_SELECTING

        if st.phase == PHASE_FILTERING:
            t = (frame - st.filter_start_frame) / cfg.fps
            if t >= cfg.filter_interval:
                st.s_eff = st.s_new
                st.s_old = st.s_new
                st.frames_since_set = 0
                st.phase = PHASE_CHECK
                if phase_label != PHASE_SELECTING:
                    phase_label = PHASE_CHECK
            else:
                st.s_eff = temporal_filter(st.s_old, st.s_new, t, cfg.filter_interval)
                if phase_label != PHASE_SELECTING:
                    phase_label = PHASE_FILTERING

        if st.phase in (PHASE_CHECK, PHASE_FITTING):
            size = cfg.accuracy_check_window if st.phase == PHASE_CHECK else cfg.fitting_window
            st.window += 1
            if st.window == size:
                st.window = 0
                watts, counts = self._measure(st.s_eff, range(frame + 1 - size, frame + 1))
                if st.phase == PHASE_FITTING:
                    self._issue_fit(frame, watts, counts, st.s_eff)
                    st.phase = PHASE_STEADY
                elif accuracy_check(
                    self.power_model, watts, counts, cfg.accuracy_threshold, st.s_eff
                ):
                    flags["refit"] = True
                    self.refit_count += 1
                    st.phase = PHASE_FITTING
                else:
                    st.phase = PHASE_STEADY

        bg_request = self._background(frame, flags)
        st.frames_since_set += 1

        record = RunLogRecord(
            frame=frame,
            phase=phase_label,
            s_eff=st.s_eff,
            budget_watts=self.budget,
            bg_request=bg_request,
            e_worst=self.error_model.e_worst,
            staleness=self.error_model.staleness(frame),
            **flags,
        )
        return TickResult(st.s_eff, record)
