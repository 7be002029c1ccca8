"""Simulation harness: initialization, governed runs, pinned replays, and
ground-truth oracle tables, with CSV logs and plain-text summaries.

All outputs are deterministic functions of (scenario, seed): no timestamps, no
environment-dependent content, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import itertools
import json
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .configspace import RenderingConfiguration, enumerate_configurations, single_degradations
from .governor import (
    Governor,
    RunLogRecord,
    background_plan,
    budget_watts,
    pass_slot_config,
)
from .powermodel import (
    FrameSample,
    PowerCoefficients,
    PowerModel,
    SaturationConstants,
    UnitCosts,
    fit_coefficients,
    mean,
    predict_powers,
    solve_unit_costs,
)
from .quality import (
    ErrorModel,
    calibrate_ratios,
    quality_error,  # noqa: F401 -- perfbench/run.py wraps this name as its speed-probe hook
)
from .scenario import Scenario
from .simgpu import (
    FramePowers,
    ProbeResult,
    empty_trace,
    exact_power_all,
    probe_min_power,
    probe_saturation,
    render_frame,  # noqa: F401 -- perfbench's tests trace this binding
    seed_states,
    seeded_generator,
)
from .truth import FrameScorer, lattice_errors

CSV_SCHEMA_VERSION = 1

_BASE_COLUMNS = [
    "frame",
    "phase",
    "s_eff",
    "budget_watts",
    "predicted_w",
    "measured_w",
    "selection",
    "refit",
    "reuse",
    "infeasible",
    "degenerate",
    "fit_clamped",
    "fit_residual",
    "cost_residual",
    "bg_request",
    "err_update_pass",
    "err_update_value",
    "true_error",
]
# The cells run and replay fill in after the row is built.
_PREDICTED = _BASE_COLUMNS.index("predicted_w")
_MEASURED = _BASE_COLUMNS.index("measured_w")
_TRUE_ERROR = _BASE_COLUMNS.index("true_error")


def log_columns(scenario: Scenario) -> list[str]:
    names = [p.name for p in scenario.roster.passes]
    return _BASE_COLUMNS + [f"e_worst_{n}" for n in names] + [f"stale_{n}" for n in names]


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Initialization:
    p_min_probed: float
    probe: ProbeResult
    power_model: PowerModel
    # None from :func:`_probe` alone, which does not calibrate.
    error_model: ErrorModel | None
    probe_frames_used: int


def initialize(scenario: Scenario) -> Initialization:
    """Probe idle/saturated power, seed the model, and calibrate error ratios.

    Deterministic for a given scenario, so every command that initializes sees
    identical constants. :func:`run` has its scoring workers calibrate while
    it probes, and ``replay`` and ``probe`` do not calibrate.
    """
    init = _probe(scenario)
    ratios = calibrate_ratios(
        partial(FrameScorer, scenario.synthesizer), scenario.roster, scenario.calibration_frames
    )
    return dataclasses.replace(init, error_model=ErrorModel.initial(ratios))


def _probe(scenario: Scenario) -> Initialization:
    """The rest of :func:`initialize`: probe idle and saturated power and seed
    the power model, fitted to a generic sweep where the governor does not
    fit on the first live frames (``initial_fit``); no error model."""
    roster = scenario.roster
    oracle = scenario.oracle
    probe_opts = scenario.probe

    idle = empty_trace(roster, max(probe_opts.min_power_frames, 1))
    p_min = probe_min_power(oracle, idle, probe_opts.min_power_frames)
    probe = probe_saturation(oracle, p_min, probe_opts)

    n_model = len(roster.model_pass_indices)
    model = PowerModel(
        roster=roster,
        saturation=probe.saturation,
        coefficients=PowerCoefficients.zeros(n_model),
        unit_costs=UnitCosts(0.0, 0.0),
        cost_table=scenario.cost_table,
        fitted_config=scenario.initial_config,
    )

    if not scenario.governor.initial_fit:
        sweep = _generic_sweep_samples(scenario, probe.saturation.per_pass)
        fit = fit_coefficients(sweep, probe.saturation)
        costs = solve_unit_costs(
            fit.coefficients,
            scenario.cost_table,
            roster.best_config(),
            roster,
            fit.identified,
        )
        model = dataclasses.replace(
            model,
            coefficients=fit.coefficients,
            unit_costs=costs.unit_costs,
            fitted_config=roster.best_config(),
            identified=fit.identified,
        )

    return Initialization(
        p_min_probed=p_min,
        probe=probe,
        power_model=model,
        error_model=None,
        probe_frames_used=probe.frames_used + probe_opts.min_power_frames,
    )


_SWEEP_SAMPLES = 120


def _generic_sweep_samples(scenario: Scenario, saturation_per_pass):
    """Dummy-scene sweep covering the load space between idle and saturation.

    Each of :data:`_SWEEP_SAMPLES` samples splits a total load level across
    the per-pass primitive slots with random weights, 0.0 for every kind a
    pass does not use; the level ramps so measured power walks from near P_m
    toward P_M. The ramp tops out below deep saturation, where the log
    transform would amplify measurement noise. Every sample's exact power is
    taken in one call.
    """
    oracle, roster = scenario.oracle, scenario.roster
    uses = np.asarray(roster.model_masks, dtype=float)
    n = len(saturation_per_pass)
    counts = np.empty((_SWEEP_SAMPLES, n, 3))
    # Sample k's weights are default_rng([seed, 424243, k])'s draws.
    states = seed_states((scenario.seed, 424243), 0, _SWEEP_SAMPLES)
    for k in range(_SWEEP_SAMPLES):
        rng = seeded_generator(states[k])
        total_load = 1.8 * (k + 1) / _SWEEP_SAMPLES
        weights = rng.uniform(0.1, 1.0, size=(n, 3)) * uses
        weights *= total_load / weights.sum()
        counts[k] = weights * np.asarray(saturation_per_pass)
    exact = oracle.exact(roster.best_config(), counts).tolist()
    return [
        FrameSample(max(power + oracle.noise(20_000_000 + k), 1e-9), per_pass)
        for k, (power, per_pass) in enumerate(zip(exact, counts.tolist()))
    ]


@dataclass(frozen=True)
class RunResult:
    summary: dict
    log_path: Path | None
    summary_path: Path | None


def _write_csv(path: Path, scenario: Scenario, rows: list[list]) -> None:
    columns = log_columns(scenario)
    lines = [
        f"# rendergov-log v{CSV_SCHEMA_VERSION} scenario={scenario.name} seed={scenario.seed}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _record_row(record: RunLogRecord) -> list:
    """The record's CSV row, with the ``predicted_w``, ``measured_w`` and
    ``true_error`` cells left empty."""
    return [
        record.frame,
        record.phase,
        str(record.s_eff),
        record.budget_watts,
        None,
        None,
        record.selection,
        record.refit,
        record.reuse,
        record.infeasible,
        record.degenerate,
        record.fit_clamped,
        record.fit_residual,
        record.cost_residual,
        record.bg_request,
        record.err_update_pass,
        record.err_update_value,
        None,
        *record.e_worst,
        *record.staleness,
    ]


def _write_summary(path: Path, summary: dict) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in summary.items()]
    path.write_text("\n".join(lines) + "\n")


def _result(scenario: Scenario, rows, summary, out_dir, log_name, summary_name) -> RunResult:
    """``summary``, with the log and summary written under ``out_dir`` if given."""
    if out_dir is None:
        return RunResult(summary, None, None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path, summary_path = out / log_name, out / summary_name
    _write_csv(log_path, scenario, rows)
    _write_summary(summary_path, summary)
    return RunResult(summary, log_path, summary_path)


def _true_errors(
    scenario: Scenario, frame: int, configs: list[RenderingConfiguration]
) -> list[float]:
    """Exact ``1 - SSIM`` of each configuration at ``frame``, from one
    :class:`truth.FrameScorer`; for the few candidates ``run`` and ``replay``
    score per frame. A list of only the all-best configuration scores 0.0
    without rendering."""
    best = scenario.roster.best_config()
    if all(config == best for config in configs):
        return [0.0] * len(configs)
    return FrameScorer(scenario.synthesizer, frame)(configs)


# Frames per chunk in :func:`run` and :func:`replay_trace`: each chunk that
# holds a sampled frame is one scoring task, of that chunk's sampled frames.
# After the loop the caller scores the chunks no worker has started, so the last
# one it waits for is at most a chunk long: 64 frames made short runs slower
# than 16, and 8 gained less.
_CHUNK = 16

# What a forked scoring worker serves: the scenario, and the tasks' claim flags
# and their lock. Its initializer sets them, so a task carries only its claim
# flag's index and its jobs.
_worker: tuple | None = None

# A scoring task's jobs: score each configuration against the frame.
_Jobs = list[tuple[int, list[RenderingConfiguration]]]
# One governed frame of a run: its s_eff, and the saturation constants and
# s_eff's coefficients of the power model the governor held after its tick.
_Governed = tuple[RenderingConfiguration, SaturationConstants, PowerCoefficients]
# Per governed frame: the best and worst configurations' measured power, and
# s_eff's measured and predicted power.
_FramePowers = tuple[float, float, float, float]


def _sampled_chunks(scenario: Scenario) -> list[list[int]]:
    """The sampled frames (every ``error_sample_every``-th, from frame 0) of
    each :data:`_CHUNK`-frame chunk that holds one, in order."""
    sampled = range(0, scenario.trace.frame_count, scenario.error_sample_every)
    return [list(chunk) for _, chunk in itertools.groupby(sampled, lambda f: f // _CHUNK)]


def _score_jobs(scenario: Scenario, jobs: _Jobs) -> list[list[float]]:
    """:func:`_true_errors` of each ``(frame, configurations)`` job."""
    return [_true_errors(scenario, frame, configs) for frame, configs in jobs]


def _run_powers(at: FramePowers, governed: list[_Governed]) -> list[_FramePowers]:
    """The :data:`_FramePowers` of each frame of a run, from frame 0, given
    each frame's :data:`_Governed` tuple and the run's :class:`simgpu.FramePowers`,
    which has taken every frame's curve values and noise draw once.

    One array pass over the frames measures the best and worst
    configurations. Each run of frames whose s_eff, saturation constants and
    coefficients are the same objects, as :func:`run` keeps them until a fit
    lands or s_eff changes, is then measured and predicted
    (:func:`powermodel.predict_powers`) in one pass over its own rows, and its
    prediction reuses the counts its measurement computed.
    """
    roster = at.oracle.roster
    best, worst = at.measured(roster.best_config()), at.measured(roster.worst_config())
    measured, predicted = np.empty(len(governed)), np.empty(len(governed))
    start = 0
    for _, group in itertools.groupby(governed, lambda frame: tuple(map(id, frame))):
        config, saturation, coefficients = next(group)
        rows = slice(start, start + 1 + sum(1 for _ in group))
        part = at[rows]
        measured[rows] = part.measured(config)
        predicted[rows] = predict_powers(saturation, coefficients, part.primitives(config))
        start = rows.stop
    return list(zip(best.tolist(), worst.tolist(), measured.tolist(), predicted.tolist()))


def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks of up to 4 MB in the heap, where it
    otherwise hands SSIM temporaries back to the OS after each scoring call
    and faults them in again on the next, about 170 minor page faults per
    demo call. glibc raises these thresholds by itself once a process frees
    a larger block, as ratio calibration does, but neither the caller of a
    forked :func:`run` nor :func:`replay` calibrates. Nothing happens where
    the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _start_worker(scenario: Scenario, claims, lock, cpus) -> None:
    global _worker
    _worker = scenario, claims, lock
    os.sched_setaffinity(0, {cpus.get()})


def _claim(claims, lock, i: int) -> bool:
    """Set task ``i``'s claim flag; False if it was set already."""
    with lock:
        if claims[i]:
            return False
        claims[i] = 1
        return True


def _score_in_worker(i, jobs: _Jobs) -> list[list[float]] | None:
    """Task ``i``'s :func:`_score_jobs` result, or None if the caller has
    claimed it."""
    scenario, claims, lock = _worker
    return _score_jobs(scenario, jobs) if _claim(claims, lock, i) else None


def _lookup(configs, errors):
    """A ``score`` callable, as the governor's ``scorer`` hook and
    :func:`quality.calibrate_ratios` take it, that looks each configuration's
    error up in ``errors``, the errors of ``configs``."""
    table = dict(zip(configs, errors))
    return lambda asked: [table[config] for config in asked]


class _Scorer:
    """Scores up to ``tasks`` tasks beside the caller, each a list of
    ``(frame, configurations)`` jobs, with :func:`_score_jobs`; a context
    manager.

    With n = min(CPUs this process may run on, ``tasks``) > 1 (``workers``
    replaces the CPU count), n - 1 workers are forked from one process pool on
    the first :meth:`submit`, and take the tasks in submission order while the
    caller goes on. Each worker and the caller is pinned to its own CPU,
    because the scheduler can leave a forked child on its parent's CPU; the
    caller gets its CPU set back on exit. The caller's objects are frozen
    (``gc.freeze``) before the fork, so that no collection in a worker or in
    the caller walks them and a worker does not copy their pages; they are
    unfrozen on exit, as every run ends in the same process.

    One claim rule decides who scores a task. Each task has a claim flag that
    the workers share: a worker claims a task before it scores it and skips
    one the caller has claimed, and the caller, when it needs a task's result
    (:meth:`result`), claims and scores the task if no worker has started
    it, and otherwise waits for the worker's result.

    No process is started when n <= 1, when CPU affinity or ``fork`` is not
    available, when the caller is daemonic (it may not have children) or when
    another thread is running (a forked child would inherit any lock that
    thread holds). Then no worker claims a task, so the same rule has the
    caller score each one when it needs it. Either way the scores are the
    same floats.
    """

    def __init__(self, scenario: Scenario, tasks: int, workers: int | None = None):
        self.scenario = scenario
        # (jobs, the worker's future or None) of each task.
        self.tasks: list = []
        self.claims, self.lock = bytearray(tasks), contextlib.nullcontext()
        self._to_worker = lambda *task: None
        self._exit = contextlib.ExitStack()
        _keep_freed_memory()
        pinnable = hasattr(os, "sched_getaffinity")
        allowed = os.sched_getaffinity(0) if pinnable else set()
        n = min(len(allowed) if workers is None else workers, tasks)
        if (
            n <= 1
            or not pinnable
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1
        ):
            return
        context = multiprocessing.get_context("fork")
        cpus = sorted(allowed)
        with contextlib.ExitStack() as stack:
            stack.callback(os.sched_setaffinity, 0, allowed)
            worker_cpus = context.SimpleQueue()
            stack.callback(worker_cpus.close)
            for i in range(n - 1):
                worker_cpus.put(cpus[i % len(cpus)])
            self.claims, self.lock = context.RawArray("b", tasks), context.Lock()
            gc.freeze()
            stack.callback(gc.unfreeze)
            pool = ProcessPoolExecutor(
                n - 1,
                mp_context=context,
                initializer=_start_worker,
                initargs=(scenario, self.claims, self.lock, worker_cpus),
            )
            stack.callback(pool.shutdown, cancel_futures=True)
            os.sched_setaffinity(0, {cpus[(n - 1) % len(cpus)]})
            self._to_worker = partial(pool.submit, _score_in_worker)
            self._exit = stack.pop_all()

    def __enter__(self) -> _Scorer:
        return self

    def __exit__(self, *exc) -> None:
        self._exit.close()

    def submit(self, jobs: _Jobs) -> int:
        """Hand a task to the workers; its index, for :meth:`result`."""
        i = len(self.tasks)
        self.tasks.append((jobs, self._to_worker(i, jobs)))
        return i

    def result(self, i: int) -> list[list[float]]:
        """Task ``i``'s :func:`_score_jobs` result, scored here if no worker
        has started it. Ask once per task."""
        jobs, future = self.tasks[i]
        if _claim(self.claims, self.lock, i):
            return _score_jobs(self.scenario, jobs)
        return future.result()

    def results(self, tasks) -> list[list[list[float]]]:
        """:meth:`result` of each of ``tasks``, in order. Workers take tasks in
        submission order and the caller asks from the last one back, so it
        scores every task no worker has started before it waits for any, and
        then waits for at most the tasks the workers are scoring."""
        return [self.result(i) for i in reversed(tasks)][::-1]


def replay_trace(scenario: Scenario, config: RenderingConfiguration) -> dict:
    """Run the trace with one pinned configuration; no governor involved.

    Returns every frame's ``exact`` and ``measured`` power, the true
    ``errors`` of the sampled frames (every ``error_sample_every``-th, from
    frame 0), and the means of ``measured`` and ``errors``. The sampled
    frames of each :data:`_CHUNK`-frame chunk are one task of a
    :class:`_Scorer`, as :func:`run` hands them, and are scored while the
    caller takes every frame's power in one array pass
    (:class:`simgpu.FramePowers`). The all-best configuration scores 0.0
    without rendering, so its replay starts no process.
    """
    scenario.roster.validate_config(config)
    chunks = _sampled_chunks(scenario)
    workers = 1 if config == scenario.roster.best_config() else None
    with _Scorer(scenario, len(chunks), workers) as scorer:
        tasks = [scorer.submit([(frame, [config]) for frame in chunk]) for chunk in chunks]
        at = FramePowers(scenario.oracle, scenario.trace, range(scenario.trace.frame_count))
        exact, measured = at.exact(config).tolist(), at.measured(config).tolist()
        errors = [err for truths in scorer.results(tasks) for (err,) in truths]
    return {
        "exact": exact,
        "measured": measured,
        "errors": errors,
        "mean_power": mean(measured),
        "mean_error": mean(errors),
    }


def run(scenario: Scenario, out_dir: str | Path | None = None) -> RunResult:
    """Initialization plus the governed frame loop, with min/max-quality
    replays as in-run baselines.

    The :class:`_Scorer` starts first, and its first tasks are one per
    calibration frame: score every single-pass degradation against that
    frame. Where it forks, its workers calibrate while the caller probes and
    fits (:func:`_probe`); the caller then collects those tasks, scoring any
    no worker has started, and hands their scores to
    :func:`quality.calibrate_ratios`. Either way the governor starts from
    :func:`initialize`'s models.

    The governor's background cycle is known before the loop starts
    (:func:`governor.background_plan`), so next, before any chunk, the scorer
    gets one task per reference frame of the cycle: score that cycle's pass
    slots against it. At a ``ref`` slot the governor's ``scorer`` hook takes
    that task's result, scoring the task in the tick if no worker has started
    it, and its pass slots look their scores up. A reference that is not
    planned has no pass slot inside the trace, so the hook renders nothing
    for it.

    The baselines ride along with the governed loop: every frame also
    measures the best and worst configurations, and every sampled frame
    scores the worst one against the same reference as ``s_eff``. The best
    configuration's error is exactly 0.0, so its baseline is power only.

    One :class:`simgpu.FramePowers` of the whole trace serves the governor's
    ``measure`` and ``counts`` hooks, each window's readings in one pass, and
    then :func:`_run_powers`. No decision reads a baseline, a true error, or
    the power of a frame outside the governor's accuracy-check and fitting
    windows, so the loop itself only ticks the governor, builds each frame's
    row and keeps its :data:`_Governed` tuple. At the end of each
    :data:`_CHUNK` frames that hold a sampled frame it hands the scorer one
    task, each sampled frame's ``(frame, [worst, s_eff])``, which forked
    workers score beside the loop; a chunk with no sampled frame is not
    handed over. After the loop the
    caller takes every frame's powers in one pass over the whole trace
    (:func:`_run_powers`) while the workers score, then scores the chunks no
    worker has started. The governor's model changes only when a fit lands,
    and ``s_eff`` only while it glides, so the loop computes ``s_eff``'s
    coefficients only when either changes, and keeps the same objects until
    then: each such run of frames is measured and predicted in one array
    pass. The rows' ``predicted_w``, ``measured_w`` and ``true_error`` cells
    are filled in after the loop.
    """
    roster = scenario.roster
    worst = roster.worst_config()
    frame_count = scenario.trace.frame_count
    every = scenario.error_sample_every
    calibration = scenario.calibration_frames
    degradations = list(single_degradations(roster).values())
    plan = background_plan(roster, scenario.governor, frame_count)

    rows = []
    model = config = coefficients = None
    tasks = len(calibration) + len(plan) + len(_sampled_chunks(scenario))
    with _Scorer(scenario, tasks) as scorer:
        calibrating = [scorer.submit([(frame, degradations)]) for frame in calibration]
        references = {}
        for ref, passes in plan:
            configs = [pass_slot_config(roster, p) for p in passes]
            references[ref] = scorer.submit([(ref, configs)]), configs

        def background(frame: int):
            # No pass slot asks for an unplanned reference's scores.
            i, configs = references.get(frame, (None, []))
            errors = [] if i is None else scorer.result(i)[0]
            return _lookup(configs, errors)

        init = _probe(scenario)
        at = FramePowers(scenario.oracle, scenario.trace, range(frame_count))
        calibrated = {
            frame: _lookup(degradations, errors)
            for frame, (errors,) in zip(calibration, scorer.results(calibrating))
        }
        gov = Governor(
            roster=roster,
            config=scenario.governor,
            power_model=init.power_model,
            error_model=ErrorModel.initial(
                calibrate_ratios(calibrated.__getitem__, roster, calibration)
            ),
            measure=lambda cfg, frames: at[frames[0] : frames[-1] + 1].measured(cfg).tolist(),
            counts=lambda frame: at.table(frame),
            scorer=background,
            initial_config=scenario.initial_config,
        )
        governed, chunks = [], []
        for start in range(0, frame_count, _CHUNK):
            jobs = []
            for frame in range(start, min(start + _CHUNK, frame_count)):
                tick = gov.tick(frame)
                # A glide builds a new, equal s_eff on every frame.
                if gov.power_model is not model or tick.s_eff != config:
                    model, config = gov.power_model, tick.s_eff
                    coefficients = model.coefficients_for(config)
                governed.append((config, model.saturation, coefficients))
                if frame % every == 0:
                    jobs.append((frame, [worst, config]))
                rows.append(_record_row(tick.record))
            if jobs:
                chunks.append(scorer.submit(jobs))
        powers = _run_powers(at, governed)
        # The hooks hold the trace's arrays only through this name: free them
        # before the caller scores, so that its SSIM temporaries reuse them.
        del at
        truths = [truth for chunk in scorer.results(chunks) for truth in chunk]

    for row, (_, _, measured, predicted) in zip(rows, powers):
        row[_PREDICTED] = predicted
        row[_MEASURED] = measured
    errors, worst_errors = [], []
    for frame, (worst_err, true_err) in zip(range(0, frame_count, every), truths):
        rows[frame][_TRUE_ERROR] = true_err
        errors.append(true_err)
        worst_errors.append(worst_err)

    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "mode": scenario.governor.mode,
        "frames": scenario.trace.frame_count,
        "budget_percent": scenario.governor.budget_percent,
        "budget_watts": budget_watts(scenario.governor, init.power_model.saturation),
        "error_budget": scenario.governor.error_budget,
        "p_min_probed": init.p_min_probed,
        "p_max_probed": init.probe.p_max_observed,
        "probe_frames_used": init.probe_frames_used,
        "governed_mean_power": mean(measured for _, _, measured, _ in powers),
        "governed_mean_error": mean(errors),
        "governed_error_samples": len(errors),
        "selection_count": gov.selection_count,
        "refit_count": gov.refit_count,
        "fit_count": gov.fit_count,
        "infeasible_count": gov.infeasible_count,
        "fit_clamp_total": gov.clamp_total,
        "replay_best_mean_power": mean(best for best, _, _, _ in powers),
        "replay_best_mean_error": 0.0,
        "replay_worst_mean_power": mean(worst for _, worst, _, _ in powers),
        "replay_worst_mean_error": mean(worst_errors),
    }
    return _result(scenario, rows, summary, out_dir, "run_log.csv", "summary.txt")


def replay(
    scenario: Scenario, config: RenderingConfiguration, out_dir: str | Path | None = None
) -> RunResult:
    """Pinned-configuration replay with the same artifact shapes as a run.
    It reads no error model, so it probes without calibrating. A row's
    ``predicted_w`` is the configuration's exact power
    (:func:`replay_trace`)."""
    init = _probe(scenario)
    budget = budget_watts(scenario.governor, init.power_model.saturation)
    stats = replay_trace(scenario, config)
    frames = range(scenario.trace.frame_count)
    truths = dict(zip(frames[:: scenario.error_sample_every], stats["errors"]))
    rows = []
    for frame, exact, measured in zip(frames, stats["exact"], stats["measured"]):
        record = RunLogRecord(
            frame=frame,
            phase="replay",
            s_eff=config,
            budget_watts=budget,
            e_worst=tuple(0.0 for _ in scenario.roster.passes),
            staleness=tuple(-1 for _ in scenario.roster.passes),
        )
        row = _record_row(record)
        row[_PREDICTED] = exact
        row[_MEASURED] = measured
        row[_TRUE_ERROR] = truths.get(frame)
        rows.append(row)
    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "replay_config": str(config),
        "frames": len(frames),
        "budget_watts": budget,
        "p_min_probed": init.p_min_probed,
        "p_max_probed": init.probe.p_max_observed,
        "mean_power": stats["mean_power"],
        "mean_error": stats["mean_error"],
        "error_samples": len(stats["errors"]),
    }
    tag = str(config).replace("-", "")
    return _result(
        scenario, rows, summary, out_dir, f"replay_{tag}_log.csv", f"replay_{tag}_summary.txt"
    )


def oracle_table(scenario: Scenario, frame: int) -> list[tuple[RenderingConfiguration, float, float]]:
    """Exhaustive ground truth for one frame: (config, exact power, true error).

    Queries the simulator directly; nothing is fitted or estimated.
    """
    powers = exact_power_all(scenario.oracle, frame, scenario.trace).tolist()
    configs = enumerate_configurations(scenario.roster)
    return list(zip(configs, powers, lattice_errors(scenario, frame).tolist()))


def write_oracle_table(scenario: Scenario, frame: int, out_dir: str | Path) -> Path:
    rows = oracle_table(scenario, frame)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"oracle_frame{frame}.csv"
    lines = [
        f"# rendergov-oracle v{CSV_SCHEMA_VERSION} scenario={scenario.name} seed={scenario.seed} frame={frame}",
        "config,true_power_w,true_error",
    ]
    for config, power, err in rows:
        lines.append(f"{config},{_fmt(power)},{_fmt(err)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def reveal_oracle(scenario: Scenario) -> dict:
    """Hidden oracle parameters, for oracle-equivalence tests only."""
    oracle = scenario.oracle
    names = [scenario.roster.passes[i].name for i in scenario.roster.model_pass_indices]
    return {
        "p_min": oracle.saturation.p_min,
        "p_max": oracle.saturation.p_max,
        "chi": oracle.unit_costs.chi,
        "psi": oracle.unit_costs.psi,
        "noise_sigma": oracle.noise_sigma,
        "cost_distortion": oracle.cost_distortion,
        "passes": {
            name: {
                "k_b": oracle.k_b[i],
                "saturation": list(oracle.saturation.per_pass[i]),
                "true_ins_v": oracle.true_costs.ins_v[i],
                "true_ins_f": list(oracle.true_costs.ins_f[i]),
                "true_tex_f": list(oracle.true_costs.tex_f[i]),
            }
            for i, name in enumerate(names)
        },
    }


def write_reveal(scenario: Scenario, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "oracle_reveal.json"
    path.write_text(json.dumps(reveal_oracle(scenario), indent=2, sort_keys=True) + "\n")
    return path
