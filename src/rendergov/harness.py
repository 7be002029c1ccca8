"""Simulation harness: initialization, governed runs, pinned replays, and
ground-truth oracle tables, with CSV logs and plain-text summaries.

All outputs are deterministic functions of (scenario, seed): no timestamps, no
environment-dependent content, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configspace import RenderingConfiguration, enumerate_configurations
from .governor import Governor, RunLogRecord, budget_watts
from .powermodel import (
    FrameSample,
    PowerCoefficients,
    PowerModel,
    UnitCosts,
    fit_generic,
    model_masks,
    predict_power,
    solve_unit_costs,
)
from .quality import (
    SSIM_WINDOW,
    ErrorModel,
    calibrate_ratios,
    check_intensities,
    quality_error,  # noqa: F401 -- perfbench/run.py wraps this name as its speed-probe hook
    reference_moments,
    ssim_rows,
)
from .scenario import Scenario
from .simgpu import (
    ProbeResult,
    empty_trace,
    exact_power,
    measure_power,
    probe_min_power,
    probe_saturation,
    render_band,
    render_frame,
)

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
    error_model: ErrorModel
    probe_frames_used: int


def initialize(scenario: Scenario) -> Initialization:
    """Probe idle/saturated power, calibrate error ratios, and seed the model.

    Deterministic for a given scenario, so every command that initializes sees
    identical constants.
    """
    roster = scenario.roster
    oracle = scenario.oracle
    probe_opts = scenario.probe

    idle = empty_trace(roster, max(probe_opts.min_power_frames, 1))
    p_min = probe_min_power(oracle, idle, probe_opts.min_power_frames)
    probe = probe_saturation(oracle, p_min, probe_opts)

    ratios = calibrate_ratios(
        lambda cfg, frame: render_frame(scenario.synthesizer, cfg, frame),
        roster,
        scenario.calibration_frames,
    )
    error_model = ErrorModel.initial(ratios)

    n_model = len(roster.model_pass_indices)
    model = PowerModel(
        roster=roster,
        saturation=probe.saturation,
        coefficients=PowerCoefficients.zeros(n_model),
        unit_costs=UnitCosts(0.0, 0.0),
        cost_table=scenario.cost_table,
        fitted_config=scenario.initial_config,
    )

    if scenario.initial_fit_mode == "generic":
        sweep = _generic_sweep_samples(scenario, probe.saturation.per_pass)
        fit = fit_generic(sweep, probe.saturation, model_masks(roster))
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
        error_model=error_model,
        probe_frames_used=probe.frames_used + probe_opts.min_power_frames,
    )


def _generic_sweep_samples(scenario: Scenario, saturation_per_pass, count: int = 120):
    """Dummy-scene sweep covering the load space between idle and saturation.

    Each sample splits a total load level across the per-pass primitive slots
    with random weights; the level ramps so measured power walks from near P_m
    toward P_M. The ramp tops out below deep saturation, where the log
    transform would amplify measurement noise.
    """
    oracle = scenario.oracle
    roster = scenario.roster
    masks = model_masks(roster)
    cfg = roster.best_config()
    samples = []
    n = len(saturation_per_pass)
    for k in range(count):
        rng = np.random.default_rng([scenario.seed, 424243, k])
        total_load = 1.8 * (k + 1) / count
        weights = rng.uniform(0.1, 1.0, size=(n, 3))
        for i in range(n):
            for j in range(3):
                if not masks[i][j]:
                    weights[i][j] = 0.0
        weights *= total_load / weights.sum()
        prims = tuple(
            (
                weights[i][0] * saturation_per_pass[i][0],
                weights[i][1] * saturation_per_pass[i][1],
                weights[i][2] * saturation_per_pass[i][2],
            )
            for i in range(n)
        )
        power = oracle.exact_power_from_primitives(cfg, prims) + oracle.noise(20_000_000 + k)
        samples.append(FrameSample(max(power, 1e-9), prims))
    return samples


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


def _true_errors(
    scenario: Scenario, frame: int, configs: list[RenderingConfiguration]
) -> list[float]:
    """Exact ``1 - SSIM`` of each configuration at ``frame``.

    Every configuration is scored against one render of the all-best
    reference, which itself scores exactly 0.0 without rendering. When more
    than one distinct configuration needs an SSIM, the reference's moments are
    computed once and shared.

    Work is shared across candidates per band instead of per frame. A pass
    degrades only its own band, and an SSIM map row depends only on the image
    rows its window covers, so a map row is a function of the levels of the
    passes whose bands that window touches. The map splits into segments,
    runs of rows whose windows touch the same passes; each (pass, level) band
    is rendered once, and each (segment, levels) run of map rows is computed
    once and copied into every later candidate that shares it. Rows whose
    passes are all at level 0 stay 1.0, as :func:`quality.ssim` leaves them,
    and each map is averaged in full, so every score is bitwise the one
    :func:`quality_error` gives for the whole frame.
    """
    best = scenario.roster.best_config()
    degraded = dict.fromkeys(c for c in configs if c != best)
    if not degraded:
        return [0.0] * len(configs)
    synth = scenario.synthesizer
    reference = render_frame(synth, best, frame)
    moments = reference_moments(reference) if len(degraded) > 1 else None
    x = reference.pixels
    span = SSIM_WINDOW - 1
    n_rows = x.shape[0] - span
    starts = [synth.band(i)[0] for i in range(synth.roster.size)]
    # Map row r's window covers image rows r .. r + span, which belong to
    # passes band_of[r] .. band_of[r + span]; a segment starts wherever
    # either end changes.
    band_of = np.searchsorted(starts, np.arange(x.shape[0]), side="right") - 1
    first, last = band_of[:n_rows], band_of[span:]
    cuts = np.flatnonzero((first[1:] != first[:-1]) | (last[1:] != last[:-1])) + 1
    bounds = [0, *cuts.tolist(), n_rows]
    segments = [
        (bounds[s], bounds[s + 1], int(first[bounds[s]]), int(last[bounds[s]]) + 1)
        for s in range(len(bounds) - 1)
    ]

    bands: dict[tuple[int, int], np.ndarray] = {}
    memo: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def band(i: int, level: int) -> np.ndarray:
        if (i, level) not in bands:
            rows = render_band(synth, i, level, frame)
            check_intensities(rows)
            bands[i, level] = rows
        return bands[i, level]

    def fill(ssim_map, config, run) -> None:
        # One filter over a run of adjacent uncached segments, split into the memo.
        lo, hi = segments[run[0]][0], segments[run[-1]][1]
        p0, p1 = segments[run[0]][2], segments[run[-1]][3]
        ys = np.concatenate([band(i, config[i]) for i in range(p0, p1)])
        ys = ys[lo - starts[p0] : hi + span - starts[p0]]
        rows = ssim_rows(
            x[lo : hi + span], ys, None if moments is None else moments.rows(lo, hi)
        )
        ssim_map[lo:hi] = rows
        for s in run:
            a, b, q0, q1 = segments[s]
            memo[s, config.levels[q0:q1]] = rows[a - lo : b - lo]

    for config in degraded:
        ssim_map = np.ones((n_rows, x.shape[1] - span))
        run: list[int] = []
        for s, (a, b, q0, q1) in enumerate(segments):
            levels = config.levels[q0:q1]
            cached = memo.get((s, levels))
            if cached is None and any(levels):
                run.append(s)
                continue
            if run:
                fill(ssim_map, config, run)
                run = []
            if cached is not None:
                ssim_map[a:b] = cached
        if run:
            fill(ssim_map, config, run)
        degraded[config] = max(0.0, 1.0 - float(ssim_map.mean()))
    return [degraded.get(c, 0.0) for c in configs]


# Frames per scoring task in :func:`run`. After the loop the caller scores the
# chunks no worker has taken yet, so the last one it waits for is at most a
# chunk long: 64 frames made short runs slower than 16, and 8 gained less.
_CHUNK = 16

# The scenario a forked scoring worker serves. Its initializer sets it, so a
# task carries only its frames and jobs.
_worker_scenario: Scenario | None = None


# One governed frame handed to the scorer: the frame, its s_eff and the power
# model the governor held after its tick.
_Governed = tuple[int, RenderingConfiguration, PowerModel]
# Per governed frame: the best and worst configurations' measured power, and
# s_eff's measured and predicted power.
_FramePowers = tuple[float, float, float, float]


def _score_chunk(
    scenario: Scenario,
    frames: list[_Governed],
    jobs: list[tuple[int, list[RenderingConfiguration]]],
) -> tuple[list[_FramePowers], list[list[float]]]:
    """The :data:`_FramePowers` of each governed frame, and
    :func:`_true_errors` of each ``(frame, configurations)`` job.

    Coefficients are computed once per distinct (model, configuration) in
    the chunk; a frame's noise draw, curve values and s_eff's counts are
    memoized on the oracle and the trace, so the prediction reuses the
    counts its measurement queried.
    """
    roster, oracle, trace = scenario.roster, scenario.oracle, scenario.trace
    best, worst = roster.best_config(), roster.worst_config()
    masks = model_masks(roster)
    coefficients: dict[tuple[int, RenderingConfiguration], PowerCoefficients] = {}
    powers = []
    for f, config, model in frames:
        key = id(model), config
        if key not in coefficients:
            coefficients[key] = model.coefficients_for(config)
        powers.append(
            (
                measure_power(oracle, best, f, trace),
                measure_power(oracle, worst, f, trace),
                measure_power(oracle, config, f, trace),
                predict_power(
                    model.saturation,
                    coefficients[key],
                    trace.primitives_for(roster, config, f),
                    masks,
                ),
            )
        )
    return powers, [_true_errors(scenario, frame, configs) for frame, configs in jobs]


def _start_worker(scenario: Scenario, cpus) -> None:
    global _worker_scenario
    _worker_scenario = scenario
    os.sched_setaffinity(0, {cpus.get()})


def _score_in_worker(frames, jobs) -> tuple[list[_FramePowers], list[list[float]]]:
    return _score_chunk(_worker_scenario, frames, jobs)


class _Scorer:
    """Scores chunks with :func:`_score_chunk` beside the caller; a context
    manager.

    With n = min(CPUs this process may run on, ``tasks``) > 1 (``workers``,
    for tests, replaces the CPU count), n - 1 workers are forked from one
    process pool when the first chunk is submitted, and score chunks while
    the caller goes on. Each worker and the caller is pinned to its own CPU,
    because the scheduler can leave a forked child on its parent's CPU; the
    caller gets its CPU set back on exit. :meth:`results` has the caller
    score, from the last chunk back, every chunk no worker has taken yet.

    Each chunk is scored as it is submitted, with no process, when n <= 1,
    when CPU affinity or ``fork`` is not available, when the caller is
    daemonic (it may not have children) or when another thread is running (a
    forked child would inherit any lock that thread holds). Either way the
    scores are the same floats.
    """

    def __init__(self, scenario: Scenario, tasks: int, workers: int | None = None):
        self.scenario = scenario
        self.pool: ProcessPoolExecutor | None = None
        self.workers = 1  # processes scoring, the caller included
        # Scored results without a pool; (frames, jobs, future) with one.
        self.chunks: list = []
        self._exit = contextlib.ExitStack()
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
            self.pool = ProcessPoolExecutor(
                n - 1,
                mp_context=context,
                initializer=_start_worker,
                initargs=(scenario, worker_cpus),
            )
            stack.callback(self.pool.shutdown, cancel_futures=True)
            os.sched_setaffinity(0, {cpus[(n - 1) % len(cpus)]})
            self.workers = n
            self._exit = stack.pop_all()

    def __enter__(self) -> _Scorer:
        return self

    def __exit__(self, *exc) -> None:
        self._exit.close()

    def submit(
        self, frames: list[_Governed], jobs: list[tuple[int, list[RenderingConfiguration]]]
    ) -> None:
        if self.pool is None:
            self.chunks.append(_score_chunk(self.scenario, frames, jobs))
        else:
            self.chunks.append((frames, jobs, self.pool.submit(_score_in_worker, frames, jobs)))

    def results(self) -> list[tuple[list[_FramePowers], list[list[float]]]]:
        """Every chunk's :func:`_score_chunk` result, in submission order."""
        if self.pool is None:
            return self.chunks
        scored = [None] * len(self.chunks)
        # Workers take chunks in order, so the first one that cannot be
        # cancelled ends the caller's share.
        for i in reversed(range(len(self.chunks))):
            frames, jobs, future = self.chunks[i]
            if not future.cancel():
                break
            scored[i] = _score_chunk(self.scenario, frames, jobs)
        return [
            future.result() if done is None else done
            for (_, _, future), done in zip(self.chunks, scored)
        ]


def _frame_truths(
    scenario: Scenario,
    jobs: list[tuple[int, list[RenderingConfiguration]]],
    workers: int | None = None,
) -> list[list[float]]:
    """:func:`_true_errors` of each ``(frame, configurations)`` job, in job
    order: the batch form of the scoring :func:`run` does beside its loop.

    The jobs are split into chunks of at most :data:`_CHUNK` jobs, at least
    one chunk per worker, with at most one worker per job; ``workers`` is
    passed to :class:`_Scorer`. Jobs that hold only the all-best configuration score
    0.0 without rendering, so then no process is started.
    """
    best = scenario.roster.best_config()
    renders = any(config != best for _, configs in jobs for config in configs)
    with _Scorer(scenario, len(jobs) if renders else 0, workers) as scorer:
        size = max(1, min(_CHUNK, -(-len(jobs) // scorer.workers)))
        for i in range(0, len(jobs), size):
            scorer.submit([], jobs[i : i + size])
        return [truth for _, truths in scorer.results() for truth in truths]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def replay_trace(scenario: Scenario, config: RenderingConfiguration, on_frame=None) -> dict:
    """Run the trace with one pinned configuration; no governor involved.

    ``on_frame(frame, measured_power, true_error)``, if given, sees every
    frame; ``true_error`` is None on frames whose error is not sampled. The
    configuration is pinned, so every sampled frame is scored up front.
    """
    scenario.roster.validate_config(config)
    sampled = range(0, scenario.trace.frame_count, scenario.error_sample_every)
    errors = [err for (err,) in _frame_truths(scenario, [(f, [config]) for f in sampled])]
    truths = dict(zip(sampled, errors))
    powers = []
    for frame in range(scenario.trace.frame_count):
        measured = measure_power(scenario.oracle, config, frame, scenario.trace)
        powers.append(measured)
        if on_frame is not None:
            on_frame(frame, measured, truths.get(frame))
    return {
        "mean_power": _mean(powers),
        "mean_error": _mean(errors),
        "frames": scenario.trace.frame_count,
        "error_samples": len(errors),
    }


def run(scenario: Scenario, out_dir: str | Path | None = None) -> RunResult:
    """Initialization plus the governed frame loop, with min/max-quality
    replays as in-run baselines.

    The baselines ride along with the governed loop: every frame also
    measures the best and worst configurations, and every sampled frame
    scores the worst one against the same reference as ``s_eff``. The best
    configuration's error is exactly 0.0, so its baseline is power only.

    No decision reads a baseline, a true error, or the power of a frame
    outside the governor's accuracy-check and fitting windows, so the loop
    itself only ticks the governor and builds each frame's row. It hands
    every :data:`_CHUNK` frames, each with its ``s_eff`` and the governor's
    power model after the tick, and each sampled frame's ``(frame, [worst,
    s_eff])``, to a :class:`_Scorer`, which measures and predicts every
    frame's power and scores the sampled frames beside the loop in forked
    workers, or serially where it cannot fork. The rows' ``predicted_w``,
    ``measured_w`` and ``true_error`` cells are filled in after the loop.
    """
    init = initialize(scenario)
    gov = Governor(
        roster=scenario.roster,
        config=scenario.governor,
        power_model=init.power_model,
        error_model=init.error_model,
        measure=lambda cfg, frame: measure_power(scenario.oracle, cfg, frame, scenario.trace),
        primitives=lambda cfg, frame: scenario.trace.primitives_for(
            scenario.roster, cfg, frame
        ),
        render=lambda cfg, frame: render_frame(scenario.synthesizer, cfg, frame),
        initial_config=scenario.initial_config,
    )
    worst = scenario.roster.worst_config()
    frame_count = scenario.trace.frame_count
    every = scenario.error_sample_every

    rows = []
    with _Scorer(scenario, -(-frame_count // _CHUNK)) as scorer:
        for start in range(0, frame_count, _CHUNK):
            frames, jobs = [], []
            for frame in range(start, min(start + _CHUNK, frame_count)):
                tick = gov.tick(frame)
                frames.append((frame, tick.s_eff, gov.power_model))
                if frame % every == 0:
                    jobs.append((frame, [worst, tick.s_eff]))
                rows.append(_record_row(tick.record))
            scorer.submit(frames, jobs)
        scored = scorer.results()
    powers = [frame_powers for chunk_powers, _ in scored for frame_powers in chunk_powers]
    truths = [truth for _, chunk_truths in scored for truth in chunk_truths]

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
        "governed_mean_power": _mean(measured for _, _, measured, _ in powers),
        "governed_mean_error": _mean(errors),
        "governed_error_samples": len(errors),
        "selection_count": gov.selection_count,
        "refit_count": gov.refit_count,
        "fit_count": gov.fit_count,
        "infeasible_count": gov.infeasible_count,
        "fit_clamp_total": gov.clamp_total,
        "replay_best_mean_power": _mean(best for best, _, _, _ in powers),
        "replay_best_mean_error": 0.0,
        "replay_worst_mean_power": _mean(worst for _, worst, _, _ in powers),
        "replay_worst_mean_error": _mean(worst_errors),
    }

    log_path = summary_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log_path = out / "run_log.csv"
        summary_path = out / "summary.txt"
        _write_csv(log_path, scenario, rows)
        _write_summary(summary_path, summary)
    return RunResult(summary, log_path, summary_path)


def replay(
    scenario: Scenario, config: RenderingConfiguration, out_dir: str | Path | None = None
) -> RunResult:
    """Pinned-configuration replay with the same artifact shapes as a run."""
    init = initialize(scenario)
    budget = budget_watts(scenario.governor, init.power_model.saturation)
    rows = []

    def log_frame(frame: int, measured: float, true_err: float | None) -> None:
        record = RunLogRecord(
            frame=frame,
            phase="replay",
            s_eff=config,
            budget_watts=budget,
            e_worst=tuple(0.0 for _ in scenario.roster.passes),
            staleness=tuple(-1 for _ in scenario.roster.passes),
        )
        row = _record_row(record)
        row[_PREDICTED] = exact_power(scenario.oracle, config, frame, scenario.trace)
        row[_MEASURED] = measured
        row[_TRUE_ERROR] = true_err
        rows.append(row)

    stats = replay_trace(scenario, config, log_frame)
    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "replay_config": str(config),
        "frames": stats["frames"],
        "budget_watts": budget,
        "p_min_probed": init.p_min_probed,
        "p_max_probed": init.probe.p_max_observed,
        "mean_power": stats["mean_power"],
        "mean_error": stats["mean_error"],
        "error_samples": stats["error_samples"],
    }
    log_path = summary_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tag = str(config).replace("-", "")
        log_path = out / f"replay_{tag}_log.csv"
        summary_path = out / f"replay_{tag}_summary.txt"
        _write_csv(log_path, scenario, rows)
        _write_summary(summary_path, summary)
    return RunResult(summary, log_path, summary_path)


def oracle_table(scenario: Scenario, frame: int) -> list[tuple[RenderingConfiguration, float, float]]:
    """Exhaustive ground truth for one frame: (config, exact power, true error).

    Queries the simulator directly; nothing is fitted or estimated.
    """
    if not 0 <= frame < scenario.trace.frame_count:
        raise ValueError(f"frame {frame} outside the trace [0, {scenario.trace.frame_count})")
    configs = enumerate_configurations(scenario.roster)
    errors = _true_errors(scenario, frame, configs)
    return [
        (config, exact_power(scenario.oracle, config, frame, scenario.trace), err)
        for config, err in zip(configs, errors)
    ]


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
