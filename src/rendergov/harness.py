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
import mmap
import multiprocessing
import os
import pickle
import selectors
import threading
import traceback
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
        coefficients=np.zeros((n_model, 3)),
        unit_costs=UnitCosts(0.0, 0.0),
        cost_table=scenario.cost_table,
        fitted_config=scenario.initial_config,
    )

    if not scenario.governor.initial_fit:
        sweep = _generic_sweep_samples(scenario, probe.saturation.per_pass)
        fit = fit_coefficients(probe.saturation, *sweep)
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
        )

    return Initialization(
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
    taken in one call. Returns the ``(samples,)`` meter readings and the
    ``(samples, passes, 3)`` counts.
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
    watts = [max(power + oracle.noise(20_000_000 + k), 1e-9) for k, power in enumerate(exact)]
    return np.array(watts), counts


@dataclass(frozen=True)
class RunResult:
    summary: dict
    log_path: Path | None
    summary_path: Path | None


def _write_csv(path: Path, scenario: Scenario, lines: list[str]) -> None:
    comment = f"# rendergov-log v{CSV_SCHEMA_VERSION} scenario={scenario.name} seed={scenario.seed}"
    path.write_text("\n".join([comment, ",".join(log_columns(scenario)), *lines]) + "\n")


def _flag(value) -> str:
    """:func:`_fmt` of an event flag: 1 or 0 for a bool, and ``str`` of any
    other value, such as a fit's numpy ``degenerate`` flag."""
    return "1" if value is True else "0" if value is False else str(value)


def _optional(value: float | None) -> str:
    """:func:`_fmt` of a float cell that may be None."""
    return "" if value is None else repr(value)


def _log_lines(records: list[RunLogRecord], powers) -> tuple[list[str], list[int]]:
    """Each record's log line with an empty ``true_error`` cell, given each
    record's ``(predicted_w, measured_w)`` in ``powers``, and where in each
    line that cell starts (:func:`_fill_true_errors`).

    The cells are the ones :func:`_fmt` writes, each column's by its own
    expression. A run of records that share one ``e_worst`` tuple, or one
    ``s_eff``, formats it once: by identity, as ``0.0`` and ``-0.0`` are
    equal keys with different texts.
    """
    lines, cuts = [], []
    e_worst = s_eff = None
    for r, (predicted, measured) in zip(records, powers):
        if r.e_worst is not e_worst:
            e_worst, worst_text = r.e_worst, ",".join(map(repr, r.e_worst))
        if r.s_eff is not s_eff:
            s_eff, config_text = r.s_eff, str(r.s_eff)
        head = (
            f"{r.frame},{r.phase},{config_text},{r.budget_watts!r},{predicted!r},{measured!r},"
            f"{_flag(r.selection)},{_flag(r.refit)},{_flag(r.reuse)},{_flag(r.infeasible)},"
            f"{_flag(r.degenerate)},{r.fit_clamped},{_optional(r.fit_residual)},"
            f"{_optional(r.cost_residual)},{r.bg_request},{r.err_update_pass},"
            f"{_optional(r.err_update_value)},"
        )
        lines.append(f"{head},{worst_text},{','.join(map(str, r.staleness))}")
        cuts.append(len(head))
    return lines, cuts


def _fill_true_errors(lines: list[str], cuts: list[int], every: int, errors: list[float]) -> None:
    """Write the ``true_error`` cell of every ``every``-th of :func:`_log_lines`'
    ``lines``, from the first, from ``errors`` in order."""
    for k, err in zip(range(0, len(lines), every), errors):
        lines[k] = f"{lines[k][: cuts[k]]}{err!r}{lines[k][cuts[k] :]}"


def _write_summary(path: Path, summary: dict) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in summary.items()]
    path.write_text("\n".join(lines) + "\n")


def _result(scenario: Scenario, lines, summary, out_dir, log_name, summary_name) -> RunResult:
    """``summary``, with the log and summary written under ``out_dir`` if given."""
    if out_dir is None:
        return RunResult(summary, None, None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path, summary_path = out / log_name, out / summary_name
    _write_csv(log_path, scenario, lines)
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

# A scoring task's jobs: score each configuration against the frame.
_Jobs = list[tuple[int, list[RenderingConfiguration]]]
# One governed frame of a run: its s_eff, and the saturation constants and
# s_eff's coefficients of the power model the governor held after its tick.
_Governed = tuple[RenderingConfiguration, SaturationConstants, np.ndarray]
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
    each frame's :data:`_Governed` tuple and the run's :class:`simgpu.FramePowers`:
    the best and worst configurations in one array pass, then each run of
    frames whose three objects are the same, as :func:`run` keeps them,
    measured and predicted (:func:`powermodel.predict_powers`) in one pass
    over its own rows, the prediction reusing the measurement's counts."""
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


def _meter(at: FramePowers, config: RenderingConfiguration, frames: range):
    """The governor's ``measure`` hook over ``at``, which starts at frame 0:
    ``config``'s meter readings and per-pass counts at ``frames``, a run of
    consecutive frames, from one part of ``at``, whose measurement computes
    the counts."""
    part = at[frames[0] : frames[-1] + 1]
    return part.measured(config), part.primitives(config)


def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks of up to 4 MB in the heap instead of
    handing SSIM temporaries back to the OS after each scoring call (about
    170 minor page faults per demo call). glibc does so by itself only once a
    process frees a larger block, as calibration does, and neither a forked
    run's caller nor a replay calibrates. Nothing happens without ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _start_worker(cpu: int) -> None:
    """A forked scoring worker's first step: pin it to its own CPU."""
    os.sched_setaffinity(0, {cpu})


def _take(tasks: int, lock) -> bytes:
    """The next task's pickle from the task pipe, which holds each task's
    4-byte length and then its bytes; empty once the pipe has ended.
    ``lock`` keeps one task's bytes to one worker."""
    with lock:
        data, size = b"", 4
        while len(data) < size and (part := os.read(tasks, size - len(data))):
            data += part
            size += int.from_bytes(data, "big") if len(data) == 4 else 0
        return data[4:]


def _serve(scenario, claims, claim_lock, take_lock, tasks: int, results, cpu: int, unused):
    """A forked scoring worker: until the task pipe ends, it takes each task,
    scores it if it sets its claim flag first, and sends ``(index, scores,
    None)`` on ``results``; an error ends it, sent as ``(None, error,
    traceback text)``. ``unused`` are the caller's pipe ends."""
    for end in unused:
        end.close()
    try:
        _start_worker(cpu)
        while task := _take(tasks, take_lock):
            i, jobs = pickle.loads(task)
            with claim_lock:
                mine = not claims[i]
                claims[i] = 1
            if mine:
                results.send((i, _score_jobs(scenario, jobs), None))
    except Exception as error:
        results.send((None, error, traceback.format_exc()))


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
    replaces the CPU count), n - 1 workers (:func:`_serve`) are forked when
    it is made, after the caller's objects are frozen (``gc.freeze``), so
    that no collection walks them and a worker does not copy their pages.
    Each worker and the caller is pinned to its own CPU, because the
    scheduler can leave a forked child on its parent's CPU. Exit gives the
    caller its CPU set and objects back.

    No thread runs in the caller, and no write on either side waits on a
    read that the other side makes only later. The workers read the tasks,
    in submission order, from one pipe that :meth:`submit` fills as far as
    it takes them at once, and send their results on pipes of their own,
    which the caller reads whenever it waits (:meth:`_pump`). A normal exit
    waits for the workers; an error kills them.

    One claim rule decides who scores a task. Each task has a claim flag that
    the workers share: a worker claims a task before it scores it and skips
    one the caller has claimed, and the caller, when it needs a task's result
    (:meth:`result`), claims and scores the task if no worker has started
    it, and otherwise waits for the worker's result. A worker's error is
    raised in the caller, with its traceback as the cause; a worker's death
    fails the run.

    No process is started when n <= 1, when CPU affinity or ``fork`` is not
    available, when the caller is daemonic (it may not have children) or when
    another thread is running (a forked child would inherit any lock that
    thread holds). Then no worker claims a task, so the same rule has the
    caller score each one when it needs it. Either way the scores are the
    same floats.
    """

    def __init__(self, scenario: Scenario, tasks: int, workers: int | None = None):
        self.scenario = scenario
        # Each task's jobs, and the scores the workers sent, by task index.
        self.tasks, self.scored = [], {}
        self.claims, self.lock = bytearray(tasks), threading.Lock()
        # The workers, those not seen to end, and their result pipes' open ends.
        self.workers, self._running, self._results = [], [], []
        self._tasks, self._backlog, self._last = None, bytearray(), False
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
            self.claims, self.lock = mmap.mmap(-1, tasks), context.Lock()
            reader, self._tasks = context.Pipe(duplex=False)
            for end in (self.claims, reader, self._tasks):
                stack.callback(end.close)
            os.set_blocking(self._tasks.fileno(), False)
            gc.freeze()
            stack.callback(gc.unfreeze)
            locks = self.lock, context.Lock()
            for k in range(n - 1):
                mine, theirs = context.Pipe(duplex=False)
                stack.callback(mine.close)
                self._results.append(mine)
                args = (scenario, self.claims, *locks, reader.fileno(), theirs,
                        cpus[k % len(cpus)], (self._tasks, *self._results))
                worker = context.Process(target=_serve, args=args, daemon=True)
                worker.start()
                for step in (worker.close, worker.join, worker.kill):
                    stack.callback(step)
                theirs.close()
                self.workers.append(worker)
            self._running = list(self.workers)
            os.sched_setaffinity(0, {cpus[(n - 1) % len(cpus)]})
            self._exit = stack.pop_all()

    def __enter__(self) -> _Scorer:
        return self

    def __exit__(self, exc_type, *_) -> None:
        with self._exit:
            if exc_type is None:
                self.no_more_tasks()
                while self._running or self._results:
                    self._pump()

    def submit(self, jobs: _Jobs) -> int:
        """Hand a task to the workers; its index, for :meth:`result`. Raises
        after :meth:`no_more_tasks`."""
        if self._last:
            raise RuntimeError("no task may follow no_more_tasks")
        i = len(self.tasks)
        self.tasks.append(jobs)
        if self.workers:
            task = pickle.dumps((i, jobs))
            self._backlog += len(task).to_bytes(4, "big") + task
            self._send()
        return i

    def no_more_tasks(self) -> None:
        """Tell the workers that no task follows the last :meth:`submit`:
        each exits once the tasks are taken, and a task the caller has
        claimed still reaches a worker, which skips it."""
        self._last = True
        self._send()

    def _send(self) -> None:
        """Write what the task pipe takes of the backlog without waiting, and
        end the pipe once it holds the last task."""
        with contextlib.suppress(BlockingIOError):
            while self._backlog:
                del self._backlog[: os.write(self._tasks.fileno(), self._backlog)]
        if self._tasks and self._last and not self._backlog:
            self._tasks.close()

    def _pump(self, timeout: float | None = None) -> None:
        """Write what the task pipe takes of the backlog, wait up to ``timeout``
        seconds (None: no limit) for a result, a worker's end or room in the
        task pipe, and take in what is ready; raises a worker's error or death."""
        self._send()
        if timeout is None and not self._results and not self._running:
            raise ChildProcessError("no scoring worker is left to send a result")
        with selectors.PollSelector() as selector:
            # Results first, so that a worker's last ones are read before its end.
            for end in self._results:
                selector.register(end, selectors.EVENT_READ)
            for worker in self._running:
                selector.register(worker.sentinel, selectors.EVENT_READ, worker)
            if self._backlog:
                selector.register(self._tasks, selectors.EVENT_WRITE)
            for key, _ in selector.select(timeout):
                end, worker = key.fileobj, key.data
                if end in self._results:
                    try:
                        i, scores, trace = end.recv()
                    except (EOFError, OSError):  # the worker has ended
                        self._results.remove(end)
                        continue
                    if trace is not None:
                        raise scores from ChildProcessError(trace)
                    self.scored[i] = scores
                elif worker is not None:
                    worker.join()
                    self._running.remove(worker)
                    if worker.exitcode:
                        raise ChildProcessError(f"scoring worker exit code {worker.exitcode}")

    def _claim(self, i: int) -> bool:
        """Set task ``i``'s claim flag; False if a worker set it first. A
        worker that died may hold the lock, so a long wait looks for one."""
        while not self.lock.acquire(timeout=0.1):
            self._pump(0)
        mine = not self.claims[i]
        self.claims[i] = 1
        self.lock.release()
        return mine

    def result(self, i: int) -> list[list[float]]:
        """Task ``i``'s :func:`_score_jobs` result, scored here if no worker
        has started it. Ask once per task."""
        if self._claim(i):
            return _score_jobs(self.scenario, self.tasks[i])
        while i not in self.scored:
            self._pump()
        return self.scored[i]

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
    frames are scored as :func:`run` scores them, while the caller takes the
    powers in one array pass. The all-best configuration scores 0.0 without
    rendering, so its replay starts no process.
    """
    scenario.roster.validate_config(config)
    chunks = _sampled_chunks(scenario)
    workers = 1 if config == scenario.roster.best_config() else None
    with _Scorer(scenario, len(chunks), workers) as scorer:
        tasks = [scorer.submit([(frame, [config]) for frame in chunk]) for chunk in chunks]
        scorer.no_more_tasks()
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

    The :class:`_Scorer`'s first tasks are one per calibration frame, which
    its workers score while the caller probes and fits (:func:`_probe`), so
    that the governor starts from :func:`initialize`'s models; next, one per
    planned reference of the background cycle
    (:func:`governor.background_plan`), whose scores the governor's
    ``scorer`` hook takes at the ``ref`` slot.

    One :class:`simgpu.FramePowers` of the whole trace, which draws every
    frame's meter noise before the loop, serves the governor's ``measure``
    and ``counts`` hooks (:func:`_meter`). No decision reads a baseline, a
    true error, or the power of a frame outside the governor's windows, so
    the loop only ticks the governor and keeps each frame's record and
    :data:`_Governed` tuple. At the end of each :data:`_CHUNK` frames that
    hold a sampled frame, it hands the scorer each sampled frame's
    ``(frame, [worst, s_eff])``; the best configuration's error is exactly
    0.0. While the workers score, the caller takes every frame's powers in
    array passes (:func:`_run_powers`) and formats every log line but its
    ``true_error`` cell (:func:`_log_lines`), then scores the chunks no
    worker has started and splices the true errors in.
    """
    roster = scenario.roster
    worst = roster.worst_config()
    frame_count = scenario.trace.frame_count
    every = scenario.error_sample_every
    calibration = scenario.calibration_frames
    degradations = list(single_degradations(roster).values())
    plan = background_plan(roster, scenario.governor, frame_count)

    records = []
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
        at.noises()
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
            measure=lambda cfg, frames: _meter(at, cfg, frames),
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
                records.append(tick.record)
            if jobs:
                chunks.append(scorer.submit(jobs))
        scorer.no_more_tasks()
        powers = _run_powers(at, governed)
        # The hooks hold the trace's arrays only through this name, and the
        # records are done with once formatted: free them before the caller
        # scores, so that its SSIM temporaries reuse their memory.
        del at
        lines, cuts = _log_lines(records, ((p, m) for _, _, m, p in powers))
        del records
        truths = [truth for chunk in scorer.results(chunks) for truth in chunk]

    worst_errors = [worst_err for worst_err, _ in truths]
    errors = [true_err for _, true_err in truths]

    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "mode": scenario.governor.mode,
        "frames": scenario.trace.frame_count,
        "budget_percent": scenario.governor.budget_percent,
        "budget_watts": budget_watts(scenario.governor, init.power_model.saturation),
        "error_budget": scenario.governor.error_budget,
        "p_min_probed": init.probe.saturation.p_min,
        "p_max_probed": init.probe.saturation.p_max,
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
    _fill_true_errors(lines, cuts, every, errors)
    return _result(scenario, lines, summary, out_dir, "run_log.csv", "summary.txt")


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
    e_worst = tuple(0.0 for _ in scenario.roster.passes)
    staleness = tuple(-1 for _ in scenario.roster.passes)
    records = [
        RunLogRecord(frame, "replay", config, budget, e_worst=e_worst, staleness=staleness)
        for frame in frames
    ]
    lines, cuts = _log_lines(records, zip(stats["exact"], stats["measured"]))
    _fill_true_errors(lines, cuts, scenario.error_sample_every, stats["errors"])
    summary = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "replay_config": str(config),
        "frames": len(frames),
        "budget_watts": budget,
        "p_min_probed": init.probe.saturation.p_min,
        "p_max_probed": init.probe.saturation.p_max,
        "mean_power": stats["mean_power"],
        "mean_error": stats["mean_error"],
        "error_samples": len(stats["errors"]),
    }
    tag = str(config).replace("-", "")
    return _result(
        scenario, lines, summary, out_dir, f"replay_{tag}_log.csv", f"replay_{tag}_summary.txt"
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
