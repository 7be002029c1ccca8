import dataclasses
import gc
import itertools
import math
import multiprocessing
import os
import pickle
import random
import re
import signal
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from rendergov import cli, harness, powermodel, simgpu
from rendergov.configspace import (
    RenderingConfiguration,
    enumerate_configurations,
    single_degradation_config,
)
from rendergov.governor import Governor, RunLogRecord, background_plan, pass_slot_config
from rendergov.harness import (
    _true_errors,
    initialize,
    log_columns,
    oracle_table,
    replay,
    replay_trace,
    reveal_oracle,
    run,
    write_oracle_table,
)
from rendergov.powermodel import config_counts, predict_power
from rendergov.quality import calibrate_ratios, map_mean, quality_error, row_sums
from rendergov.simgpu import FramePowers, exact_power, measure_power, render_frame
from rendergov.truth import FrameScorer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def mini_run(mini_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_run")
    return run(mini_scenario, out), out


def test_run_produces_log_and_summary(mini_run):
    result, out = mini_run
    assert result.log_path.exists()
    assert result.summary_path.exists()
    lines = result.log_path.read_text().splitlines()
    assert lines[0].startswith("# rendergov-log v1")
    assert len(lines) == 2 + 240  # schema comment + header + one row per frame


def test_csv_columns_are_fixed_and_documented(mini_scenario, mini_run):
    result, _ = mini_run
    header = result.log_path.read_text().splitlines()[1].split(",")
    assert header == log_columns(mini_scenario)
    assert header[:6] == ["frame", "phase", "s_eff", "budget_watts", "predicted_w", "measured_w"]
    assert "e_worst_shading" in header and "stale_postfx" in header


def test_log_lines_equal_cell_by_cell_format():
    """The log's line builder writes what ``_fmt`` writes cell by cell, for
    the values the columns hold: None, "", bools (a fit's numpy
    ``degenerate`` too), -1, NaN (a failed unit-cost solve's residual), inf,
    small and large floats, and ``e_worst`` tuples that compare equal but
    differ in the sign of a zero."""
    base = RunLogRecord(
        frame=0,
        phase="steady",
        s_eff=RenderingConfiguration((1, 0, 2)),
        budget_watts=33.99999995306784,
        e_worst=(0.0, 0.25, 1e-05),
        staleness=(-1, 0, 16),
    )
    nan, inf = float("nan"), float("inf")
    records = [
        base,
        dataclasses.replace(
            base,
            phase="selecting",
            selection=True,
            infeasible=True,
            bg_request="ref",
            e_worst=(-0.0, 0.25, 1e-05),
        ),
        dataclasses.replace(
            base,
            refit=True,
            reuse=True,
            degenerate=np.False_,
            fit_clamped=3,
            fit_residual=1e16,
            cost_residual=nan,
            err_update_pass=2,
            err_update_value=1e-05,
            e_worst=(0.0, 0.25, 1e-05),
        ),
        dataclasses.replace(
            base,
            reuse=True,
            degenerate=True,
            fit_residual=-0.0,
            cost_residual=inf,
            bg_request="pass:1",
            err_update_value=-inf,
            staleness=(12, 0, -1),
        ),
        dataclasses.replace(base, s_eff=RenderingConfiguration((0, 0, 0)), budget_watts=1e16),
    ]
    records = [dataclasses.replace(r, frame=k) for k, r in enumerate(records)]
    powers = [(28.1, 28.2), (1e16, inf), (1e-05, 0.1 + 0.2), (-0.0, 1e-09), (nan, 5.0)]
    errors = [0.0, 1e-05, 0.123456789]  # frames 0, 2 and 4
    rows = [
        [
            r.frame,
            r.phase,
            str(r.s_eff),
            r.budget_watts,
            predicted,
            measured,
            r.selection,
            r.refit,
            r.reuse,
            r.infeasible,
            r.degenerate,
            r.fit_clamped,
            r.fit_residual,
            r.cost_residual,
            r.bg_request,
            r.err_update_pass,
            r.err_update_value,
            errors[r.frame // 2] if r.frame % 2 == 0 else None,
            *r.e_worst,
            *r.staleness,
        ]
        for r, (predicted, measured) in zip(records, powers)
    ]
    assert len(rows[0]) == len(harness._BASE_COLUMNS) + 2 * 3
    lines, cuts = harness._log_lines(records, powers)
    harness._fill_true_errors(lines, cuts, 2, errors)
    assert lines == [",".join(harness._fmt(v) for v in row) for row in rows]
    assert lines[1].endswith(",-0.0,0.25,1e-05,-1,0,16")
    assert lines[2].split(",")[10] == "False"


def test_summary_recomputable_from_csv(mini_run):
    result, _ = mini_run
    lines = result.log_path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    mean_power = sum(float(r["measured_w"]) for r in rows) / len(rows)
    errors = [float(r["true_error"]) for r in rows if r["true_error"] != ""]
    mean_error = sum(errors) / len(errors)
    refits = sum(r["refit"] == "1" for r in rows)
    selections = sum(r["selection"] == "1" for r in rows)
    s = result.summary
    assert mean_power == pytest.approx(s["governed_mean_power"], rel=1e-12)
    assert mean_error == pytest.approx(s["governed_mean_error"], rel=1e-12)
    assert refits == s["refit_count"]
    assert selections == s["selection_count"]


def test_governed_means_sit_between_replay_baselines(mini_run):
    result, _ = mini_run
    s = result.summary
    assert s["replay_worst_mean_power"] <= s["governed_mean_power"] <= s["replay_best_mean_power"]
    assert s["replay_best_mean_error"] == 0.0
    assert s["governed_mean_error"] <= s["replay_worst_mean_error"]


def _is_float(text: str) -> bool:
    """A float as the logs print it (its repr), not an integer or text."""
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


def _assert_matches_golden(got: str, want: str) -> None:
    """Same lines and fields; integers and text exactly, floats to rtol 1e-12,
    so last-place drift between numpy/scipy builds does not fail."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for n, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_fields, w_fields = re.split(r",| = ", g_line), re.split(r",| = ", w_line)
        assert len(g_fields) == len(w_fields), f"line {n}"
        for g, w in zip(g_fields, w_fields):
            if _is_float(w):
                assert math.isclose(float(g), float(w), rel_tol=1e-12), f"line {n}: {g} != {w}"
            else:
                assert g == w, f"line {n}: {g} != {w}"


def test_mini_run_matches_golden(mini_run):
    result, _ = mini_run
    golden = GOLDEN_DIR / "mini"
    _assert_matches_golden(result.log_path.read_text(), (golden / "run_log.csv").read_text())
    _assert_matches_golden(
        result.summary_path.read_text(), (golden / "summary.txt").read_text()
    )


def test_regime_change_run_matches_golden(regime_scenario, tmp_path):
    # regime_change has a hidden cost event that forces a live refit, which
    # the mini golden does not cover.
    result = run(regime_scenario, tmp_path)
    assert result.summary["refit_count"] > 0
    golden = GOLDEN_DIR / "regime_change"
    _assert_matches_golden(result.log_path.read_text(), (golden / "run_log.csv").read_text())
    _assert_matches_golden(
        result.summary_path.read_text(), (golden / "summary.txt").read_text()
    )


def test_run_baselines_equal_pinned_replays(mini_scenario, mini_run, regime_scenario):
    cases = ((mini_scenario, mini_run[0].summary), (regime_scenario, run(regime_scenario).summary))
    for scenario, summary in cases:
        roster = scenario.roster
        for tag, config in (("best", roster.best_config()), ("worst", roster.worst_config())):
            pinned = replay_trace(scenario, config)
            assert summary[f"replay_{tag}_mean_power"] == pinned["mean_power"]
            assert summary[f"replay_{tag}_mean_error"] == pinned["mean_error"]


def test_zero_frame_trace_produces_empty_log(mini_scenario, tmp_path):
    scenario = dataclasses.replace(
        mini_scenario, trace=dataclasses.replace(mini_scenario.trace, frame_count=0)
    )
    result = run(scenario, tmp_path)
    lines = result.log_path.read_text().splitlines()
    assert len(lines) == 2
    assert result.summary["governed_mean_power"] == 0.0


def test_replay_best_config_has_zero_error_and_max_power(mini_scenario):
    best = replay_trace(mini_scenario, mini_scenario.roster.best_config())
    worst = replay_trace(mini_scenario, mini_scenario.roster.worst_config())
    assert best["mean_error"] == 0.0
    assert best["mean_power"] > worst["mean_power"]
    assert worst["mean_error"] > 0.0


def test_replay_artifacts_and_initialization_shared_with_run(mini_scenario, mini_run, tmp_path):
    result = replay(mini_scenario, mini_scenario.roster.best_config(), tmp_path)
    assert result.log_path.exists()
    run_summary = mini_run[0].summary
    assert result.summary["budget_watts"] == run_summary["budget_watts"]
    assert result.summary["p_min_probed"] == run_summary["p_min_probed"]
    assert result.summary["p_max_probed"] == run_summary["p_max_probed"]


def test_replay_power_cells_are_exact_and_measured(mini_scenario, tmp_path):
    sc = mini_scenario
    config = sc.roster.worst_config()
    result = replay(sc, config, tmp_path)
    header, *lines = result.log_path.read_text().splitlines()[1:]
    columns = header.split(",")
    rows = [line.split(",") for line in lines]
    assert [float(row[columns.index("predicted_w")]) for row in rows] == [
        exact_power(sc.oracle, config, f, sc.trace) for f in range(sc.trace.frame_count)
    ]
    assert [float(row[columns.index("measured_w")]) for row in rows] == [
        measure_power(sc.oracle, config, f, sc.trace) for f in range(sc.trace.frame_count)
    ]


def test_replay_rejects_invalid_config(mini_scenario, tmp_path):
    with pytest.raises(ValueError):
        replay(mini_scenario, RenderingConfiguration((9, 9, 9)), tmp_path)


def test_oracle_table_covers_enumeration_with_zero_error_reference(mini_scenario):
    rows = oracle_table(mini_scenario, frame=5)
    assert len(rows) == mini_scenario.roster.config_count
    by_cfg = {cfg: (p, e) for cfg, p, e in rows}
    best = mini_scenario.roster.best_config()
    assert by_cfg[best][1] == 0.0
    worst = mini_scenario.roster.worst_config()
    assert by_cfg[worst][0] == min(p for p, _ in by_cfg.values())


def test_oracle_table_matches_independent_ground_truth(
    mini_scenario, demo_scenario, demo_40px_scenario
):
    # At 40 px the demo's bands are 6-7 rows, so an SSIM window spans up to
    # three passes.
    for sc, frame in ((mini_scenario, 7), (demo_scenario, 450), (demo_40px_scenario, 31)):
        reference = render_frame(sc.synthesizer, sc.roster.best_config(), frame)
        for config, power, err in oracle_table(sc, frame):
            assert power == exact_power(sc.oracle, config, frame, sc.trace)
            assert err == quality_error(reference, render_frame(sc.synthesizer, config, frame))


def test_true_errors_equal_full_frame_scores_for_any_list(
    mini_scenario, demo_scenario, demo_40px_scenario
):
    rng = random.Random(181018)
    for sc, frame in ((mini_scenario, 13), (demo_scenario, 450), (demo_40px_scenario, 31)):
        roster = sc.roster
        best, worst = roster.best_config(), roster.worst_config()
        reference = render_frame(sc.synthesizer, best, frame)
        expected = {}

        def score(config):
            if config not in expected:
                candidate = render_frame(sc.synthesizer, config, frame)
                expected[config] = quality_error(reference, candidate)
            return expected[config]

        configs = enumerate_configurations(roster)
        # Lengths around whole and partial batches of 4.
        sizes = [1, 2, 4, 5, 11, 40]
        subsets = [rng.sample(configs, min(n, len(configs))) for n in sizes]
        lists = subsets + [
            [*subsets[-1][:9], *subsets[-1][3:12], subsets[-1][0]],  # duplicates
            subsets[-1][::-1],
            [best],
            [best, best, best],
            [worst],
            [best, worst, best],
            [rng.choice(configs[1:])],
        ]
        for configs_list in lists:
            got = _true_errors(sc, frame, configs_list)
            assert got == [score(c) for c in configs_list], (sc.name, configs_list)


def test_batch_means_equal_each_maps_own_mean():
    """_true_errors averages a batch of SSIM maps' row sums along one axis;
    that must give each map's own mean, as quality.ssim takes it, or scores
    change bits."""
    rng = np.random.default_rng(7)
    # The map shapes of 128, 64 and 40 px frames, and a non-square one.
    for shape in ((118, 118), (54, 54), (30, 30), (37, 91)):
        for count in range(1, 10):
            maps = rng.uniform(-1.0, 1.0, size=(count, *shape))
            maps[:, : shape[0] // 3] = 1.0
            own = [float(map_mean(row_sums(m), m.size)) for m in maps]
            batched = map_mean(row_sums(maps), maps[0].size).tolist()
            assert batched == own, (shape, count)


def test_oracle_table_renders_each_band_level_once(demo_scenario, monkeypatch):
    calls = []
    apply = simgpu._apply_degradation

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(simgpu, "_apply_degradation", counted)
    oracle_table(demo_scenario, 600)
    degraded_levels = sum(p.level_count - 1 for p in demo_scenario.roster.passes)
    assert degraded_levels == 12
    assert len(calls) <= degraded_levels


def test_oracle_table_frame_bounds(mini_scenario):
    with pytest.raises(ValueError):
        oracle_table(mini_scenario, frame=mini_scenario.trace.frame_count)


def test_oracle_table_csv(mini_scenario, tmp_path):
    path = write_oracle_table(mini_scenario, 3, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[1] == "config,true_power_w,true_error"
    assert len(lines) == 2 + mini_scenario.roster.config_count


def test_reveal_oracle_exposes_hidden_parameters(mini_scenario):
    doc = reveal_oracle(mini_scenario)
    assert doc["p_min"] == mini_scenario.oracle.saturation.p_min
    assert set(doc["passes"]) == {"shading", "postfx"}
    assert doc["passes"]["shading"]["true_ins_f"] == [400, 240, 110]


def test_initialization_is_deterministic(mini_scenario):
    a = initialize(mini_scenario)
    b = initialize(mini_scenario)
    assert a.probe == b.probe
    assert a.probe.saturation == b.probe.saturation
    assert a.error_model.ratios == b.error_model.ratios


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"),
    reason="splitting needs the fork start method and CPU affinity",
)


def _truth_jobs(scenario, count):
    """``count`` jobs over repeated and spread frames, mixing the worst, best,
    mid and mixed configurations, some of them twice in one job."""
    roster = scenario.roster
    worst, best = roster.worst_config(), roster.best_config()
    mid = RenderingConfiguration(tuple(p.level_count // 2 for p in roster.passes))
    mixed = RenderingConfiguration(tuple(i % p.level_count for i, p in enumerate(roster.passes)))
    lists = [[worst, mid], [best], [mixed, worst, mixed], [mid, best, worst], [worst]]
    frames = [0, 7, 7, 31, 120, 199, 238]
    return [(frames[k % len(frames)], lists[k % len(lists)]) for k in range(count)]


def _scorer_truths(scenario, jobs, workers=None):
    """:func:`_true_errors` of each job, in order, from a ``harness._Scorer``
    handed one job per task."""
    with harness._Scorer(scenario, len(jobs), workers) as scorer:
        chunks = [scorer.submit([job]) for job in jobs]
        return [truths for (truths,) in scorer.results(chunks)]


@needs_fork
def test_frame_truths_equal_serial_for_any_split(mini_scenario, demo_scenario):
    allowed = os.sched_getaffinity(0)
    for scenario in (mini_scenario, demo_scenario):
        for count in (0, 1, 7):
            jobs = _truth_jobs(scenario, count)
            serial = [_true_errors(scenario, frame, configs) for frame, configs in jobs]
            for workers in (1, 2, 3, count + 2):
                assert _scorer_truths(scenario, jobs, workers=workers) == serial, (
                    scenario.name,
                    count,
                    workers,
                )
                assert os.sched_getaffinity(0) == allowed
    assert multiprocessing.active_children() == []


@needs_fork
def test_frame_truths_child_error_reaches_caller(mini_scenario, monkeypatch):
    started = _recording_scorers(monkeypatch)
    roster = mini_scenario.roster
    bad = RenderingConfiguration(tuple(p.level_count for p in roster.passes))
    with pytest.raises(ValueError) as serial:
        _true_errors(mini_scenario, 3, [bad])
    # With two workers the first job's chunk is the forked child's part.
    jobs = [(3, [bad]), (5, [roster.worst_config()])]
    allowed = os.sched_getaffinity(0)
    with pytest.raises(ValueError) as forked:
        _scorer_truths(mini_scenario, jobs, workers=2)
    assert started == [1]
    assert os.sched_getaffinity(0) == allowed
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == "pass 0 has no level 2"
    assert multiprocessing.active_children() == []


def _no_fork(monkeypatch) -> None:
    """Make any ``os.fork`` raise, as every ``multiprocessing`` start does."""

    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)


def test_frame_truths_starts_no_process_when_it_cannot_fork(mini_scenario, monkeypatch):
    _no_fork(monkeypatch)
    jobs = _truth_jobs(mini_scenario, 5)
    serial = [_true_errors(mini_scenario, frame, configs) for frame, configs in jobs]
    if "fork" in multiprocessing.get_all_start_methods():
        # The stub is reached whenever the scorer would fork.
        allowed = os.sched_getaffinity(0)
        with pytest.raises(AssertionError, match="a process was forked"):
            _scorer_truths(mini_scenario, jobs, workers=2)
        assert os.sched_getaffinity(0) == allowed
        assert gc.get_freeze_count() == 0

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _scorer_truths(mini_scenario, jobs) == serial
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
        assert _scorer_truths(mini_scenario, jobs, workers=3) == serial
    with monkeypatch.context() as m:
        m.setattr(multiprocessing.current_process(), "daemon", True)
        assert _scorer_truths(mini_scenario, jobs, workers=3) == serial
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert _scorer_truths(mini_scenario, jobs, workers=3) == serial
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert multiprocessing.active_children() == []


needs_two_cpus = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="scoring beside the loop needs fork, CPU affinity and two CPUs",
)


def _recording_scorers(monkeypatch, tasks=None, scorers=None) -> list:
    """Record how many workers each ``harness._Scorer`` that forks starts in
    the returned list, each task handed to a scorer, ``(index, jobs)``, in
    ``tasks`` if given, and each scorer in ``scorers`` if given."""
    started = []
    init, submit = harness._Scorer.__init__, harness._Scorer.submit

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.workers:
            started.append(len(self.workers))
        if scorers is not None:
            scorers.append(self)

    def recording_submit(self, jobs):
        i = submit(self, jobs)
        if tasks is not None:
            tasks.append((i, jobs))
        return i

    monkeypatch.setattr(harness._Scorer, "__init__", recording_init)
    monkeypatch.setattr(harness._Scorer, "submit", recording_submit)
    return started


def _recording_reads(monkeypatch, path: Path):
    """Have every forked worker note, in ``path``, each task's bytes that it
    reads off the task pipe; returns a function that lists them."""
    take = harness._take

    def recording(tasks, lock):
        task = take(tasks, lock)
        with open(path, "ab") as f:
            f.write(len(task).to_bytes(4, "big") + task)
        return task

    monkeypatch.setattr(harness, "_take", recording)

    def reads() -> list[bytes]:
        data, found = path.read_bytes() if path.exists() else b"", []
        while data:
            size = int.from_bytes(data[:4], "big")
            found.append(data[4 : 4 + size])
            data = data[4 + size :]
        return [task for task in found if task]

    return reads


@needs_two_cpus
def test_run_scored_beside_loop_equals_serial(
    mini_scenario, regime_scenario, monkeypatch, tmp_path
):
    # 203 frames end in a partial chunk; sampling every 37th frame leaves
    # chunks with no sampled frame. regime_change refits within them.
    assert 203 % harness._CHUNK and 37 > harness._CHUNK
    allowed = os.sched_getaffinity(0)
    for base, every in itertools.product((mini_scenario, regime_scenario), (2, 37)):
        trace = dataclasses.replace(base.trace, frame_count=203)
        scenario = dataclasses.replace(base, trace=trace, error_sample_every=every)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            serial = run(scenario, tmp_path / f"{base.name}_serial{every}")
        tasks = []
        with monkeypatch.context() as m:
            started = _recording_scorers(m, tasks)
            reads = _recording_reads(m, tmp_path / f"{base.name}_reads{every}")
            forked = run(scenario, tmp_path / f"{base.name}_forked{every}")
        assert started == [len(allowed) - 1]
        # One task kind, SSIM jobs only. The worker calibrates first, one task
        # per calibration frame, while the caller probes, then takes the
        # background cycle, one task per reference frame, then the chunks
        # that hold a sampled frame, one task each.
        roster = scenario.roster
        degradations = [
            single_degradation_config(roster, i, level)
            for i, p in enumerate(roster.passes)
            for level in range(1, p.level_count)
        ]
        plan = background_plan(roster, scenario.governor, 203)
        expected = [[(frame, degradations)] for frame in scenario.calibration_frames] + [
            [(frame, [pass_slot_config(roster, p) for p in passes])] for frame, passes in plan
        ]
        # Every task crosses the task pipe once, as its (index, jobs).
        assert sorted(map(pickle.loads, reads()), key=lambda task: task[0]) == tasks
        assert [i for i, _ in tasks] == list(range(len(tasks)))
        assert [jobs for _, jobs in tasks[: len(expected)]] == expected
        chunks = [jobs for _, jobs in tasks[len(expected) :]]
        sampled = range(0, 203, every)
        assert [frame for jobs in chunks for frame, _ in jobs] == list(sampled)
        assert [len({frame // harness._CHUNK for frame, _ in jobs}) for jobs in chunks] == [
            1
        ] * len(chunks)
        assert len(chunks) == len({frame // harness._CHUNK for frame in sampled})
        if every == 37:
            assert len(chunks) < -(-203 // harness._CHUNK)
        assert os.sched_getaffinity(0) == allowed
        for name in ("log_path", "summary_path"):
            assert getattr(forked, name).read_bytes() == getattr(serial, name).read_bytes()
        assert forked.summary["governed_error_samples"] == len(range(0, 203, every))
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@needs_two_cpus
def test_run_task_sends_coefficients_not_power_models(demo_scenario, monkeypatch, tmp_path):
    reads = _recording_reads(monkeypatch, tmp_path / "reads")
    trace = dataclasses.replace(demo_scenario.trace, frame_count=6 * harness._CHUNK)
    run(dataclasses.replace(demo_scenario, trace=trace))
    # The bytes of each task as a worker read them off the task pipe.
    tasks = reads()
    # Tasks carry SSIM jobs only: the caller takes the powers, so no part of
    # a power model crosses to a worker. The whole PowerModel pickles to
    # 1,719 bytes on demo, numpy arrays included.
    model_size = len(pickle.dumps(initialize(demo_scenario).power_model))
    assert tasks and max(map(len, tasks)) < min(1_100, model_size)
    for name in (b"PowerModel", b"numpy", b"SaturationConstants"):
        assert not any(name in task for task in tasks), name


@needs_two_cpus
def test_replay_forked_equals_serial(mini_scenario, regime_scenario, monkeypatch, tmp_path):
    # 203 frames end in a partial chunk.
    assert 203 % harness._CHUNK
    allowed = os.sched_getaffinity(0)
    for base in (mini_scenario, regime_scenario):
        trace = dataclasses.replace(base.trace, frame_count=203)
        scenario = dataclasses.replace(base, trace=trace)
        worst = scenario.roster.worst_config()
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            serial = replay(scenario, worst, tmp_path / f"{base.name}_serial")
        with monkeypatch.context() as m:
            started = _recording_scorers(m)
            forked = replay(scenario, worst, tmp_path / f"{base.name}_forked")
        assert started == [len(allowed) - 1]
        assert os.sched_getaffinity(0) == allowed
        for name in ("log_path", "summary_path"):
            assert getattr(forked, name).read_bytes() == getattr(serial, name).read_bytes()
        every = scenario.error_sample_every
        assert forked.summary["error_samples"] == len(range(0, 203, every))
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


def test_background_cycle_renders_its_frame_once(
    mini_scenario, regime_scenario, monkeypatch, tmp_path
):
    """Inside the governor's ticks, each planned background cycle looks up
    its reference frame's base pattern once, at its ``ref`` slot, where the
    caller scores all its pass slots. Serial, so the caller scores every
    cycle. A reference with no pass slot inside the trace is not rendered:
    mini cut to 201 frames takes a reference at frame 200, after ten cycles
    of 4 slots 5 frames apart."""
    pattern = simgpu._base_pattern
    tick = Governor.tick
    ticking, looked_up = [], []

    def recorded_pattern(seed, frame, height, width):
        if ticking:
            looked_up.append(frame)
        return pattern(seed, frame, height, width)

    def recorded_tick(self, frame):
        ticking.append(frame)
        try:
            return tick(self, frame)
        finally:
            ticking.pop()

    monkeypatch.setattr(simgpu, "_base_pattern", recorded_pattern)
    monkeypatch.setattr(Governor, "tick", recorded_tick)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cut = dataclasses.replace(
        mini_scenario, trace=dataclasses.replace(mini_scenario.trace, frame_count=201)
    )
    for k, scenario in enumerate((mini_scenario, regime_scenario, cut)):
        looked_up.clear()
        result = run(scenario, tmp_path / str(k))
        header, *lines = result.log_path.read_text().splitlines()[1:]
        bg_request = header.split(",").index("bg_request")
        refs = [int(line.split(",")[0]) for line in lines if line.split(",")[bg_request] == "ref"]
        plan = background_plan(scenario.roster, scenario.governor, scenario.trace.frame_count)
        planned = [ref for ref, _ in plan]
        assert len(planned) > 1
        assert looked_up == planned, k
        assert refs == planned + ([200] if scenario is cut else []), k


def test_run_draws_no_meter_noise_inside_a_tick(mini_scenario, lattice_scenario, monkeypatch):
    """``run`` draws every frame's meter noise before its loop, so that the
    first tick that reads the meter does not pay for the whole trace."""
    noise, tick = simgpu.HiddenPowerOracle.noise, Governor.tick
    ticking, drawn, inside = [], [], []

    def recorded_noise(self, frame):
        (inside if ticking else drawn).append(frame)
        return noise(self, frame)

    def recorded_tick(self, frame):
        ticking.append(frame)
        try:
            return tick(self, frame)
        finally:
            ticking.pop()

    monkeypatch.setattr(simgpu.HiddenPowerOracle, "noise", recorded_noise)
    monkeypatch.setattr(Governor, "tick", recorded_tick)
    for scenario in (mini_scenario, lattice_scenario):
        drawn.clear()
        run(scenario)
        assert inside == [], scenario.name
        assert set(range(scenario.trace.frame_count)) <= set(drawn), scenario.name


def _governed_powers(scenario) -> list[tuple[float, float]]:
    """Oracle for a run's power cells: (predicted, measured) of each frame's
    ``s_eff``, evaluated right after the governor's tick with the model it
    then holds, as the tick itself once did."""
    roster, oracle, trace = scenario.roster, scenario.oracle, scenario.trace
    init = initialize(scenario)
    gov = Governor(
        roster=roster,
        config=scenario.governor,
        power_model=init.power_model,
        error_model=init.error_model,
        measure=lambda c, frames: (
            [measure_power(oracle, c, f, trace) for f in frames],
            [trace.primitives_for(roster, c, f) for f in frames],
        ),
        counts=FramePowers(oracle, trace, range(trace.frame_count)).table,
        scorer=partial(FrameScorer, scenario.synthesizer),
        initial_config=scenario.initial_config,
    )
    powers = []
    for frame in range(trace.frame_count):
        s_eff = gov.tick(frame).s_eff
        model = gov.power_model
        predicted = predict_power(
            model.saturation,
            model.coefficients_for(s_eff),
            trace.primitives_for(roster, s_eff, frame),
        )
        powers.append((predicted, measure_power(oracle, s_eff, frame, trace)))
    return powers


@pytest.mark.parametrize("forked", [False, pytest.param(True, marks=needs_two_cpus)])
def test_run_power_cells_equal_governed_oracle(
    forked, mini_scenario, regime_scenario, lattice_scenario, monkeypatch, tmp_path
):
    # Both small scenarios install a fitted model in the middle of a chunk:
    # mini's startup fit and regime_change's forced refit. The 8-pass lattice
    # is cut to 240 frames, which take it through its first selection.
    lattice = dataclasses.replace(
        lattice_scenario, trace=dataclasses.replace(lattice_scenario.trace, frame_count=240)
    )
    for scenario in (mini_scenario, regime_scenario, lattice):
        expected = _governed_powers(scenario)
        with monkeypatch.context() as m:
            if forked:
                started = _recording_scorers(m)
            else:
                m.setattr(os, "sched_getaffinity", lambda pid: {0})
            result = run(scenario, tmp_path / f"{scenario.name}_{forked}")
        if forked:
            assert len(started) == 1
        header, *lines = result.log_path.read_text().splitlines()[1:]
        columns = header.split(",")
        cells = [line.split(",") for line in lines]
        got = [
            (float(row[columns.index("predicted_w")]), float(row[columns.index("measured_w")]))
            for row in cells
        ]
        assert got == expected, scenario.name
        assert result.summary["governed_mean_power"] == sum(m for _, m in expected) / len(expected)


def test_run_powers_equal_scalar_powers(regime_scenario, demo_scenario):
    """A run's powers, taken in one pass over the whole trace, equal the
    scalar path's when the coefficients and the saturation constants change
    mid-run, and when every frame's s_eff is an equal but distinct object,
    as a glide builds them."""
    for scenario in (regime_scenario, demo_scenario):
        roster, oracle = scenario.roster, scenario.oracle
        trace = dataclasses.replace(scenario.trace, frame_count=203)
        scenario = dataclasses.replace(scenario, trace=trace)
        config = RenderingConfiguration(tuple(p.level_count // 2 for p in roster.passes))
        fitted = oracle.true_coefficients(config)
        refit = fitted * (1.0, 1.1, 0.9)
        saturation = oracle.saturation
        moved = dataclasses.replace(saturation, p_max=1.01 * saturation.p_max)
        frames = range(203)
        # Coefficients swap at frame 37, saturation constants at frame 150.
        changing = [
            (config, saturation if f < 150 else moved, fitted if f < 37 else refit)
            for f in frames
        ]
        # The glide steps to the worst configuration at frame 100.
        gliding = [
            (RenderingConfiguration(tuple(config if f < 100 else roster.worst_config())),
             saturation, fitted)
            for f in frames
        ]
        for governed in (changing, gliding):
            expected = [
                (
                    measure_power(oracle, roster.best_config(), f, trace),
                    measure_power(oracle, roster.worst_config(), f, trace),
                    measure_power(oracle, s_eff, f, trace),
                    predict_power(sat, coefficients, trace.primitives_for(roster, s_eff, f)),
                )
                for f, (s_eff, sat, coefficients) in zip(frames, governed)
            ]
            powers = harness._run_powers(FramePowers(oracle, trace, frames), governed)
            assert powers == expected
            assert {type(watts) for frame_powers in powers for watts in frame_powers} == {float}
    assert harness._run_powers(FramePowers(oracle, trace, range(0)), []) == []


def test_window_counts_equal_count_table_entries(mini_scenario, lattice_scenario):
    """The governor's ``measure`` hook in ``run`` reads a window's meter and
    counts in one pass; at each frame of the window its counts equal, bit
    for bit, the configuration's entries of that frame's count table, which
    selection reads, and its readings are the whole trace's."""
    for scenario in (mini_scenario, lattice_scenario):
        roster, frame_count = scenario.roster, scenario.trace.frame_count
        at = FramePowers(scenario.oracle, scenario.trace, range(frame_count))
        rng = random.Random(5)
        configs = [roster.best_config(), roster.worst_config()] + [
            RenderingConfiguration(tuple(rng.randrange(p.level_count) for p in roster.passes))
            for _ in range(3)
        ]
        windows = [range(0, 10), range(137, 167), range(frame_count - 30, frame_count)]
        for config, frames in itertools.product(configs, windows):
            watts, counts = harness._meter(at, config, frames)
            expected = np.array([config_counts(roster, at.table(f), config) for f in frames])
            assert np.asarray(counts).tobytes() == expected.tobytes(), (scenario.name, config)
            assert watts.tobytes() == at.measured(config)[frames[0] : frames[-1] + 1].tobytes()


def test_run_paths_make_no_one_frame_power_calls(mini_scenario, monkeypatch, tmp_path):
    """``run``, ``replay_trace`` and ``oracle_table`` take every watt and
    count in array passes, never through the one-frame views, whichever
    module binds them."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (simgpu, "exact_power"),
        (simgpu, "measure_power"),
        (powermodel, "predict_power"),
    ):
        original = getattr(module, name)
        for loaded, mod in list(sys.modules.items()):
            if loaded.partition(".")[0] == "rendergov":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted(name, original))
    monkeypatch.setattr(
        simgpu.SceneTrace,
        "primitives_for",
        counted("primitives_for", simgpu.SceneTrace.primitives_for),
    )
    # One CPU: the caller does all the work, where the counters see it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    scenario = mini_scenario
    run(scenario, tmp_path)
    replay_trace(scenario, scenario.roster.worst_config())
    oracle_table(scenario, 120)
    assert calls == []
    # The counters do see a one-frame call.
    scenario.trace.primitives_for(scenario.roster, scenario.roster.best_config(), 0)
    assert calls == ["primitives_for"]


@needs_two_cpus
def test_run_worker_error_reaches_caller(mini_scenario, monkeypatch):
    parent = os.getpid()
    true_errors = harness._true_errors

    def failing_in_worker(scenario, frame, configs):
        # Frame 8 is in the first chunk, which a worker takes while the loop
        # still runs.
        if frame == 8 and os.getpid() != parent:
            raise ValueError("frame 8 cannot be scored")
        return true_errors(scenario, frame, configs)

    monkeypatch.setattr(harness, "_true_errors", failing_in_worker)
    started = _recording_scorers(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(ValueError) as raised:
        run(mini_scenario)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "frame 8 cannot be scored"
    # The worker's traceback comes along as the cause.
    assert "in _serve" in str(raised.value.__cause__)
    assert "in failing_in_worker" in str(raised.value.__cause__)
    assert len(started) == 1
    assert os.sched_getaffinity(0) == allowed
    assert multiprocessing.active_children() == []
    assert gc.get_freeze_count() == 0


def test_run_frees_trace_powers_and_records_before_scoring_chunks(mini_scenario, monkeypatch):
    """``run`` lets go of its whole-trace ``FramePowers``, which the
    governor's hooks use, and of the governor's records once their lines are
    formatted, before the caller scores the chunks, so that its SSIM
    temporaries can reuse that memory."""
    tracked, alive = [], []

    class Tracked(FramePowers):
        def __init__(self, *args):
            super().__init__(*args)
            tracked.append(weakref.ref(self))

    log_lines, results = harness._log_lines, harness._Scorer.results

    def tracking_lines(records, powers):
        tracked.extend(weakref.ref(record) for record in records)
        return log_lines(records, powers)

    def checking(self, tasks):
        alive.append([type(ref()) for ref in tracked if ref() is not None])
        return results(self, tasks)

    monkeypatch.setattr(harness, "FramePowers", Tracked)
    monkeypatch.setattr(harness, "_log_lines", tracking_lines)
    monkeypatch.setattr(harness._Scorer, "results", checking)
    run(mini_scenario)
    # The calibration's results, while the loop's FramePowers serves the
    # hooks, then the chunks', when only the last tick's record is left.
    assert alive == [[Tracked], [RunLogRecord]]


@pytest.mark.parametrize("forked", [False, pytest.param(True, marks=needs_two_cpus)])
def test_run_unfreezes_what_it_froze(forked, mini_scenario, monkeypatch):
    """A forked run freezes the caller's objects before its workers fork and
    unfreezes them when it ends; a serial run freezes nothing."""
    probe, frozen = harness._probe, []

    def counting(scenario):
        frozen.append(gc.get_freeze_count())
        return probe(scenario)

    monkeypatch.setattr(harness, "_probe", counting)
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert gc.get_freeze_count() == 0
    run(mini_scenario)
    assert (frozen[0] > 0) == forked
    assert gc.get_freeze_count() == 0


# The frame of a hold task's one job, at which ``_true_errors``, as
# :func:`_hold_workers` patches it, holds the worker that scores it.
_HOLD = -1
# A released hold task's result.
_RELEASED = [[True]]


def _hold_workers(monkeypatch, release: Path) -> None:
    """Have a scoring task whose one job is at frame :data:`_HOLD` keep its
    worker busy until ``release`` exists, for at most 20 s, and score
    whether it was released. It touches ``release.held`` once it holds."""
    true_errors = harness._true_errors

    def holding(scenario, frame, configs):
        if frame != _HOLD:
            return true_errors(scenario, frame, configs)
        release.with_suffix(".held").touch()
        deadline = time.monotonic() + 20
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return [release.exists()]

    monkeypatch.setattr(harness, "_true_errors", holding)


def _hold_workers_in_run(monkeypatch, release: Path, workers: int) -> None:
    """Have ``run``'s scorer hold each of its ``workers`` busy from its start
    until it exits: ahead of ``run``'s own tasks it submits one hold task
    (:func:`_hold_workers`) per worker, and each worker takes one first."""
    _hold_workers(monkeypatch, release)
    init, exit_ = harness._Scorer.__init__, harness._Scorer.__exit__

    def holding(self, scenario, tasks, *args):
        init(self, scenario, tasks + workers, *args)
        for _ in range(workers):
            self.submit([(_HOLD, [])])

    def releasing(self, *exc):
        release.touch()
        return exit_(self, *exc)

    monkeypatch.setattr(harness._Scorer, "__init__", holding)
    monkeypatch.setattr(harness._Scorer, "__exit__", releasing)


@needs_two_cpus
@pytest.mark.parametrize("held", [True, False])
def test_run_background_scored_ahead_equals_serial(
    held, mini_scenario, regime_scenario, lattice_scenario, monkeypatch, tmp_path
):
    """A forked run's logs and summaries equal the serial run's whoever scores
    the background cycle: the caller, in its ticks, when every worker is held
    busy, or the worker, ahead of the ticks, when it is free."""
    allowed = os.sched_getaffinity(0)
    lattice = dataclasses.replace(
        lattice_scenario,
        trace=dataclasses.replace(lattice_scenario.trace, frame_count=300),
        error_sample_every=50,
    )
    for scenario in (mini_scenario, regime_scenario, lattice):
        out = tmp_path / f"{scenario.name}_{len(scenario.roster.passes)}"
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            serial = run(scenario, out / "serial")
        scorers = []
        holds = len(allowed) - 1 if held else 0
        with monkeypatch.context() as m:
            started = _recording_scorers(m, scorers=scorers)
            if held:
                _hold_workers_in_run(m, out / "release", holds)
            forked = run(scenario, out / "forked")
        assert started == [len(allowed) - 1]
        (scored,) = [scorer.scored for scorer in scorers]
        assert [scored.get(i) for i in range(holds)] == [_RELEASED] * holds
        plan = background_plan(scenario.roster, scenario.governor, scenario.trace.frame_count)
        # The hold tasks, then one task per calibration frame, then one per
        # reference. A task the caller claimed reaches a worker, which skips it.
        first = holds + len(scenario.calibration_frames)
        background = [scored.get(i) for i in range(first, first + len(plan))]
        assert len(background) == len(plan) > 1
        if held:
            # The caller claimed every background task; no worker scored one.
            assert background == [None] * len(plan)
        else:
            # A free worker takes the first task it reaches long before the
            # caller's ticks get to that cycle's reference.
            assert any(scores is not None for scores in background)
        assert os.sched_getaffinity(0) == allowed
        for name in ("log_path", "summary_path"):
            assert getattr(forked, name).read_bytes() == getattr(serial, name).read_bytes()
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@needs_two_cpus
def test_run_background_error_reaches_caller(mini_scenario, monkeypatch):
    parent = os.getpid()
    true_errors = harness._true_errors
    roster = mini_scenario.roster
    plan = background_plan(roster, mini_scenario.governor, mini_scenario.trace.frame_count)
    references = {frame: [pass_slot_config(roster, p) for p in passes] for frame, passes in plan}

    def failing_in_worker(scenario, frame, configs):
        if os.getpid() != parent and configs == references.get(frame):
            raise ValueError(f"reference {frame} cannot be scored")
        return true_errors(scenario, frame, configs)

    monkeypatch.setattr(harness, "_true_errors", failing_in_worker)
    started = _recording_scorers(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(ValueError) as raised:
        run(mini_scenario)
    assert type(raised.value) is ValueError
    assert re.fullmatch(r"reference \d+ cannot be scored", str(raised.value))
    # Raised in the worker, inside a reference's task the caller then read.
    assert "in _serve" in str(raised.value.__cause__)
    assert len(started) == 1
    assert os.sched_getaffinity(0) == allowed
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@needs_fork
def test_caller_takes_every_chunk_no_worker_started(mini_scenario, monkeypatch, tmp_path):
    # The pool hands a busy worker's queue more chunks than it can cancel;
    # the caller must still take them all without waiting for the worker.
    jobs = _truth_jobs(mini_scenario, 5)
    serial = [_true_errors(mini_scenario, frame, configs) for frame, configs in jobs]
    release = tmp_path / "release"
    _hold_workers(monkeypatch, release)
    with harness._Scorer(mini_scenario, len(jobs) + 1, workers=2) as scorer:
        held = scorer.submit([(_HOLD, [])])
        deadline = time.monotonic() + 20
        while not release.with_suffix(".held").exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert release.with_suffix(".held").exists()
        chunks = [scorer.submit([job]) for job in jobs]
        truths = [truths for (truths,) in scorer.results(chunks)]
        release.touch()
        assert scorer.result(held) == _RELEASED
    assert truths == serial
    assert multiprocessing.active_children() == []


def _hold_worker_start(monkeypatch, release: Path) -> None:
    """Have each forked scoring worker wait, before it takes any task, until
    ``release`` exists, for at most 20 s."""
    start_worker = harness._start_worker

    def waiting(*args):
        deadline = time.monotonic() + 20
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        start_worker(*args)

    monkeypatch.setattr(harness, "_start_worker", waiting)


def _wait_for_no_children() -> bool:
    deadline = time.monotonic() + 20
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)
    return multiprocessing.active_children() == []


@needs_fork
def test_worker_told_no_more_tasks_exits_while_the_caller_scores(
    mini_scenario, monkeypatch, tmp_path
):
    """After ``no_more_tasks`` the tasks the caller claimed while the worker
    was busy still reach it and return None, and it exits inside the
    context, without the caller's exit waiting for it."""
    jobs = _truth_jobs(mini_scenario, 5)
    serial = [_true_errors(mini_scenario, frame, configs) for frame, configs in jobs]
    release = tmp_path / "release"
    _hold_workers(monkeypatch, release)
    reads = _recording_reads(monkeypatch, tmp_path / "reads")
    with harness._Scorer(mini_scenario, len(jobs) + 1, workers=2) as scorer:
        held = scorer.submit([(_HOLD, [])])
        chunks = [scorer.submit([job]) for job in jobs]
        scorer.no_more_tasks()
        deadline = time.monotonic() + 20
        while not release.with_suffix(".held").exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        truths = [truths for (truths,) in scorer.results(chunks)]
        release.touch()
        assert scorer.result(held) == _RELEASED
        assert _wait_for_no_children()
        # Every task reached the worker, which scored only the hold task.
        assert [pickle.loads(task)[0] for task in reads()] == [held, *chunks]
        assert list(scorer.scored) == [held]
    assert truths == serial


@needs_fork
def test_caller_claims_every_task_after_no_more_tasks(mini_scenario, monkeypatch, tmp_path):
    jobs = _truth_jobs(mini_scenario, 5)
    serial = [_true_errors(mini_scenario, frame, configs) for frame, configs in jobs]
    release = tmp_path / "release"
    _hold_worker_start(monkeypatch, release)
    reads = _recording_reads(monkeypatch, tmp_path / "reads")
    with harness._Scorer(mini_scenario, len(jobs), workers=2) as scorer:
        chunks = [scorer.submit([job]) for job in jobs]
        scorer.no_more_tasks()
        truths = [truths for (truths,) in scorer.results(chunks)]
        release.touch()
    assert truths == serial
    # Every task reached the worker, which skipped each one.
    assert [pickle.loads(task)[0] for task in reads()] == chunks
    assert scorer.scored == {}
    assert multiprocessing.active_children() == []


@needs_fork
def test_error_after_no_more_tasks_stops_the_worker(mini_scenario, monkeypatch, tmp_path):
    class Stop(Exception):
        pass

    scored = tmp_path / "scored"
    score_jobs = harness._score_jobs

    def logged(scenario, jobs):
        with open(scored, "a") as f:
            f.write(f"{jobs[0][0]}\n")
        return score_jobs(scenario, jobs)

    monkeypatch.setattr(harness, "_score_jobs", logged)
    jobs = _truth_jobs(mini_scenario, 40)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(Stop):
        with harness._Scorer(mini_scenario, len(jobs), workers=2) as scorer:
            for job in jobs:
                scorer.submit([job])
            scorer.no_more_tasks()
            raise Stop
    # Leaving on an error stops the worker: it did not score the tasks it
    # had not started.
    done = scored.read_text().split() if scored.exists() else []
    assert len(done) < len(jobs)
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == allowed
    assert threading.active_count() == 1


@needs_fork
def test_submit_after_no_more_tasks_raises(mini_scenario):
    jobs = _truth_jobs(mini_scenario, 2)
    with harness._Scorer(mini_scenario, len(jobs), workers=2) as scorer:
        first = scorer.submit([jobs[0]])
        scorer.no_more_tasks()
        with pytest.raises(RuntimeError):
            scorer.submit([jobs[1]])
        assert scorer.result(first) == [_true_errors(mini_scenario, *jobs[0])]
    assert multiprocessing.active_children() == []


@needs_fork
def test_each_chunk_is_scored_once(mini_scenario, monkeypatch, tmp_path):
    # More workers than CPUs, and tasks that score in no time, so the
    # workers and the caller race for the claims. As in run, calibration
    # tasks come first and are collected together, then reference tasks,
    # each asked for on its own, then the chunks.
    scored = tmp_path / "scored"
    score_jobs = harness._score_jobs

    def logged(scenario, jobs):
        with open(scored, "a") as f:
            f.write(f"{jobs[0][0]}\n")
        return score_jobs(scenario, jobs)

    monkeypatch.setattr(harness, "_score_jobs", logged)
    best = mini_scenario.roster.best_config()
    for calibration, references in ((0, 0), (3, 40)):
        jobs = [(frame, [best]) for frame in range(calibration + references + 200)]
        for workers in (2, 2 * len(os.sched_getaffinity(0)) + 1):
            scored.write_text("")
            with harness._Scorer(mini_scenario, len(jobs), workers) as scorer:
                tasks = [scorer.submit([job]) for job in jobs]
                calibrated = scorer.results(tasks[:calibration])
                referenced = [scorer.result(i) for i in tasks[calibration:-200]]
                chunks = scorer.results(tasks[-200:])
            assert calibrated + referenced + chunks == [[[0.0]]] * len(jobs)
            done = sorted(map(int, scored.read_text().split()))
            assert done == list(range(len(jobs))), (calibration, references, workers)
    assert multiprocessing.active_children() == []


def _dead_scenario(scenario):
    """``scenario`` with an oracle whose power never rises above idle."""
    oracle = scenario.oracle
    dead = dataclasses.replace(
        oracle,
        k_b=(0.0,) * len(oracle.k_b),
        unit_costs=dataclasses.replace(oracle.unit_costs, chi=0.0, psi=0.0),
    )
    return dataclasses.replace(scenario, oracle=dead)


@needs_two_cpus
def test_run_probe_error_stops_the_worker(mini_scenario, monkeypatch):
    scenario = _dead_scenario(mini_scenario)
    with pytest.raises(simgpu.ProbeError) as serial:
        initialize(scenario)
    started = _recording_scorers(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(simgpu.ProbeError) as forked:
        run(scenario)
    # The worker was alive, calibrating, when the probe failed.
    assert started == [len(allowed) - 1]
    assert str(forked.value) == str(serial.value)
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == allowed
    assert threading.active_count() == 1


def test_calibration_asks_for_what_run_scores(mini_scenario, lattice_scenario, monkeypatch):
    """``calibrate_ratios`` looks up exactly the configurations ``run``
    scored for each calibration frame, in the same order."""

    class Calibrated(Exception):
        pass

    for scenario in (mini_scenario, lattice_scenario):
        submitted, asked = [], []
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            submit = harness._Scorer.submit
            m.setattr(
                harness._Scorer,
                "submit",
                lambda self, jobs: submitted.extend(jobs) or submit(self, jobs),
            )

            def calibrate(scorer, roster, frames):
                def recording(frame):
                    score = scorer(frame)
                    return lambda configs: asked.append((frame, list(configs))) or score(configs)

                calibrate_ratios(recording, roster, frames)
                raise Calibrated

            m.setattr(harness, "calibrate_ratios", calibrate)
            with pytest.raises(Calibrated):
                run(scenario)
        calibration = scenario.calibration_frames
        assert asked == submitted[: len(calibration)]
        assert [frame for frame, _ in asked] == list(calibration)
        assert len(asked[0][1]) == sum(p.level_count - 1 for p in scenario.roster.passes)


@needs_two_cpus
def test_run_calibration_error_reaches_caller(mini_scenario, monkeypatch):
    scenario = dataclasses.replace(mini_scenario, calibration_frames=())
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(ValueError) as serial:
            run(scenario)
    started = _recording_scorers(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(ValueError) as forked:
        run(scenario)
    assert started == [len(allowed) - 1]
    assert type(forked.value) is type(serial.value) is ValueError
    assert str(forked.value) == str(serial.value) == "calibration needs at least one frame"
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == allowed
    assert threading.active_count() == 1


@contextmanager
def _alarm(seconds: int = 30):
    """Raise ``TimeoutError`` in the block if it has not ended after
    ``seconds``, so that a wait that never ends fails the test."""

    def waited_too_long(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_two_cpus
def test_run_fails_when_no_worker_starts(mini_scenario, monkeypatch):
    # A worker that never starts must fail the run, with its error and
    # traceback, not leave it waiting for a worker.
    def no_worker(*args):
        raise OSError("the worker cannot start")

    monkeypatch.setattr(harness, "_start_worker", no_worker)
    started = _recording_scorers(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with _alarm(30), pytest.raises(OSError) as raised:
        run(mini_scenario)
    assert type(raised.value) is OSError
    assert str(raised.value) == "the worker cannot start"
    assert "in no_worker" in str(raised.value.__cause__)
    assert len(started) == 1
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == allowed
    assert threading.active_count() == 1
    assert gc.get_freeze_count() == 0


@needs_two_cpus
def test_run_fails_when_a_worker_is_killed(mini_scenario, monkeypatch):
    parent = os.getpid()
    true_errors = harness._true_errors

    def killed_in_worker(scenario, frame, configs):
        # Frame 8 is in the first chunk, which a worker takes while the loop
        # still runs.
        if frame == 8 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return true_errors(scenario, frame, configs)

    monkeypatch.setattr(harness, "_true_errors", killed_in_worker)
    started = _recording_scorers(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with _alarm(30), pytest.raises(ChildProcessError, match="exit code -9"):
        run(mini_scenario)
    assert len(started) == 1
    assert multiprocessing.active_children() == []
    assert os.sched_getaffinity(0) == allowed
    assert threading.active_count() == 1
    assert gc.get_freeze_count() == 0


@needs_fork
def test_full_pipes_stall_neither_side(mini_scenario, monkeypatch, tmp_path):
    """While the worker is held, the caller hands it 20,000 one-job tasks,
    well over a pipe's 64 KB of task bytes, without waiting. Released, the
    worker sends results of 5,000 scores each, well over 64 KB, before the
    caller reads one. Every score arrives, and the scorer exits."""
    best = mini_scenario.roster.best_config()
    release = tmp_path / "release"
    _hold_workers(monkeypatch, release)
    wide = [(0, [best] * 5_000)] * 4
    small = [(frame % 200, [best]) for frame in range(20_000)]
    with _alarm(30):
        with harness._Scorer(mini_scenario, 1 + len(wide) + len(small), workers=2) as scorer:
            tasks = [scorer.submit([(_HOLD, [])])]
            deadline = time.monotonic() + 20
            while not release.with_suffix(".held").exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            tasks += [scorer.submit([job]) for job in wide + small]
            queued = sum(len(pickle.dumps((i, [job]))) for i, job in enumerate(wide + small))
            assert queued > 1 << 20 and scorer._backlog
            release.touch()
            # The worker scores the first two wide tasks; the second one's
            # result does not fit in the pipe with the first one's.
            assert len(pickle.dumps((1, [[0.0] * 5_000], None))) > 40_000
            while not scorer.claims[tasks[2]] and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.2)
            truths = scorer.results(tasks)
    assert truths == [_RELEASED] + [[[0.0] * 5_000]] * len(wide) + [[[0.0]]] * len(small)
    assert list(scorer.scored)[:3] == tasks[:3]
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


def _process_state():
    """This process's open file descriptors, children and threads."""
    return (
        sorted(os.listdir("/proc/self/fd")),
        multiprocessing.active_children(),
        threading.active_count(),
    )


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_forked_run_and_replay_leak_nothing(mini_scenario, monkeypatch, tmp_path):
    started = _recording_scorers(monkeypatch)
    threads, tick = [], Governor.tick

    def counting(self, frame):
        threads.append(threading.active_count())
        return tick(self, frame)

    monkeypatch.setattr(Governor, "tick", counting)
    before = _process_state()
    run(mini_scenario, tmp_path / "run")
    assert _process_state() == before
    replay(mini_scenario, mini_scenario.roster.worst_config(), tmp_path / "replay")
    assert _process_state() == before
    parent, true_errors = os.getpid(), harness._true_errors

    def failing_in_worker(scenario, frame, configs):
        if frame == 8 and os.getpid() != parent:
            raise ValueError("frame 8 cannot be scored")
        return true_errors(scenario, frame, configs)

    monkeypatch.setattr(harness, "_true_errors", failing_in_worker)
    with pytest.raises(ValueError, match="frame 8 cannot be scored"):
        run(mini_scenario)
    assert _process_state() == before
    allowed = len(os.sched_getaffinity(0))
    assert started == [allowed - 1] * 3
    # No thread but the caller's runs while the governor ticks.
    assert len(threads) >= mini_scenario.trace.frame_count
    assert set(threads) == {1}


def test_replay_and_probe_do_not_calibrate(mini_scenario, monkeypatch, tmp_path, capsys):
    worst = mini_scenario.roster.worst_config()
    expected = replay(mini_scenario, worst, tmp_path / "calibrating")

    def no_calibration(*args):
        raise AssertionError("calibrated")

    monkeypatch.setattr(harness, "calibrate_ratios", no_calibration)
    got = replay(mini_scenario, worst, tmp_path / "not_calibrating")
    for name in ("log_path", "summary_path"):
        assert getattr(got, name).read_bytes() == getattr(expected, name).read_bytes()
    scenario_path = Path(__file__).resolve().parent.parent / "scenarios" / "mini.json"
    assert cli.main(["probe", "--scenario", str(scenario_path), "--out-dir", str(tmp_path)]) == 0
    assert "p_min = " in capsys.readouterr().out
    with pytest.raises(AssertionError, match="calibrated"):
        initialize(mini_scenario)


def test_frame_truths_starts_no_process_for_best_only_jobs(mini_scenario, monkeypatch, tmp_path):
    _no_fork(monkeypatch)
    best = mini_scenario.roster.best_config()
    jobs = [(frame, [best, best]) for frame in range(0, 40, 2)]
    # replay_trace hands the all-best configuration's jobs to a scorer with
    # one worker, the caller.
    assert _scorer_truths(mini_scenario, jobs, workers=1) == [[0.0, 0.0]] * len(jobs)
    result = replay(mini_scenario, best, tmp_path)
    assert result.summary["mean_error"] == 0.0
    assert result.summary["error_samples"] == 120
