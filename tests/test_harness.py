import dataclasses
import itertools
import math
import multiprocessing
import os
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from rendergov import harness, simgpu
from rendergov.configspace import RenderingConfiguration
from rendergov.governor import Governor
from rendergov.harness import (
    _frame_truths,
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
from rendergov.powermodel import model_masks, predict_power
from rendergov.quality import quality_error
from rendergov.simgpu import exact_power, measure_power, render_frame

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
    assert a.p_min_probed == b.p_min_probed
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


@needs_fork
def test_frame_truths_equal_serial_for_any_split(mini_scenario, demo_scenario):
    allowed = os.sched_getaffinity(0)
    for scenario in (mini_scenario, demo_scenario):
        for count in (0, 1, 7):
            jobs = _truth_jobs(scenario, count)
            serial = [_true_errors(scenario, frame, configs) for frame, configs in jobs]
            for workers in (1, 2, 3, count + 2):
                assert _frame_truths(scenario, jobs, workers=workers) == serial, (
                    scenario.name,
                    count,
                    workers,
                )
                assert os.sched_getaffinity(0) == allowed
    assert multiprocessing.active_children() == []


@needs_fork
def test_frame_truths_child_error_reaches_caller(mini_scenario, monkeypatch):
    started = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    roster = mini_scenario.roster
    bad = RenderingConfiguration(tuple(p.level_count for p in roster.passes))
    with pytest.raises(ValueError) as serial:
        _true_errors(mini_scenario, 3, [bad])
    # With two workers the first job is the forked child's part.
    jobs = [(3, [bad]), (5, [roster.worst_config()])]
    allowed = os.sched_getaffinity(0)
    with pytest.raises(ValueError) as forked:
        _frame_truths(mini_scenario, jobs, workers=2)
    assert started == [(1,)]
    assert os.sched_getaffinity(0) == allowed
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == "pass 0 has no level 2"
    assert multiprocessing.active_children() == []


def test_frame_truths_starts_no_process_when_it_cannot_fork(mini_scenario, monkeypatch):
    class NoProcesses:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", NoProcesses)
    jobs = _truth_jobs(mini_scenario, 5)
    serial = [_true_errors(mini_scenario, frame, configs) for frame, configs in jobs]
    if "fork" in multiprocessing.get_all_start_methods():
        # The stub is reached whenever the helper would fork.
        with pytest.raises(AssertionError, match="a process pool was started"):
            _frame_truths(mini_scenario, jobs, workers=2)

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _frame_truths(mini_scenario, jobs) == serial
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
        assert _frame_truths(mini_scenario, jobs, workers=3) == serial
    with monkeypatch.context() as m:
        m.setattr(multiprocessing.current_process(), "daemon", True)
        assert _frame_truths(mini_scenario, jobs, workers=3) == serial
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        assert _frame_truths(mini_scenario, jobs, workers=3) == serial
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


def _recording_pools(monkeypatch) -> list:
    started = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    return started


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
        started = _recording_pools(monkeypatch)
        forked = run(scenario, tmp_path / f"{base.name}_forked{every}")
        assert started == [(len(allowed) - 1,)]
        assert os.sched_getaffinity(0) == allowed
        for name in ("log_path", "summary_path"):
            assert getattr(forked, name).read_bytes() == getattr(serial, name).read_bytes()
        assert forked.summary["governed_error_samples"] == len(range(0, 203, every))
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


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
        measure=lambda c, f: measure_power(oracle, c, f, trace),
        primitives=lambda c, f: trace.primitives_for(roster, c, f),
        render=lambda c, f: render_frame(scenario.synthesizer, c, f),
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
            model_masks(roster),
        )
        powers.append((predicted, measure_power(oracle, s_eff, frame, trace)))
    return powers


@pytest.mark.parametrize("forked", [False, pytest.param(True, marks=needs_two_cpus)])
def test_run_power_cells_equal_governed_oracle(
    forked, mini_scenario, regime_scenario, monkeypatch, tmp_path
):
    # Both scenarios install a fitted model in the middle of a chunk:
    # mini's startup fit and regime_change's forced refit.
    for scenario in (mini_scenario, regime_scenario):
        expected = _governed_powers(scenario)
        with monkeypatch.context() as m:
            if forked:
                started = _recording_pools(m)
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
    started = _recording_pools(monkeypatch)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(ValueError) as raised:
        run(mini_scenario)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "frame 8 cannot be scored"
    assert len(started) == 1
    assert os.sched_getaffinity(0) == allowed
    assert multiprocessing.active_children() == []


def test_frame_truths_starts_no_process_for_best_only_jobs(mini_scenario, monkeypatch, tmp_path):
    class NoProcesses:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", NoProcesses)
    best = mini_scenario.roster.best_config()
    jobs = [(frame, [best, best]) for frame in range(0, 40, 2)]
    assert _frame_truths(mini_scenario, jobs, workers=2) == [[0.0, 0.0]] * len(jobs)
    result = replay(mini_scenario, best, tmp_path)
    assert result.summary["mean_error"] == 0.0
    assert result.summary["error_samples"] == 120
