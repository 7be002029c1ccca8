"""rendergov benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload demo-run --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. One
process, one client, one sample at a time. ``--trace 0`` measures the
end-to-end metrics with only a tick timer and the speed probe installed.
``--trace 1`` runs every sample twice, untraced then traced, and reports the
per-layer metrics of the traced ones, plus the tracing overhead. Every metric
is printed with its unit; the last line of standard output is one JSON object
with the metrics named in BENCHMARK.json. See README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 1
# Stand-alone set-ups (scenario build plus harness.initialize) per run;
# setup_s is their median.
SETUP_REPEATS = 7
TRUTH_PARENTS = ("harness.run", "harness.replay_trace", "harness.oracle_table")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    # Ground truth
    "simgpu.render_frame.calls": "count",
    "simgpu.render_frame.self_s": "s",
    "simgpu.base_pattern.hit_ratio": "ratio",
    "quality.ssim.calls": "count",
    "quality.ssim.self_s": "s",
    "quality.ssim.mean_ms": "ms",
    "harness.truth.self_s": "s",
    "harness.truth_share": "ratio",
    "harness.replay_trace.total_s": "s",
    "harness.oracle_table.total_s": "s",
    # Selection
    "powermodel.predict_all.calls": "count",
    "powermodel.predict_all.mean_ms": "ms",
    "powermodel.predict_all.us_per_config": "us",
    "powermodel.coefficients_for_config.calls": "count",
    "simgpu.primitives_for.calls": "count",
    "configspace.validate_config.calls": "count",
    "configspace.enumerate_configurations.calls": "count",
    "configspace.enumerate_configurations.self_s": "s",
    "quality.estimate_error.calls": "count",
    "governor.select.calls": "count",
    "governor.select.mean_ms": "ms",
    # Set-up and fitting
    "scenario.load.self_s": "s",
    "simgpu.probe.self_s": "s",
    "quality.calibrate_ratios.total_s": "s",
    "powermodel.fit_coefficients.calls": "count",
    "powermodel.fit_coefficients.mean_ms": "ms",
    "powermodel.solve_unit_costs.calls": "count",
    "powermodel.solve_unit_costs.mean_ms": "ms",
    "governor.accuracy_check.calls": "count",
    # Per frame
    "governor.tick.self_s": "s",
    "simgpu.measure_power.calls": "count",
    "simgpu.measure_power.self_s": "s",
    "simgpu.exact_power.calls": "count",
    "powermodel.predict_power.calls": "count",
    "harness.run.self_s": "s",
    # Simulated outcomes, exact for a seed
    "powermodel.prediction_mae_w": "W",
    "governor.selection_count": "count",
    "governor.refit_count": "count",
    "governor.fit_count": "count",
    "governor.infeasible_count": "count",
    "simgpu.probe_frames": "count",
    # Tracing itself
    "trace.overhead_frac": "ratio",
}


def _require_program() -> None:
    needed = ["src/rendergov/__init__.py"] + [
        f"scenarios/{name}.json" for name in ("demo", "mini", "regime_change")
    ]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: program files missing under {ROOT}: {missing}", file=sys.stderr)
        sys.exit(2)


_require_program()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rendergov import configspace, governor, harness, powermodel, quality, simgpu  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be read."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def instrument(tracer: spans.Tracer) -> list:
    """Replace each layer's public functions with span or count wrappers."""
    timed = [
        (harness, "initialize", "harness.initialize"),
        (harness, "replay_trace", "harness.replay_trace"),
        (simgpu, "render_frame", "simgpu.render_frame"),
        (quality, "ssim", "quality.ssim"),
        (powermodel, "predict_all", "powermodel.predict_all"),
        (configspace, "enumerate_configurations", "configspace.enumerate_configurations"),
        (governor, "select_configuration", "governor.select"),
        (governor, "select_configuration_error_budget", "governor.select"),
        (simgpu, "probe_min_power", "simgpu.probe"),
        (simgpu, "probe_saturation", "simgpu.probe"),
        (quality, "calibrate_ratios", "quality.calibrate_ratios"),
        (powermodel, "fit_coefficients", "powermodel.fit_coefficients"),
        (powermodel, "solve_unit_costs", "powermodel.solve_unit_costs"),
        (simgpu, "measure_power", "simgpu.measure_power"),
    ]
    # Count only: the first four run tens of thousands of times per selection
    # on lattice-select, where timing them would dominate the run, and
    # accuracy_check needs no more than a count.
    counted = [
        (powermodel, "coefficients_for_config", "powermodel.coefficients_for_config"),
        (quality, "estimate_error", "quality.estimate_error"),
        (simgpu, "exact_power", "simgpu.exact_power"),
        (powermodel, "predict_power", "powermodel.predict_power"),
        (governor, "accuracy_check", "governor.accuracy_check"),
    ]
    undo = []
    for module, attr, name in timed:
        undo += spans.replace_function(module, attr, tracer.timed(name))
    for module, attr, name in counted:
        undo += spans.replace_function(module, attr, tracer.counted(name))
    undo += spans.replace_method(governor.Governor, "tick", tracer.timed("governor.tick"))
    undo += spans.replace_method(
        simgpu.SceneTrace, "primitives_for", tracer.counted("simgpu.primitives_for")
    )
    undo += spans.replace_method(
        configspace.PassRoster, "validate_config", tracer.counted("configspace.validate_config")
    )
    return undo


def tick_timer(ticks: list):
    """One perf_counter pair around Governor.tick; records (seconds,
    selection flag, frame budget in seconds)."""

    def make(fn):
        def wrapper(self, frame):
            start = perf_counter()
            result = fn(self, frame)
            ticks.append((perf_counter() - start, result.record.selection, 1.0 / self.config.fps))
            return result

        return wrapper

    return make


def _fresh_process_state() -> None:
    # A fresh ``rendergov run`` starts with an empty pattern cache.
    simgpu._base_pattern.cache_clear()
    gc.collect()


def setup_times(jobs: list[workloads.Job], speed: spans.SpeedProbe) -> list[tuple[float, float]]:
    """(seconds, speed-normalized seconds) per stand-alone set-up of every
    scenario a sample uses."""
    times = []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        total = 0.0
        for job in jobs:
            _fresh_process_state()
            start = perf_counter()
            harness.initialize(job.build())
            total += perf_counter() - start
        times.append(speed.normalize(mark, total))
    return times


class Sample:
    def __init__(self) -> None:
        self.wall_s = 0.0  # host seconds in program calls, speed-probe chunks excluded
        self.norm_s = 0.0  # wall_s normalized by the speed probe (untraced samples)
        self.attempted = 0
        self.failed = 0
        self.ticks: list[tuple[float, bool, float]] = []
        self.oracle_us: list[float] = []
        # Per governed run: its summary and what the metrics need from its
        # log. Logs are not kept, so memory and GC work do not grow with the
        # number of samples.
        self.runs: list[dict] = []
        self.pattern_hits = 0


def run_sample(jobs, golden: dict, seen: dict, speed: spans.SpeedProbe,
               tracer: spans.Tracer | None = None) -> Sample:
    """Run one sample's jobs, timing them and checking every output.

    Untraced samples carry the tick timer and the speed probe; traced ones
    carry the tracer only, so probe chunks never land in a span.
    """
    sample = Sample()
    if tracer:
        undo = instrument(tracer)
        span = tracer.span
    else:
        undo = spans.replace_method(governor.Governor, "tick", tick_timer(sample.ticks))
        # Only the harness's own binding: ground-truth SSIMs in run and
        # oracle_table, never inside a tick, so no chunk lands in a tick time.
        undo.append((harness, "quality_error", harness.quality_error))
        harness.quality_error = speed.hook(harness.quality_error)
        span = lambda name: nullcontext()  # noqa: E731
    mark = speed.mark()
    try:
        for job in jobs:
            sample.attempted += 1
            _fresh_process_state()
            out_dir = OUT_DIR / "logs" / job.label.replace("/", "_")
            try:
                start = perf_counter()
                with span("scenario.load"):
                    scenario = job.build()
                if job.kind == "run":
                    with span("harness.run"):
                        result = harness.run(scenario, out_dir)
                    sample.wall_s += perf_counter() - start
                    rows = checks.read_log(result.log_path)
                    problems = checks.check_run(scenario, result.summary, rows)
                    digest = checks.run_digest(result.summary, rows)
                    sample.runs.append({
                        "summary": result.summary,
                        "configs": scenario.roster.config_count,
                        "frames": len(rows),
                        "over_budget": sum(
                            float(r["measured_w"]) > float(r["budget_watts"]) for r in rows
                        ),
                        "abs_error_w": sum(
                            abs(float(r["predicted_w"]) - float(r["measured_w"])) for r in rows
                        ),
                    })
                else:
                    with span("harness.oracle_table"):
                        spent = speed.spent
                        call = perf_counter()
                        table = harness.oracle_table(scenario, job.frame)
                        done = perf_counter()
                    sample.wall_s += done - start
                    call_s = done - call - (speed.spent - spent)
                    sample.oracle_us.append(call_s * 1e6 / scenario.roster.config_count)
                    problems = checks.check_oracle(scenario, table)
                    digest = checks.oracle_digest(table)
                sample.pattern_hits += simgpu._base_pattern.cache_info().hits
            except Exception:
                traceback.print_exc()
                sample.failed += 1
                continue
            if job.label in golden:
                problems += checks.compare_digest(digest, golden[job.label])
            # Every repeat of a job, traced or not, must give the same output.
            if seen.setdefault(job.label, digest) != digest:
                problems.append("output differs from an earlier sample of the same job")
            if problems:
                sample.failed += 1
                for problem in problems:
                    print(f"check failed [{job.label}]: {problem}", file=sys.stderr)
    finally:
        spans.restore(undo)
    if not tracer:
        sample.wall_s, sample.norm_s = speed.normalize(mark, sample.wall_s)
    return sample


def layer_metrics(tracer: spans.Tracer, sample_id: int, sample: Sample) -> dict[str, float]:
    totals = spans.layer_totals(tracer.spans, sample_id)
    counts = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def seconds(name, kind="self_s"):
        return totals.get(name, {}).get(kind, 0.0)

    def mean_ms(name):
        return 1000.0 * seconds(name, "total_s") / calls(name) if calls(name) else 0.0

    truth = sum(
        s[spans.END] - s[spans.START]
        for s in tracer.spans
        if s[spans.SAMPLE] == sample_id
        and s[spans.NAME] in ("simgpu.render_frame", "quality.ssim")
        and s[spans.PARENT] >= 0
        and tracer.spans[s[spans.PARENT]][spans.NAME] in TRUTH_PARENTS
    )
    configs_predicted = sum(r["summary"]["selection_count"] * r["configs"] for r in sample.runs)
    frames = sum(r["frames"] for r in sample.runs)
    summed = {
        key: sum(r["summary"][key] for r in sample.runs)
        for key in ("selection_count", "refit_count", "fit_count", "infeasible_count",
                    "probe_frames_used")
    }
    return {
        "simgpu.render_frame.calls": calls("simgpu.render_frame"),
        "simgpu.render_frame.self_s": seconds("simgpu.render_frame"),
        "simgpu.base_pattern.hit_ratio": (
            sample.pattern_hits / calls("simgpu.render_frame")
            if calls("simgpu.render_frame") else 0.0
        ),
        "quality.ssim.calls": calls("quality.ssim"),
        "quality.ssim.self_s": seconds("quality.ssim"),
        "quality.ssim.mean_ms": mean_ms("quality.ssim"),
        "harness.truth.self_s": truth,
        "harness.truth_share": truth / sample.wall_s if sample.wall_s else 0.0,
        "harness.replay_trace.total_s": seconds("harness.replay_trace", "total_s"),
        "harness.oracle_table.total_s": seconds("harness.oracle_table", "total_s"),
        "powermodel.predict_all.calls": calls("powermodel.predict_all"),
        "powermodel.predict_all.mean_ms": mean_ms("powermodel.predict_all"),
        "powermodel.predict_all.us_per_config": (
            1e6 * seconds("powermodel.predict_all", "total_s") / configs_predicted
            if configs_predicted else 0.0
        ),
        "powermodel.coefficients_for_config.calls": counts.get(
            "powermodel.coefficients_for_config", 0
        ),
        "simgpu.primitives_for.calls": counts.get("simgpu.primitives_for", 0),
        "configspace.validate_config.calls": counts.get("configspace.validate_config", 0),
        "configspace.enumerate_configurations.calls": calls(
            "configspace.enumerate_configurations"
        ),
        "configspace.enumerate_configurations.self_s": seconds(
            "configspace.enumerate_configurations"
        ),
        "quality.estimate_error.calls": counts.get("quality.estimate_error", 0),
        "governor.select.calls": calls("governor.select"),
        "governor.select.mean_ms": mean_ms("governor.select"),
        "scenario.load.self_s": seconds("scenario.load"),
        "simgpu.probe.self_s": seconds("simgpu.probe"),
        "quality.calibrate_ratios.total_s": seconds("quality.calibrate_ratios", "total_s"),
        "powermodel.fit_coefficients.calls": calls("powermodel.fit_coefficients"),
        "powermodel.fit_coefficients.mean_ms": mean_ms("powermodel.fit_coefficients"),
        "powermodel.solve_unit_costs.calls": calls("powermodel.solve_unit_costs"),
        "powermodel.solve_unit_costs.mean_ms": mean_ms("powermodel.solve_unit_costs"),
        "governor.accuracy_check.calls": counts.get("governor.accuracy_check", 0),
        "governor.tick.self_s": seconds("governor.tick"),
        "simgpu.measure_power.calls": calls("simgpu.measure_power"),
        "simgpu.measure_power.self_s": seconds("simgpu.measure_power"),
        "simgpu.exact_power.calls": counts.get("simgpu.exact_power", 0),
        "powermodel.predict_power.calls": counts.get("powermodel.predict_power", 0),
        "harness.run.self_s": seconds("harness.run"),
        "powermodel.prediction_mae_w": (
            sum(r["abs_error_w"] for r in sample.runs) / frames if frames else 0.0
        ),
        "governor.selection_count": summed["selection_count"],
        "governor.refit_count": summed["refit_count"],
        "governor.fit_count": summed["fit_count"],
        "governor.infeasible_count": summed["infeasible_count"],
        "simgpu.probe_frames": summed["probe_frames_used"],
    }


def outcome_metrics(sample: Sample) -> dict[str, float]:
    """Simulated outcomes of one sample's governed runs, averaged over its runs."""
    if not sample.runs:
        return {}
    return {
        "governed_mean_error": statistics.fmean(
            r["summary"]["governed_mean_error"] for r in sample.runs
        ),
        "budget_overshoot_frac": statistics.fmean(
            r["over_budget"] / r["frames"] for r in sample.runs
        ),
        "power_saving_frac": statistics.fmean(
            1.0 - r["summary"]["governed_mean_power"] / r["summary"]["replay_best_mean_power"]
            for r in sample.runs
        ),
    }


def tick_metrics(samples: list[Sample]) -> dict[str, object]:
    """Tick latency: per-sample percentiles, then the median over samples."""
    with_ticks = [s for s in samples if s.ticks]
    if not with_ticks:
        return {}
    out: dict[str, object] = {"ticks": sum(len(s.ticks) for s in with_ticks)}
    out["tick_p50_ms"] = statistics.median(
        1000 * statistics.median(t for t, _, _ in s.ticks) for s in with_ticks
    )
    try:
        out["tick_p99_ms"] = statistics.median(
            1000 * spans.percentile([t for t, _, _ in s.ticks], 99) for s in with_ticks
        )
    except ValueError as exc:
        out["tick_p99_ms"] = f"n/a ({exc})"
    selections = [(t, budget) for s in with_ticks for t, sel, budget in s.ticks if sel]
    if selections:
        out["select_tick_ms"] = 1000 * statistics.median(t for t, _ in selections)
        out["select_tick_frames"] = statistics.median(t / b for t, b in selections)
        out["selection_ticks"] = len(selections)
    out["frame_budget_ms"] = 1000 * with_ticks[0].ticks[0][2]
    out["max_tick_ms"] = 1000 * max(t for s in with_ticks for t, _, _ in s.ticks)
    out["max_tick_frames"] = max(t / b for s in with_ticks for t, _, b in s.ticks)
    return out


def show(workload: str, name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{workload:<15} {name:<44} {text:>14} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)

    env = environment()
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    jobs_for = workloads.jobs_for(args.workload, args.seed)
    speed = spans.SpeedProbe()
    setups = setup_times(jobs_for(0), speed)

    golden = checks.load_golden()
    seen: dict = {}
    tracer = spans.Tracer() if args.trace else None
    untraced: list[Sample] = []
    traced: list[tuple[Sample, Sample, dict]] = []  # (untraced twin, traced, layer metrics)
    deadline = perf_counter() + args.seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        # With --trace 1 every sample runs twice, untraced then traced, so the
        # tracing overhead compares the same work.
        untraced.append(run_sample(jobs_for(k), golden, seen, speed))
        if args.trace:
            tracer.sample = k
            tracer.counts = {}
            sample = run_sample(jobs_for(k), golden, seen, speed, tracer)
            traced.append((untraced[-1], sample, layer_metrics(tracer, k, sample)))
        k += 1

    every = untraced + [s for _, s, _ in traced]
    attempted = sum(s.attempted for s in every)
    failed = sum(s.failed for s in every)
    ok = [s for s in untraced if not s.failed]
    pairs = [(twin, s, m) for twin, s, m in traced if not (s.failed or twin.failed)]
    if not ok or (args.trace and not pairs):
        print("benchmark: no sample completed without a failure", file=sys.stderr)
        return 1
    wl = args.workload
    e2e = {
        "setup_s": statistics.median(n for _, n in setups),
        "wall_s": statistics.median(s.norm_s for s in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    show(wl, "setup_s", e2e["setup_s"], "s",
         f"host, speed-normalized, median of {len(setups)} set-ups; "
         f"raw {statistics.median(t for t, _ in setups):.6g} s")
    show(wl, "wall_s", e2e["wall_s"], "s",
         f"host, speed-normalized, median of {len(ok)} untraced samples; "
         f"raw {statistics.median(s.wall_s for s in ok):.6g} s")
    print("  per sample, raw: " + " ".join(f"{s.wall_s:.4f}" for s in ok))
    print("  per sample, normalized: " + " ".join(f"{s.norm_s:.4f}" for s in ok))
    print("  speed probe: median chunk {:.3f} ms, range {:.3f}-{:.3f} ms over {} chunks".format(
        *(1000 * f(speed.durations) for f in (statistics.median, min, max)),
        len(speed.durations)))
    show(wl, "peak_rss_mb", e2e["peak_rss_mb"], "MB", "host, whole process")
    show(wl, "failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    ticks = tick_metrics(ok)
    for name in ("tick_p50_ms", "tick_p99_ms"):
        if name in ticks:
            show(wl, name, ticks[name], "ms", f"host, per-sample percentile of {ticks['ticks']} ticks")
    if "select_tick_ms" in ticks:
        show(wl, "select_tick_ms", ticks["select_tick_ms"], "ms",
             f"host, median of {ticks['selection_ticks']} selection ticks; "
             f"frame budget {ticks['frame_budget_ms']:.1f} ms")
    if ok[0].oracle_us:
        show(wl, "oracle_config_us", statistics.median(x for s in ok for x in s.oracle_us),
             "us", "host, median over oracle_table calls")
    runs_of_first = ", ".join(f"{r['summary']['scenario']}@{r['summary']['seed']}" for r in ok[0].runs)
    for name, value in outcome_metrics(ok[0]).items():
        show(wl, name, value, "ratio", f"simulated, exact for {runs_of_first}")

    if args.trace:
        # The lower median keeps counts whole when two samples are traced.
        layer = {
            name: statistics.median_low(m[name] for _, _, m in pairs)
            for name in PER_LAYER if name != "trace.overhead_frac"
        }
        layer["trace.overhead_frac"] = statistics.median(
            s.wall_s / twin.wall_s - 1.0 for twin, s, _ in pairs
        )
        for name, unit in PER_LAYER.items():
            show(wl, name, layer[name], unit, "traced")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.write(OUT_DIR / f"spans-{wl}-seed{args.seed}.jsonl")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print("modeled vs measured (derived, not gated):")
    if "select_tick_ms" in ticks:
        print(f"  selection tick {ticks['select_tick_ms']:.3f} ms = "
              f"{ticks['select_tick_frames']:.3f} frame budgets of {ticks['frame_budget_ms']:.1f} ms")
    if ticks:
        print(f"  max tick {ticks['max_tick_ms']:.3f} ms = {ticks['max_tick_frames']:.3f} frame budgets")
    if args.trace:
        gov = jobs_for(0)[0].build().governor
        for label, layer_name, modeled in (
            ("fit", "powermodel.fit_coefficients", gov.fit_latency),
            ("reuse", "powermodel.solve_unit_costs", gov.reuse_latency),
            ("SSIM", "quality.ssim", gov.ssim_latency),
        ):
            measured = (
                f"{layer[layer_name + '.mean_ms']:.4f} ms"
                if layer[layer_name + ".calls"] else "not called"
            )
            print(f"  {label}: measured {measured}, modeled {1000 * modeled:.1f} ms")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
