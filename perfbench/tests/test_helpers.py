"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import checks
import run
import spans
import workloads
from rendergov import harness
from rendergov.scenario import load_scenario, scenario_from_dict


def test_lattice_document_is_a_pure_function_of_the_seed():
    base = workloads.read_document("demo")
    before = json.dumps(base, sort_keys=True)
    a = workloads.lattice_document(base, 7)
    assert json.dumps(base, sort_keys=True) == before
    assert a == workloads.lattice_document(base, 7)
    assert a != workloads.lattice_document(base, 8)
    scenario = scenario_from_dict(a)
    assert scenario.seed == 7
    assert scenario.roster.size == 8
    assert scenario.roster.config_count == 6561
    assert scenario.governor.selection_period == 60
    assert scenario.error_sample_every == 50


def test_percentile_requires_ten_values_beyond_it():
    assert spans.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        spans.percentile(list(range(999)), 99)
    assert spans.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        spans.percentile(list(range(19)), 50)


def test_self_time_subtracts_direct_children_only():
    # run [0, 10] > tick [1, 4] > ssim [2, 3]; run > render [5, 9]; another sample.
    tree = [
        ["run", 0.0, 10.0, -1, 0],
        ["tick", 1.0, 4.0, 0, 0],
        ["ssim", 2.0, 3.0, 1, 0],
        ["render", 5.0, 9.0, 0, 0],
        ["run", 20.0, 21.0, -1, 1],
    ]
    totals = spans.layer_totals(tree, 0)
    assert totals["run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert totals["tick"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert totals["ssim"]["self_s"] == 1.0
    assert totals["render"]["self_s"] == 4.0
    assert spans.layer_totals(tree, 1)["run"]["self_s"] == 1.0


def test_tracer_nests_spans_and_restores_every_binding():
    from rendergov import simgpu

    tracer = spans.Tracer()
    original = simgpu.render_frame
    undo = spans.replace_function(simgpu, "render_frame", tracer.timed("render"))
    assert harness.render_frame is simgpu.render_frame is not original
    spans.restore(undo)
    assert harness.render_frame is simgpu.render_frame is original

    inner = tracer.timed("inner")(lambda: None)
    with tracer.span("outer"):
        inner()
    assert [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans] == [
        ("outer", -1),
        ("inner", 0),
    ]


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    scenario = workloads.with_seed(load_scenario(workloads.SCENARIO_DIR / "mini.json"), 3)
    result = harness.run(scenario, tmp_path_factory.mktemp("mini"))
    return scenario, result.summary, checks.read_log(result.log_path)


def test_output_checks_pass_on_an_untouched_log(mini_run):
    scenario, summary, rows = mini_run
    assert checks.check_run(scenario, summary, rows) == []
    digest = checks.run_digest(summary, rows)
    assert checks.compare_digest(digest, json.loads(json.dumps(digest))) == []


def test_output_checks_reject_a_tampered_log(mini_run):
    scenario, summary, rows = mini_run
    tampered = [dict(r) for r in rows]
    tampered[10]["measured_w"] = repr(float(tampered[10]["measured_w"]) + 0.5)
    assert checks.check_run(scenario, summary, tampered)
    assert checks.compare_digest(
        checks.run_digest(summary, tampered), checks.run_digest(summary, rows)
    )
    off_lattice = [dict(r) for r in rows]
    off_lattice[3]["s_eff"] = "0-3-0"
    assert any("lattice" in p for p in checks.check_run(scenario, summary, off_lattice))
    relabelled = [dict(r) for r in rows]
    relabelled[5]["phase"] = "steady" if rows[5]["phase"] != "steady" else "check"
    assert checks.check_run(scenario, summary, relabelled) == []
    assert checks.compare_digest(
        checks.run_digest(summary, relabelled), checks.run_digest(summary, rows)
    ) == ["discrete columns differ from the recorded digest"]


def test_golden_covers_every_job_of_the_default_seed():
    golden = checks.load_golden()
    for workload in workloads.WORKLOADS:
        jobs_for = workloads.jobs_for(workload, run.DEFAULT_SEED)
        for k in range(workloads.SEEDS_PER_RUN * len(workloads.ORACLE_FRAMES)):
            assert all(job.label in golden for job in jobs_for(k))


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
