import json
from pathlib import Path

import pytest

from rendergov import cli
from rendergov.cli import EXIT_OK, EXIT_PROBE_FAILURE, EXIT_SCENARIO_ERROR, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MINI = str(SCENARIO_DIR / "mini.json")


def test_run_subcommand(tmp_path, capsys):
    code = main(["run", "--scenario", MINI, "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "governed_mean_power" in out
    assert (tmp_path / "run_log.csv").exists()
    assert (tmp_path / "summary.txt").exists()


def test_run_with_overrides_and_reveal(tmp_path, capsys):
    code = main(
        [
            "run",
            "--scenario",
            MINI,
            "--out-dir",
            str(tmp_path),
            "--budget-percent",
            "0.9",
            "--mode",
            "power",
            "--reveal-oracle",
        ]
    )
    assert code == EXIT_OK
    assert (tmp_path / "oracle_reveal.json").exists()
    doc = json.loads((tmp_path / "oracle_reveal.json").read_text())
    assert "chi" in doc and "passes" in doc


def test_replay_subcommand(tmp_path, capsys):
    code = main(["replay", "--scenario", MINI, "--config", "worst", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "mean_power" in capsys.readouterr().out


def test_replay_explicit_levels(tmp_path):
    code = main(["replay", "--scenario", MINI, "--config", "0,1,0", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK


def test_replay_accepts_seed_override(tmp_path):
    code = main(
        ["replay", "--scenario", MINI, "--config", "worst", "--seed", "5",
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK


def test_oracle_subcommand(tmp_path, capsys):
    code = main(["oracle", "--scenario", MINI, "--frame", "2", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "oracle_frame2.csv").exists()


def test_probe_subcommand(tmp_path, capsys):
    code = main(["probe", "--scenario", MINI, "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "p_min" in out and "p_max" in out


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "none.json"), "--out-dir", str(tmp_path)])
    assert code == EXIT_SCENARIO_ERROR


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(Path(MINI).read_text())
    del doc["trace"]
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--out-dir", str(tmp_path)])
    assert code == EXIT_SCENARIO_ERROR


def test_bad_replay_config_exits_2(tmp_path, capsys):
    code = main(["replay", "--scenario", MINI, "--config", "9,9,9", "--out-dir", str(tmp_path)])
    assert code == EXIT_SCENARIO_ERROR


def test_oracle_frame_out_of_range_exits_2(tmp_path, capsys):
    code = main(["oracle", "--scenario", MINI, "--frame", "100000", "--out-dir", str(tmp_path)])
    assert code == EXIT_SCENARIO_ERROR


def test_probe_failure_exits_3(tmp_path, capsys):
    doc = json.loads(Path(MINI).read_text())
    doc["oracle"]["chi"] = 0.0
    doc["oracle"]["psi"] = 0.0
    for entry in doc["oracle"]["passes"].values():
        entry["k_b"] = 0.0
    dead = tmp_path / "dead.json"
    dead.write_text(json.dumps(doc))
    code = main(["probe", "--scenario", str(dead), "--out-dir", str(tmp_path)])
    assert code == EXIT_PROBE_FAILURE


def test_seed_override_changes_outputs(tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", "--scenario", MINI, "--out-dir", str(out1)]) == EXIT_OK
    assert main(["run", "--scenario", MINI, "--out-dir", str(out2), "--seed", "1234"]) == EXIT_OK
    assert main(["run", "--scenario", MINI, "--out-dir", str(out3), "--seed", "1234"]) == EXIT_OK
    a = (out1 / "run_log.csv").read_text()
    b = (out2 / "run_log.csv").read_text()
    c = (out3 / "run_log.csv").read_text()
    assert a != b
    assert b == c


@pytest.mark.parametrize("where", ["file", "flag"])
def test_negative_seed_exits_2_before_the_run(tmp_path, capsys, monkeypatch, where):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("run started"))
    args = ["run", "--scenario", MINI, "--out-dir", str(tmp_path)]
    if where == "file":
        doc = json.loads(Path(MINI).read_text())
        doc["seed"] = -3
        args[2] = str(tmp_path / "negative.json")
        Path(args[2]).write_text(json.dumps(doc))
        message = "seed: expected a non-negative integer, got -3"
    else:
        args += ["--seed", "-1"]
        message = "seed must be a non-negative integer, got -1"
    assert main(args) == EXIT_SCENARIO_ERROR
    assert message in capsys.readouterr().err
