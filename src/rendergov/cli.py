"""Command-line front end.

Subcommands: ``run`` (governed simulation), ``replay`` (pinned configuration),
``oracle`` (exhaustive ground-truth table for one frame), ``probe``
(initialization probing only). Exit codes: 0 success, 2 scenario error,
3 probe failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .configspace import RenderingConfiguration
from .harness import (
    _probe,
    replay,
    run,
    write_oracle_table,
    write_reveal,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simgpu import ProbeError

OUT_DIR_ENV = "RENDERGOV_OUT_DIR"

EXIT_OK = 0
EXIT_SCENARIO_ERROR = 2
EXIT_PROBE_FAILURE = 3


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {}
    if getattr(args, "budget_percent", None) is not None:
        changes["budget_percent"] = args.budget_percent
    if getattr(args, "mode", None) is not None:
        changes["mode"] = args.mode
    if changes:
        gov = dataclasses.replace(scenario.governor, **changes)
        scenario = dataclasses.replace(scenario, governor=gov)
    if args.seed is not None:
        oracle = dataclasses.replace(scenario.oracle, seed=args.seed)
        synth = dataclasses.replace(scenario.synthesizer, seed=args.seed)
        scenario = dataclasses.replace(
            scenario, seed=args.seed, oracle=oracle, synthesizer=synth
        )
    return scenario


def _parse_config(text: str, scenario: Scenario) -> RenderingConfiguration:
    if text == "best":
        return scenario.roster.best_config()
    if text == "worst":
        return scenario.roster.worst_config()
    try:
        levels = tuple(int(v) for v in text.replace("-", ",").split(","))
    except ValueError as exc:
        raise ScenarioError(f"cannot parse configuration {text!r}") from exc
    config = RenderingConfiguration(levels)
    scenario.roster.validate_config(config)
    return config


def _print_summary(summary: dict) -> None:
    for key, value in summary.items():
        print(f"{key} = {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rendergov",
        description="Power-aware rendering governor against a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument(
            "--out-dir",
            default=os.environ.get(OUT_DIR_ENV, "out"),
            help=f"artifact directory (default: ${OUT_DIR_ENV} or ./out)",
        )

    p_run = sub.add_parser("run", help="initialization plus the governed frame loop")
    common(p_run)
    p_run.add_argument("--budget-percent", type=float, default=None)
    p_run.add_argument("--mode", choices=("power", "error"), default=None)
    p_run.add_argument(
        "--reveal-oracle",
        action="store_true",
        help="also dump hidden oracle parameters (for oracle-equivalence tests)",
    )

    p_replay = sub.add_parser("replay", help="run the trace with a pinned configuration")
    common(p_replay)
    p_replay.add_argument(
        "--config",
        required=True,
        help="'best', 'worst', or comma/dash-separated levels, e.g. 0,2,1,1,2,2",
    )

    p_oracle = sub.add_parser("oracle", help="exhaustive ground-truth table for one frame")
    common(p_oracle)
    p_oracle.add_argument("--frame", type=int, default=0)
    p_oracle.add_argument("--reveal-oracle", action="store_true")

    p_probe = sub.add_parser("probe", help="run initialization probing and report constants")
    common(p_probe)

    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        scenario = _apply_overrides(scenario, args)

        if args.command == "run":
            result = run(scenario, args.out_dir)
            if args.reveal_oracle:
                write_reveal(scenario, args.out_dir)
            _print_summary(result.summary)
            print(f"log: {result.log_path}")
        elif args.command == "replay":
            config = _parse_config(args.config, scenario)
            result = replay(scenario, config, args.out_dir)
            _print_summary(result.summary)
            print(f"log: {result.log_path}")
        elif args.command == "oracle":
            path = write_oracle_table(scenario, args.frame, args.out_dir)
            if args.reveal_oracle:
                write_reveal(scenario, args.out_dir)
            print(f"oracle table: {path}")
        elif args.command == "probe":
            # Probing only: the command reports no error ratios.
            init = _probe(scenario)
            print(f"p_min = {init.probe.saturation.p_min}")
            print(f"p_max = {init.probe.saturation.p_max}")
            print(f"probe_frames_used = {init.probe_frames_used}")
            names = [
                scenario.roster.passes[i].name for i in scenario.roster.model_pass_indices
            ]
            for i, name in enumerate(names):
                consts = init.probe.saturation.per_pass[i]
                flags = init.probe.flags[i]
                print(f"{name}: B={consts[0]} V={consts[1]} F={consts[2]} flags={flags}")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    except ProbeError as exc:
        print(f"probe failure: {exc}", file=sys.stderr)
        return EXIT_PROBE_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
