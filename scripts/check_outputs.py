#!/usr/bin/env python3
"""Write the deterministic outputs of every bundled scenario and, optionally,
compare them byte for byte with an earlier set.

For each ``scenarios/*.json`` it writes ``OUT_DIR/<name>/run_log.csv`` and
``summary.txt`` from a governed run at the scenario's default seed (or at
``--seed``), plus demo's ``oracle_frame200.csv`` and the logs and summaries of
``replay``s of its worst and best configurations, ``demo_error/``: a demo run
in error mode, which selects by the dual objective, and ``mini_cut/``: a mini
run whose trace is cut to 203 frames, not a whole number of the 16-frame
chunks ``run`` scores its baselines and ground truth in. With ``--against
REF_DIR`` it then compares every file present on either side and exits 1,
naming each differing file and its first differing line; 0 means every byte
matched. Outputs are byte-identical only within one numpy/scipy build.

Usage:
    python scripts/check_outputs.py OUT_DIR [--against REF_DIR] [--seed N]

A typical check of a change: run it on the parent checkout into REF_DIR,
then on the change with ``--against REF_DIR``.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rendergov.cli import _apply_overrides  # noqa: E402
from rendergov.harness import replay, run, write_oracle_table  # noqa: E402
from rendergov.scenario import load_scenario  # noqa: E402

# The scenario whose oracle table and best- and worst-configuration replays
# are written, and which is also run in error mode.
ORACLE_SCENARIO = "demo"
ORACLE_FRAME = 200
# The scenario also run with its trace cut short, to a frame count that is
# not a multiple of the scoring chunk.
CUT_SCENARIO = "mini"
CUT_FRAMES = 203


def write_outputs(out_dir: Path, seed: int | None) -> None:
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario = _apply_overrides(load_scenario(path), argparse.Namespace(seed=seed))
        target = out_dir / path.stem
        run(scenario, target)
        if path.stem == ORACLE_SCENARIO:
            write_oracle_table(scenario, ORACLE_FRAME, target)
            replay(scenario, scenario.roster.worst_config(), target)
            replay(scenario, scenario.roster.best_config(), target)
            errors = _apply_overrides(scenario, argparse.Namespace(seed=None, mode="error"))
            run(errors, out_dir / f"{path.stem}_error")
        if path.stem == CUT_SCENARIO:
            trace = dataclasses.replace(scenario.trace, frame_count=CUT_FRAMES)
            run(dataclasses.replace(scenario, trace=trace), out_dir / f"{path.stem}_cut")


def first_difference(a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(a_lines, b_lines), 1):
        if x != y:
            return f"line {n}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    if len(a_lines) != len(b_lines):
        return f"line {min(len(a_lines), len(b_lines)) + 1}: {len(a_lines)} lines != {len(b_lines)}"
    return "line endings differ"


def compare(out_dir: Path, ref_dir: Path) -> list[str]:
    """One message per file that is missing on a side or differs."""
    names = sorted(
        {p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file()}
        | {p.relative_to(ref_dir) for p in ref_dir.rglob("*") if p.is_file()}
    )
    problems = []
    for name in names:
        got, want = out_dir / name, ref_dir / name
        if not got.is_file() or not want.is_file():
            problems.append(f"{name}: only in {ref_dir if want.is_file() else out_dir}")
            continue
        a, b = got.read_bytes(), want.read_bytes()
        if a != b:
            problems.append(f"{name}: {first_difference(a, b)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, default=None, help="reference output directory")
    parser.add_argument("--seed", type=int, default=None, help="override every scenario's seed")
    args = parser.parse_args()

    if args.against is not None and not args.against.is_dir():
        print(f"no reference directory {args.against}", file=sys.stderr)
        return 2
    write_outputs(args.out_dir, args.seed)
    if args.against is None:
        return 0
    problems = compare(args.out_dir, args.against)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"identical: every file under {args.out_dir} matches {args.against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
