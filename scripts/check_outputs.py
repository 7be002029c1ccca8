#!/usr/bin/env python3
"""Write the deterministic outputs of every bundled scenario and, optionally,
compare them byte for byte with an earlier set.

For each ``scenarios/*.json`` it writes ``OUT_DIR/<name>/run_log.csv`` and
``summary.txt`` from a governed run at the scenario's default seed (or at
``--seed``), plus demo's ``oracle_frame200.csv``, mini's
``oracle_frame120.csv`` (a second frame geometry: 64 px, with a 2-level
resolution pass), ``demo_lattice/`` (demo grown to 8 passes, 6,561
configurations, by :func:`lattice_scenario`, which the tests' fixture of
that name calls too: its ``oracle_frame600.csv``
and the ``run_log.csv`` and ``summary.txt`` of a governed run, whose
background cycle has 9 slots) and the
logs and summaries of ``replay``s of demo's worst and best configurations,
``demo_error/``: a demo run
in error mode, which selects by the dual objective, and ``mini_cut/``: a mini
run and a replay of mini's worst configuration whose trace is cut to 203
frames, not a whole number of the 16-frame chunks ``run`` and ``replay``
score their ground truth in. ``--seed`` takes one or more seeds, each an
integer or ``default`` (the scenarios' own seeds); with more than one, each
seed's outputs go to ``OUT_DIR/seed_<seed>/``. With
``--against REF_DIR`` it then compares every file present on either side,
subdirectories included, and exits 1, naming each differing file with how
many of its cells differ, whether any of those is not a number, the worst
relative difference among the numeric ones, and its first differing line;
0 means every byte matched. Outputs are byte-identical only within one
numpy/scipy build.

Usage:
    python scripts/check_outputs.py OUT_DIR [--against REF_DIR] [--seed SEED ...]

A typical check of a change: run it on the parent checkout into REF_DIR,
then on the change with ``--against REF_DIR`` and the same seeds, e.g.
``--seed default 1 6 11``.
"""

import argparse
import dataclasses
import itertools
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rendergov.cli import _apply_overrides  # noqa: E402
from rendergov.harness import replay, run, write_oracle_table  # noqa: E402
from rendergov.scenario import load_scenario, scenario_from_dict  # noqa: E402

# The scenario whose best- and worst-configuration replays are written, and
# which is also run in error mode.
REPLAY_SCENARIO = "demo"
# The scenarios whose oracle table is written, each at one frame.
ORACLE_FRAMES = {"demo": 200, "mini": 120}
# The scenario also run, and replayed at its worst configuration, with its
# trace cut short, to a frame count that is not a multiple of the scoring
# chunk.
CUT_SCENARIO = "mini"
CUT_FRAMES = 203
# Demo grown to 8 passes (3**8 configurations) by cloning these passes, which
# is run, and whose oracle table is written at one frame: the largest lattice
# the oracle's bulk scoring broadcasts over, and the longest background cycle.
LATTICE_CLONES = ("shadows", "metals")
LATTICE_FRAME = 600


def lattice_scenario(seed: int | None):
    doc = json.loads((ROOT / "scenarios" / "demo.json").read_text())
    roster = []
    for entry in doc["roster"]:
        roster.append(entry)
        if entry["name"] in LATTICE_CLONES:
            roster.append({**entry, "name": entry["name"] + "_2"})
    doc["roster"] = roster
    for section in (
        doc["cost_table"],
        doc["oracle"]["passes"],
        doc["trace"]["passes"],
        doc["synthesizer"]["passes"],
    ):
        for name in LATTICE_CLONES:
            section[name + "_2"] = section[name]
    return _apply_overrides(scenario_from_dict(doc), argparse.Namespace(seed=seed))


def write_outputs(out_dir: Path, seed: int | None) -> None:
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scenario = _apply_overrides(load_scenario(path), argparse.Namespace(seed=seed))
        target = out_dir / path.stem
        run(scenario, target)
        if path.stem in ORACLE_FRAMES:
            write_oracle_table(scenario, ORACLE_FRAMES[path.stem], target)
        if path.stem == REPLAY_SCENARIO:
            replay(scenario, scenario.roster.worst_config(), target)
            replay(scenario, scenario.roster.best_config(), target)
            errors = _apply_overrides(scenario, argparse.Namespace(seed=None, mode="error"))
            run(errors, out_dir / f"{path.stem}_error")
        if path.stem == CUT_SCENARIO:
            trace = dataclasses.replace(scenario.trace, frame_count=CUT_FRAMES)
            cut = dataclasses.replace(scenario, trace=trace)
            run(cut, out_dir / f"{path.stem}_cut")
            replay(cut, cut.roster.worst_config(), out_dir / f"{path.stem}_cut")
    lattice = lattice_scenario(seed)
    run(lattice, out_dir / "demo_lattice")
    write_oracle_table(lattice, LATTICE_FRAME, out_dir / "demo_lattice")


def seed_dirs(out_dir: Path, seeds: list[int | None]) -> list[Path]:
    """Where each seed's outputs go: ``out_dir`` itself for a single seed,
    else ``out_dir/seed_<seed>``, ``seed_default`` for the scenarios' own."""
    if len(seeds) == 1:
        return [out_dir]
    return [out_dir / f"seed_{'default' if seed is None else seed}" for seed in seeds]


def parse_seed(text: str) -> int | None:
    return None if text == "default" else int(text)


def first_difference(a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(a_lines, b_lines), 1):
        if x != y:
            return f"line {n}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    if len(a_lines) != len(b_lines):
        return f"line {min(len(a_lines), len(b_lines)) + 1}: {len(a_lines)} lines != {len(b_lines)}"
    return "line endings differ"


def cell_differences(a: bytes, b: bytes) -> str:
    """How many cells differ between two versions of a file, whether any of
    them is not a number, and the worst relative difference among the rest.

    Cells are split at commas and whitespace, line by line; a cell or line
    present on one side only counts as a differing cell that is not a number.
    """
    count, worst, not_numbers = 0, 0.0, False
    lines = [data.decode(errors="replace").splitlines() for data in (a, b)]
    for x_line, y_line in itertools.zip_longest(*lines, fillvalue=""):
        cells = itertools.zip_longest(re.split(r",|\s+", x_line), re.split(r",|\s+", y_line))
        for x, y in cells:
            if x == y:
                continue
            count += 1
            try:
                u, v = float(x), float(y)
            except (TypeError, ValueError):
                u = v = math.nan
            if not (math.isfinite(u) and math.isfinite(v)):
                not_numbers = True
            elif u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    kind = "some not numbers" if not_numbers else "all numbers"
    return f"{count} cells differ ({kind}), worst relative difference {worst:.2g}"


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
            problems.append(f"{name}: {cell_differences(a, b)}; {first_difference(a, b)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, default=None, help="reference output directory")
    parser.add_argument(
        "--seed",
        type=parse_seed,
        nargs="+",
        default=[None],
        help="seeds to run every scenario at: integers, or 'default' for the scenarios' own",
    )
    args = parser.parse_args()

    if args.against is not None and not args.against.is_dir():
        print(f"no reference directory {args.against}", file=sys.stderr)
        return 2
    for out, seed in zip(seed_dirs(args.out_dir, args.seed), args.seed):
        write_outputs(out, seed)
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
