"""The benchmark's four workloads, as jobs built from the benchmark seed.

A job is one program operation: a governed ``harness.run`` or one
``harness.oracle_table`` call, plus the scenario build it needs. A workload
sample is a fixed list of jobs; see README.md for why each workload exists.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rendergov import scenario as scenario_mod

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

# Passes cloned into the demo document to grow 729 configurations to 3**8.
LATTICE_CLONES = ("shadows", "metals")
# Distinct derived seeds one invocation cycles through.
SEEDS_PER_RUN = 5
# The frames criterion 04 scores; oracle-table pairs one with each derived seed.
ORACLE_FRAMES = (100, 350, 600, 850, 1100)
# mini (240 frames) and regime_change (320) alternate; four runs give 1120 ticks.
SHORT_RUN_SCENARIOS = ("mini", "regime_change", "mini", "regime_change")


@dataclass(frozen=True)
class Job:
    kind: str  # "run" or "oracle"
    label: str  # unique within a sample; keys the recorded golden digests
    build: Callable[[], object]  # returns a Scenario
    frame: int | None = None


def with_seed(scenario, seed: int):
    """Apply a seed the way ``rendergov run --seed`` does: to the scenario,
    the hidden oracle and the frame synthesizer."""
    oracle = dataclasses.replace(scenario.oracle, seed=seed)
    synth = dataclasses.replace(scenario.synthesizer, seed=seed)
    return dataclasses.replace(scenario, seed=seed, oracle=oracle, synthesizer=synth)


def read_document(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def lattice_document(base: dict, seed: int) -> dict:
    """demo.json grown to 8 passes (6561 configurations) with selection every
    60 frames and sparse ground truth, so selection dominates host time.

    Pure: the result depends only on ``base`` and ``seed``; ``base`` is not
    modified.
    """
    doc = copy.deepcopy(base)
    doc["name"] = "lattice"
    doc["seed"] = seed
    roster = []
    for entry in doc["roster"]:
        roster.append(entry)
        if entry["name"] in LATTICE_CLONES:
            roster.append({**copy.deepcopy(entry), "name": entry["name"] + "_2"})
    doc["roster"] = roster
    for section in (
        doc["cost_table"],
        doc["oracle"]["passes"],
        doc["trace"]["passes"],
        doc["synthesizer"]["passes"],
    ):
        for name in LATTICE_CLONES:
            section[name + "_2"] = copy.deepcopy(section[name])
    doc["governor"]["selection_period"] = 60
    doc["error_sample_every"] = 50
    doc["trace"]["frames"] = 1200
    return doc


def _load(name: str, seed: int) -> Callable[[], object]:
    path = SCENARIO_DIR / f"{name}.json"
    return lambda: with_seed(scenario_mod.load_scenario(path), seed)


def jobs_for(workload: str, seed: int) -> Callable[[int], list[Job]]:
    """Map a workload name and the benchmark seed to ``sample_index -> jobs``.

    Sample k runs derived seed ``SEEDS_PER_RUN * seed + k % SEEDS_PER_RUN``.
    How much work a run does depends on its seed (a governor that settles on
    the all-best configuration skips most SSIMs), so one invocation spreads
    its samples over several seeds instead of repeating one.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")

    def jobs(k: int) -> list[Job]:
        derived = SEEDS_PER_RUN * seed + k % SEEDS_PER_RUN
        if workload == "demo-run":
            return [Job("run", f"demo@{derived}", _load("demo", derived))]
        if workload == "lattice-select":
            doc = lattice_document(read_document("demo"), derived)
            return [Job("run", f"lattice@{derived}", lambda: scenario_mod.scenario_from_dict(doc))]
        if workload == "short-runs":
            return [
                Job("run", f"{name}@{n}", _load(name, n))
                for n, name in enumerate(SHORT_RUN_SCENARIOS, len(SHORT_RUN_SCENARIOS) * derived)
            ]
        frame = ORACLE_FRAMES[k % len(ORACLE_FRAMES)]
        return [Job("oracle", f"oracle-demo@{derived}/{frame}", _load("demo", derived), frame)]

    return jobs


WORKLOADS = ("demo-run", "lattice-select", "short-runs", "oracle-table")
