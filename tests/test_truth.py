import json
from pathlib import Path

import numpy as np

from rendergov.configspace import enumerate_configurations
from rendergov.harness import _true_errors
from rendergov.quality import map_mean, quality_error, row_sums
from rendergov.scenario import scenario_from_dict
from rendergov.simgpu import render_frame
from rendergov.truth import lattice_errors

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_pairwise_model_equals_each_maps_own_mean():
    """lattice_errors averages a map from row sums gathered out of a bank of
    distinct rows' sums, joined in map-row order; that must give each map's
    own mean, as quality.ssim takes it, or scores change bits. numpy's
    pairwise blocks of 128 elements play no part: the 140-wide maps have
    longer rows."""
    rng = np.random.default_rng(14)
    # The map shapes of 128, 64 and 40 px frames, a non-square one, and one
    # with rows longer than numpy's pairwise block.
    for shape in ((118, 118), (54, 54), (30, 30), (37, 91), (41, 140)):
        rows = rng.uniform(-1.0, 1.0, size=(3 * shape[0], shape[1]))
        rows[: shape[0] // 3] = 1.0
        bank = row_sums(rows)
        # Each map picks its rows from the bank, as a configuration picks its
        # segments' blocks.
        picks = rng.integers(0, len(rows), size=(12, shape[0]))
        maps = rows[picks]
        gathered = map_mean(bank[picks], maps[0].size).tolist()
        assert gathered == [float(map_mean(row_sums(m), m.size)) for m in maps], shape


def test_lattice_errors_equal_true_errors_of_every_config(lattice_scenario):
    doc = json.loads((SCENARIO_DIR / "demo.json").read_text())
    doc["roster"] = [p for p in doc["roster"] if not p.get("resolution")]
    del doc["synthesizer"]["passes"]["resolution"]
    doc["synthesizer"]["size"] = 72
    no_resolution = scenario_from_dict(doc)
    assert no_resolution.roster.resolution_index is None
    # Map rows of 140 elements: longer than the 128 that numpy's pairwise
    # summation adds in one block.
    doc["synthesizer"]["size"] = 150
    wide = scenario_from_dict(doc)
    # lattice_scenario is demo grown to 8 passes (6561 configurations).
    for sc, frame in ((lattice_scenario, 600), (no_resolution, 77), (wide, 77)):
        configs = enumerate_configurations(sc.roster)
        want = []
        # _true_errors scores up to 81 candidates with one FrameScorer.
        for start in range(0, len(configs), 81):
            want += _true_errors(sc, frame, configs[start : start + 81])
        got = lattice_errors(sc, frame)
        assert got.shape == (len(configs),)
        assert got.tolist() == want, sc.name
    # And the full-frame SSIM of a fixed sample of the wide frame's configurations.
    configs, got = enumerate_configurations(wide.roster), lattice_errors(wide, 77)
    reference = render_frame(wide.synthesizer, wide.roster.best_config(), 77)
    for index in range(0, len(configs), 11):
        candidate = render_frame(wide.synthesizer, configs[index], 77)
        assert quality_error(reference, candidate) == got[index], configs[index]
