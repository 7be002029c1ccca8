import json
from pathlib import Path

import numpy as np

from rendergov.configspace import enumerate_configurations
from rendergov.harness import _true_errors
from rendergov.scenario import scenario_from_dict
from rendergov.truth import PAIRWISE_BLOCK, lattice_errors, pairwise_sum

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_pairwise_model_equals_each_maps_own_mean():
    """lattice_errors averages a map as numpy's pairwise summation does:
    each summation block gathered and reduced along rows, then the blocks'
    sums added in pairwise_sum's order. Scores change bits wherever numpy
    sums a map differently."""
    rng = np.random.default_rng(14)
    # The map shapes of 128, 64 and 40 px frames, and a non-square one.
    for shape in ((118, 118), (54, 54), (30, 30), (37, 91)):
        maps = rng.uniform(-1.0, 1.0, size=(12, *shape))
        maps[:, : shape[0] // 3] = 1.0
        maps[:, rng.random(shape[0]) < 0.2] = 1.0
        n = shape[0] * shape[1]
        blocks = pairwise_sum(lambda lo, hi: [(lo, hi)], 0, n)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        assert max(hi - lo for lo, hi in blocks) <= PAIRWISE_BLOCK
        flat = maps.ravel()
        sums = {
            lo: np.add.reduce(flat[np.arange(len(maps))[:, None] * n + np.arange(lo, hi)], axis=1)
            for lo, hi in blocks
        }
        means = pairwise_sum(lambda lo, hi: sums[lo], 0, n) / n
        assert means.tolist() == [float(m.mean()) for m in maps], shape


def test_lattice_errors_equal_true_errors_of_every_config(lattice_scenario):
    doc = json.loads((SCENARIO_DIR / "demo.json").read_text())
    doc["roster"] = [p for p in doc["roster"] if not p.get("resolution")]
    del doc["synthesizer"]["passes"]["resolution"]
    doc["synthesizer"]["size"] = 72
    no_resolution = scenario_from_dict(doc)
    assert no_resolution.roster.resolution_index is None
    # lattice_scenario is demo grown to 8 passes (6561 configurations).
    for sc, frame in ((lattice_scenario, 600), (no_resolution, 77)):
        configs = enumerate_configurations(sc.roster)
        want = []
        # _true_errors gathers every candidate's map at once.
        for start in range(0, len(configs), 81):
            want += _true_errors(sc, frame, configs[start : start + 81])
        got = lattice_errors(sc, frame)
        assert got.shape == (len(configs),)
        assert got.tolist() == want, sc.name
