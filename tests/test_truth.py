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


def test_row_by_row_fold_equals_each_maps_own_mean():
    """lattice_errors adds, one map row at a time, that row's sums gathered
    from a bank of distinct rows' sums through a table over the levels of
    the passes the row touches, broadcast over the lattice, and divides the
    total by the map's size. That must be each configuration's map_mean of
    its own row sums, as quality.ssim takes it, or scores change bits. The
    140-wide maps have rows longer than numpy's pairwise block."""
    rng = np.random.default_rng(14)
    counts = (3, 2, 4)
    grid = np.indices(counts, sparse=True)
    # The map shapes of 128, 64 and 40 px frames, a non-square one, and one
    # with rows longer than numpy's pairwise block.
    for shape in ((118, 118), (54, 54), (30, 30), (37, 91), (41, 140)):
        rows = rng.uniform(-1.0, 1.0, size=(3 * shape[0], shape[1]))
        rows[: shape[0] // 3] = 1.0
        bank = row_sums(rows)
        # Each map row's table spans the axes of one or two adjacent passes,
        # as a segment's rows do.
        tables = []
        for _ in range(shape[0]):
            q0 = int(rng.integers(0, len(counts)))
            q1 = min(q0 + int(rng.integers(1, 3)), len(counts))
            picks = rng.integers(0, len(rows), size=counts[q0:q1])
            tables.append(picks[grid[q0:q1]])
        total = np.zeros(counts)
        for table in tables:
            total += bank[table]
        got = (total / rows[: shape[0]].size).ravel().tolist()
        want = []
        for levels in np.ndindex(counts):
            m = rows[[np.broadcast_to(t, counts)[levels] for t in tables]]
            want.append(float(map_mean(row_sums(m), m.size)))
        assert got == want, shape


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
