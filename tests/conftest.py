import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from rendergov.quality import quality_error
from rendergov.scenario import load_scenario, scenario_from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CHECK_OUTPUTS = SCENARIO_DIR.parent / "scripts" / "check_outputs.py"


@pytest.fixture(scope="session")
def demo_scenario():
    return load_scenario(SCENARIO_DIR / "demo.json")


@pytest.fixture(scope="session")
def demo_40px_scenario():
    doc = json.loads((SCENARIO_DIR / "demo.json").read_text())
    doc["synthesizer"]["size"] = 40
    return scenario_from_dict(doc)


@pytest.fixture(scope="session")
def lattice_scenario():
    """demo.json grown to 8 passes (3**8 configurations) by cloning two
    passes, as ``scripts/check_outputs.py`` builds it."""
    spec = importlib.util.spec_from_file_location("check_outputs", CHECK_OUTPUTS)
    check_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_outputs)
    return check_outputs.lattice_scenario(None)


@pytest.fixture(scope="session")
def mini_scenario():
    return load_scenario(SCENARIO_DIR / "mini.json")


@pytest.fixture(scope="session")
def regime_scenario():
    return load_scenario(SCENARIO_DIR / "regime_change.json")


def _full_frame_scorer(render, roster):
    """A ``scorer(frame)`` hook that scores each configuration as
    ``quality_error`` of two full-frame ``render(config, frame)`` calls."""

    def scorer(frame):
        reference = render(roster.best_config(), frame)
        return lambda configs: [quality_error(reference, render(c, frame)) for c in configs]

    return scorer


def _naive_ssim(a: np.ndarray, b: np.ndarray, window=11, sigma=1.5, k1=0.01, k2=0.03, L=1.0):
    """Independent per-window SSIM reference: explicit patch loops, no filtering."""
    half = window // 2
    yy, xx = np.mgrid[-half : half + 1, -half : half + 1].astype(float)
    w = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    w /= w.sum()
    c1, c2 = (k1 * L) ** 2, (k2 * L) ** 2
    h, wd = a.shape
    vals = []
    for i in range(half, h - half):
        for j in range(half, wd - half):
            pa = a[i - half : i + half + 1, j - half : j + half + 1]
            pb = b[i - half : i + half + 1, j - half : j + half + 1]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            var_a = (w * pa * pa).sum() - mu_a * mu_a
            var_b = (w * pb * pb).sum() - mu_b * mu_b
            cov = (w * pa * pb).sum() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def naive_ssim():
    return _naive_ssim
