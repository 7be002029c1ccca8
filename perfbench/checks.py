"""Output checks. A run or oracle table that fails one counts as a failed
operation.

Every seed gets the structural checks. For seeds with a digest in
``golden.json`` (the default seed), discrete log columns must also match
exactly and float columns at a relative tolerance of 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
RTOL = 1e-9

# Columns compared exactly; the ``stale_*`` columns are discrete too. Float
# columns are the rest of the ``harness`` schema at the time of recording;
# columns added later are ignored, so a new column does not break the digest.
DISCRETE_COLUMNS = (
    "frame", "phase", "s_eff", "selection", "refit", "reuse", "infeasible",
    "degenerate", "fit_clamped", "bg_request", "err_update_pass",
)
FLOAT_COLUMNS = (
    "budget_watts", "predicted_w", "measured_w", "fit_residual", "cost_residual",
    "err_update_value", "true_error",
)


def read_log(path) -> list[dict[str, str]]:
    """Rows of a ``run_log.csv``, keyed by column name."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(a: float, b: float) -> bool:
    both_nan = math.isnan(a) and math.isnan(b)
    return both_nan or math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def check_run(scenario, summary: dict, rows: list[dict[str, str]]) -> list[str]:
    """Problems with one governed run; an empty list means it passed."""
    problems = []
    if len(rows) != summary["frames"]:
        problems.append(f"log has {len(rows)} rows for {summary['frames']} frames")
    if not rows:
        return problems
    powers = [float(r["measured_w"]) for r in rows]
    errors = [float(r["true_error"]) for r in rows if r["true_error"] != ""]
    if not _close(sum(powers) / len(powers), summary["governed_mean_power"]):
        problems.append("governed_mean_power is not the mean measured_w of the log")
    if len(errors) != summary["governed_error_samples"] or not _close(
        sum(errors) / len(errors) if errors else 0.0, summary["governed_mean_error"]
    ):
        problems.append("governed_mean_error is not the mean true_error of the log")
    for column, key in (("selection", "selection_count"), ("refit", "refit_count")):
        if sum(int(r[column]) for r in rows) != summary[key]:
            problems.append(f"{key} is not the sum of the {column} column")
    counts = [p.level_count for p in scenario.roster.passes]
    for r in rows:
        levels = [int(v) for v in r["s_eff"].split("-")]
        if len(levels) != len(counts) or not all(0 <= l < n for l, n in zip(levels, counts)):
            problems.append(f"frame {r['frame']}: s_eff {r['s_eff']} is not in the lattice")
            break
    return problems


def check_oracle(scenario, rows) -> list[str]:
    """Problems with one ``oracle_table`` result."""
    problems = []
    if len(rows) != scenario.roster.config_count:
        problems.append(f"{len(rows)} rows for {scenario.roster.config_count} configurations")
    best = [err for cfg, _, err in rows if not any(cfg)]
    if best != [0.0]:
        problems.append(f"all-best error is {best}, not exactly [0.0]")
    sat = scenario.oracle.saturation
    if not all(sat.p_min <= power < sat.p_max for _, power, _ in rows):
        problems.append("a power lies outside [p_min, p_max)")
    return problems


def _float_sums(values: list[float]) -> list[float]:
    # Count, sum and position-weighted sum: a changed or moved value shows.
    return [len(values), math.fsum(values), math.fsum((i + 1) * v for i, v in enumerate(values))]


def _hash(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def run_digest(summary: dict, rows: list[dict[str, str]]) -> dict:
    columns = list(rows[0]) if rows else []
    discrete = [c for c in columns if c in DISCRETE_COLUMNS or c.startswith("stale_")]
    floats = [c for c in columns if c in FLOAT_COLUMNS or c.startswith("e_worst_")]
    # Which float cells are empty is discrete information too.
    lines = [
        ",".join([r[c] for c in discrete] + [str(r[c] == "") for c in floats]) for r in rows
    ]
    return {
        "discrete": _hash([",".join(discrete + floats)] + lines),
        "floats": {c: _float_sums([float(r[c]) for r in rows if r[c] != ""]) for c in floats},
        "summary": summary,
    }


def oracle_digest(rows) -> dict:
    return {
        "discrete": _hash([str(cfg) for cfg, _, _ in rows]),
        "floats": {
            "true_power_w": _float_sums([p for _, p, _ in rows]),
            "true_error": _float_sums([e for _, _, e in rows]),
        },
    }


def compare_digest(actual: dict, expected: dict) -> list[str]:
    """Problems where ``actual`` departs from a recorded digest."""
    problems = []
    if actual["discrete"] != expected["discrete"]:
        problems.append("discrete columns differ from the recorded digest")
    for column, want in expected["floats"].items():
        got = actual["floats"].get(column)
        if got is None or got[0] != want[0] or not all(map(_close, got[1:], want[1:])):
            problems.append(f"float column {column} differs from the recorded digest")
    for key, want in expected.get("summary", {}).items():
        got = actual["summary"].get(key)
        same = _close(got, want) if isinstance(want, float) and isinstance(got, float) else got == want
        if not same:
            problems.append(f"summary {key} = {got!r}, recorded {want!r}")
    return problems


def load_golden() -> dict:
    """Recorded digests by job label; ``record_golden.py`` writes them."""
    return json.loads(GOLDEN_PATH.read_text())
