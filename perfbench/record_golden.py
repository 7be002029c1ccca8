"""Record the output digests that ``run.py`` checks for the default seed.

    python3 perfbench/record_golden.py

Runs every job of every workload at the default seed once and writes
``golden.json``. Re-record only when a change to the program is meant to
change its outputs, and say why in the change.
"""

import json

import checks
import run
import spans
import workloads


def main() -> None:
    digests: dict = {}
    for workload in workloads.WORKLOADS:
        jobs_for = workloads.jobs_for(workload, run.DEFAULT_SEED)
        for k in range(workloads.SEEDS_PER_RUN):
            sample = run.run_sample(jobs_for(k), {}, digests, spans.SpeedProbe())
            if sample.failed:
                raise SystemExit(f"{workload}: a job failed its structural checks")
    checks.GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {checks.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
