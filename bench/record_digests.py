"""Record the output digests that the benchmark's correctness gate checks.

For every exchange workload, runs calls 0, 1, ... at the default seed exactly
as ``bench/run.py`` does, for ``RECORD_MARGIN`` times BENCHMARK.json's
``run_seconds``, and writes the sha256 of each call's CSV + JSON output to
``bench/digests.json``.  Rerun only when the output format or the simulated
physics is meant to change::

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run_seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    profile = run.Profile(tiny=False)
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload in run.EXCHANGE:
        runner = run.Runner(workload, run.DEFAULT_SEED, profile, workdir)
        calls = runner.timed(run.RECORD_MARGIN * run_seconds)
        errors = [c.error for c in calls if c.error]
        if errors:
            print(f"{workload}: {errors[0]}", file=sys.stderr)
            return 1
        digests[workload] = [c.digest for c in calls]
        print(f"{workload}: {len(calls)} calls", file=sys.stderr)
    shutil.rmtree(workdir)
    record = {
        "seed": run.DEFAULT_SEED,
        "shots_per_call": profile.shots,
        "provenance": run.provenance(),
        "digests": digests,
    }
    with open(run.HERE / "digests.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
