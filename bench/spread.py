"""Spread of the end-to-end metrics over seeds.

    python3 bench/spread.py --label set1 --seeds 100-109

Runs every workload of BENCHMARK.json once per seed, untraced, for its
``run_seconds``.  Prints, for each end-to-end metric, the median and the
interquartile range over the median (``statistics.quantiles(values, n=4)``)
against a third of the metric's bound, and the ratio of the median to that
of the first set already in the output file.  Each run's metric values are
stored under the label in ``bench/spread_runs.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

RUNS = run.HERE / "spread_runs.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 100-109")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sets = json.loads(RUNS.read_text()) if RUNS.is_file() else {}
    baseline = next((runs for label, runs in sets.items() if label != args.label), None)
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(first, last + 1):
            cmd = [
                sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append({
                "seed": seed,
                "correct": result["correct"],
                "failed": result["failed"],
                **{name: m["value"] for name, m in result["metrics"].items()},
            })
            sets[args.label] = runs
            RUNS.write_text(json.dumps(sets, indent=1) + "\n")
        print(f"== {workload}: all correct {all(r['correct'] for r in runs[workload])}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs[workload]]
            q = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            line = (
                f"  {name:18s} median {median:.5g}  iqr/median {(q[2] - q[0]) / median:.4f}"
                f"  (a third of the bound: {metric['bound'] / 3:.4f})"
            )
            if baseline and workload in baseline:
                base = statistics.median(r[name] for r in baseline[workload])
                line += f"  median / first set {median / base:.4f}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
