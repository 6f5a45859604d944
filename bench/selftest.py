"""Self-test of the benchmark, on tiny calls; takes about 20 seconds.

    python3 bench/selftest.py

Checks, for every workload in BENCHMARK.json:

* an untraced and a traced run each print, as the last line, a result with
  exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, with
  ``correct`` true, no failures, and every
  end-to-end (untraced) or per-layer (traced) metric with its unit;
* the traced calls wrote byte-identical CSV/JSON to the untraced calls of the
  same seed (tracing must not shift a random draw);

and, once:

* installing the tracer wraps the from-imported copies too, and restoring
  it leaves no wrapper anywhere in the package;
* in a directory that holds only BENCHMARK.json and ``bench/``, the
  benchmark exits non-zero without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 5
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", "0.5", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = bench(workload, trace)
    what = f"{workload} trace {trace}"
    if proc.returncode != 0:
        check(False, f"{what}: exit {proc.returncode}\n{proc.stderr}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{what}: correct, 0 failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{what}: every metric with its unit ({len(want)})")
    values = [m["value"] for m in result["metrics"].values()]
    check(
        all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
        f"{what}: finite numeric values",
    )


def check_identical_outputs(workload: str) -> None:
    tag = f"{workload}-seed{SEED}-trace"
    plain = json.loads((run.OUT / f"{tag}0.json").read_text())["calls"]
    traced = json.loads((run.OUT / f"{tag}1.json").read_text())["traced_calls"]
    same = bool(traced) and all(
        t["digest"] and t["digest"] == p["digest"] for p, t in zip(plain, traced)
    )
    check(same, f"{workload}: traced calls write the bytes of untraced calls")


def check_wrappers() -> None:
    sys.path.insert(0, str(run.SRC))
    import fermiqec
    from fermiqec import gates, qec, states
    from spans import Tracer, leftover_wrappers

    originals = (gates.apply_qubit_gate, qec.apply_qubit_gate, states.SparseState.with_entries)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (gates.apply_qubit_gate, qec.apply_qubit_gate, states.SparseState.with_entries)
        check(
            all(w is not o for w, o in zip(wrapped, originals)),
            "install wraps module, from-imported and method references",
        )
        workdir = run.OUT / "selftest-work"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = run.Runner("exchange_corrected", SEED, run.Profile(tiny=True), workdir)
        with tracer.span():
            call = runner.call(0)
        shutil.rmtree(workdir)
        check(call.error is None and tracer.calls["qec.measure_stabilizer"] > 0, "traced call runs")
    finally:
        tracer.restore()
    restored = (gates.apply_qubit_gate, qec.apply_qubit_gate, states.SparseState.with_entries)
    check(all(r is o for r, o in zip(restored, originals)), "restore puts originals back")
    check(not leftover_wrappers(), f"no wrapper left installed in {fermiqec.__name__}")


def check_bare_directory(spec_path: Path) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    try:
        proc = bench(run.WORKLOADS[0], 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(
            proc.returncode != 0 and not last[0].startswith("{"),
            "without src/ the benchmark exits non-zero and prints no result",
        )
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json lists the benchmark's workloads",
    )
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, spec)
        check_identical_outputs(workload)
    check_wrappers()
    check_bare_directory(spec_path)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
