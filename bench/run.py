"""fermiqec benchmark: exchange-shot throughput and the dual-backend cross-check.

Run from the root of a source checkout::

    python3 bench/run.py --workload exchange_corrected --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
BENCHMARK.json and bench/NOTES.md).  A result file with provenance, and in a
traced run a span file, is written under ``.bench_results/``.

The package is imported from ``src/`` of the checkout and nowhere else; the
script exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"

#: CLI arguments of the exchange points, before shots and seed.  Calls
#: cycle through a workload's points.  All run the default 9+9+9 register
#: with 2 ancillas and 3 error layers on the default schedule.
EXCHANGE = {
    "exchange_corrected": (
        ("--p", "0.002", "--layers", "3", "--correct"),
        ("--p", "0.01", "--layers", "3", "--correct"),
    ),
    "exchange_uncorrected": (
        ("--p", "0.002", "--layers", "3", "--no-correct"),
        ("--p", "0.01", "--layers", "3", "--no-correct"),
    ),
    "exchange_reference": (
        ("--p", "0.01", "--layers", "3", "--correct", "--reference-errors"),
    ),
}
DUAL = "dual_crosscheck"
WORKLOADS = (*EXCHANGE, DUAL)
P_VALUES = ("0.002", "0.01")

DEFAULT_SEED = 0
DUAL_REGISTER = (9, 9, 9)
DUAL_TOLERANCE = 1e-10
#: Seed of the fixed circuit pool of ``dual_crosscheck``.  The cost of a
#: length-50 circuit varies by 36% (CV) with its mix of instructions, so the
#: benchmark seed draws initial states and measurement outcomes but not the
#: circuits; otherwise the seed's mix, not the program, would set the spread.
CIRCUIT_POOL_SEED = 2412_16081
#: Call ``k`` at benchmark seed ``s`` uses seed ``s * SEED_STRIDE + k``.
SEED_STRIDE = 1_000_000
#: Most worker processes the fan-out comparison starts.
MAX_FANOUT = 4
#: ``bench/digests.json`` covers the calls of a run this many times longer
#: than BENCHMARK.json's ``run_seconds`` on the recording machine, so a run
#: on a machine up to that much faster is checked call by call.
RECORD_MARGIN = 4


class Profile:
    """Amount of work per call and per phase."""

    def __init__(self, tiny: bool):
        # shots per CLI call: 256 is one harness chunk, so each call pays
        # the per-chunk rebuild of code and tables as a long run does
        self.shots = dict.fromkeys(EXCHANGE, 8 if tiny else 256)
        self.fanout_shots = 8 if tiny else 256  # per worker: one chunk each
        self.length = 10 if tiny else 50  # instructions per dual circuit
        self.pool = 2 if tiny else 16  # dual circuits per pass
        self.setup_probes = 1 if tiny else 7
        # passes repeated under tracing; >= 1024 shots give a p99 with ten
        # samples above it on the exchange workloads
        self.traced_passes = dict.fromkeys(WORKLOADS, 1) if tiny else {
            "exchange_corrected": 2,
            "exchange_uncorrected": 4,
            "exchange_reference": 4,
            DUAL: 1,
        }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "fermiqec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

#: Wall seconds that :func:`speed_probe` takes on the reference machine.
#: Timed work is reported in seconds of that machine (see NOTES.md): on a
#: shared host the speed of one core drifts by up to a factor of two over
#: tens of seconds, and a probe timed right before and after each call
#: follows that drift.
REFERENCE_PROBE_S = 0.010


def _probe_loop() -> float:
    t0 = time.perf_counter()
    amps: dict[int, complex] = {}
    for i in range(40_000):
        label = (i * 2654435761) & 2047
        amps[label] = amps.get(label, 0j) + (0.5 + 0.25j) * i
    return time.perf_counter() - t0


def speed_probe() -> float:
    """Median wall seconds of three runs of a fixed pure-Python loop of the
    simulator's kind: int-keyed dict updates of complex amplitudes."""
    return statistics.median(_probe_loop() for _ in range(3))


def reference_seconds(wall: float, probe_before: float, probe_after: float) -> float:
    return wall * REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))


# ---------------------------------------------------------------------------
# one call of each kind
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """Outcome of one CLI call or one circuit.  ``ref_seconds`` is the wall
    time scaled to the reference machine, filled in by the caller."""

    point: str  # the exchange point's p, "" for a circuit
    items: int  # shots, or 1 circuit
    seconds: float
    digest: str
    error: str | None
    ref_seconds: float = 0.0


def exchange_call(
    point: tuple[str, ...], cli_seed: int, shots: int, workdir: Path, threads: int = 1
) -> Call:
    """``fermiqec exchange`` through :func:`fermiqec.cli.main`, as a user runs
    it; the digest covers the CSV and JSON bytes it writes."""
    from fermiqec import cli

    p = point[1]
    csv_path = workdir / "points.csv"
    json_path = workdir / "run.json"
    for path in (csv_path, json_path):
        path.unlink(missing_ok=True)
    argv = [
        "exchange", *point,
        "--shots", str(shots), "--seed", str(cli_seed), "--threads", str(threads),
        "--out", str(csv_path), "--json", str(json_path),
    ]
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except Exception:  # a raising shot fails its point; keep measuring
        return Call(p, shots, time.perf_counter() - t0, "", traceback.format_exc())
    seconds = time.perf_counter() - t0
    if status != 0:
        return Call(p, shots, seconds, "", f"exit status {status}: {sink.getvalue()}")
    data = csv_path.read_bytes() + b"\0" + json_path.read_bytes()
    return Call(p, shots, seconds, hashlib.sha256(data).hexdigest(), None)


class DualInputs:
    """Register, code and circuit pool of ``dual_crosscheck``."""

    def __init__(self, seed: int, length: int, pool: int):
        import numpy as np

        from fermiqec.backend import random_h_circuit
        from fermiqec.codes import RepetitionCode
        from fermiqec.registers import RegisterLayout

        self.seed = seed
        self.layout = RegisterLayout(*DUAL_REGISTER, num_ancilla_qubits=2)
        self.code = RepetitionCode(self.layout)
        self.circuits = [
            random_h_circuit(
                self.layout, np.random.default_rng([CIRCUIT_POOL_SEED, i]), length=length
            )
            for i in range(pool)
        ]

    def initial_state(self, k: int):
        import numpy as np

        from fermiqec.reference import random_h_state

        return random_h_state(self.layout, np.random.default_rng([self.seed, k]))


def dual_call(inputs: DualInputs, k: int) -> Call:
    """``run_dual`` on pool circuit ``k mod pool``; fails on an exception, an
    outcome mismatch, or a final-state deviation of ``DUAL_TOLERANCE`` or
    more."""
    from fermiqec.backend import run_dual

    ops = inputs.circuits[k % len(inputs.circuits)]
    initial = inputs.initial_state(k)
    t0 = time.perf_counter()
    try:
        report = run_dual(initial, ops, seed=inputs.seed * SEED_STRIDE + k, code=inputs.code)
    except Exception:
        return Call("", 1, time.perf_counter() - t0, "", traceback.format_exc())
    seconds = time.perf_counter() - t0
    record = f"{report.outcomes_physical}|{report.deviation:.3e}"
    digest = hashlib.sha256(record.encode()).hexdigest()
    if not report.outcomes_match:
        return Call("", 1, seconds, digest, f"circuit {k}: outcomes differ")
    if not report.deviation < DUAL_TOLERANCE:
        return Call("", 1, seconds, digest, f"circuit {k}: deviation {report.deviation:.3e}")
    return Call("", 1, seconds, digest, None)


class Runner:
    """Calls of one workload at one benchmark seed, numbered from 0 and run
    in whole passes (every exchange point once, or every pool circuit once)."""

    def __init__(self, workload: str, seed: int, profile: Profile, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.workdir = workdir
        if workload == DUAL:
            self.dual = DualInputs(seed, profile.length, profile.pool)
            self.pass_size = profile.pool
        else:
            self.dual = None
            self.pass_size = len(EXCHANGE[workload])

    def call(self, k: int) -> Call:
        if self.dual is not None:
            return dual_call(self.dual, k)
        point = EXCHANGE[self.workload][k % self.pass_size]
        shots = self.profile.shots[self.workload]
        return exchange_call(point, self.seed * SEED_STRIDE + k, shots, self.workdir)

    def warm_up(self) -> None:
        """Finish imports and lazy tables outside the timed region."""
        if self.dual is not None:
            dual_call(self.dual, 0)
        else:
            for point in EXCHANGE[self.workload]:
                exchange_call(point, self.seed * SEED_STRIDE, 1, self.workdir)

    def timed(self, seconds: float, passes: int = 1, tracer=None) -> list[Call]:
        """Whole passes of calls 0, 1, ... until ``seconds`` have passed and
        at least ``passes`` passes ran, each call inside a root span when
        ``tracer`` is given."""
        calls: list[Call] = []
        t_end = time.perf_counter() + seconds
        probe = speed_probe()
        while (
            len(calls) < passes * self.pass_size
            or len(calls) % self.pass_size
            or time.perf_counter() < t_end
        ):
            if tracer is None:
                call = self.call(len(calls))
            else:
                with tracer.span():
                    call = self.call(len(calls))
            after = speed_probe()
            call.ref_seconds = reference_seconds(call.seconds, probe, after)
            probe = after
            calls.append(call)
        return calls


# ---------------------------------------------------------------------------
# set-up time: fresh processes up to the first result
# ---------------------------------------------------------------------------


def setup_probe(workload: str, workdir: Path) -> None:
    """Body of one set-up child: import, build code and base state, compile
    tables, and produce one result (one shot, or one circuit)."""
    if workload == DUAL:
        call = dual_call(DualInputs(DEFAULT_SEED, Profile(tiny=False).length, 1), 0)
    else:
        call = exchange_call(EXCHANGE[workload][0], DEFAULT_SEED, 1, workdir)
    if call.error:
        raise SystemExit(call.error)


def setup_seconds(workload: str, probes: int, workdir: Path) -> list[float]:
    """Wall seconds of each set-up child, scaled to the reference machine."""
    times = []
    probe = speed_probe()
    for _ in range(probes):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--setup-probe", "--workload", workload, "--workdir", str(workdir),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        after = speed_probe()
        times.append(reference_seconds(wall, probe, after))
        probe = after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check_digests(
    workload: str, seed: int, profile: Profile, calls: list[Call]
) -> tuple[list[str], list[str]]:
    """Compare exchange call digests with the ones recorded at the default
    seed; marks mismatching calls failed.  Returns their messages, and a
    note when the run made more calls than were recorded."""
    if workload == DUAL or seed != DEFAULT_SEED or profile.shots != Profile(False).shots:
        return [], []
    with open(HERE / "digests.json") as fh:
        recorded = json.load(fh)["digests"][workload]
    problems = []
    for k, (call, want) in enumerate(zip(calls, recorded)):
        if call.error is None and call.digest != want:
            call.error = f"call {k}: output digest {call.digest[:16]} != recorded {want[:16]}"
            problems.append(call.error)
    notes = []
    if len(calls) > len(recorded):
        notes.append(
            f"calls {len(recorded)}-{len(calls) - 1} have no recorded digest and were "
            "not checked; re-record with bench/record_digests.py"
        )
    return problems, notes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def throughput(calls: list[Call], pass_size: int, point: str | None = None) -> float:
    """Items per reference second of one pass (every exchange point once, or
    every pool circuit once), over the calls of one point or all.  Each call
    of a pass counts with the median reference time of its repeats, which
    drops the calls during which the machine's speed changed under the
    probes."""
    repeats: dict[int, list[Call]] = {}
    for k, call in enumerate(calls):
        if point is None or call.point == point:
            repeats.setdefault(k % pass_size, []).append(call)
    if not repeats:
        return 0.0
    items = sum(same[0].items for same in repeats.values())
    return items / sum(statistics.median(c.ref_seconds for c in same) for same in repeats.values())


def end_to_end(setup: list[float], calls: list[Call], pass_size: int) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "throughput_per_s": {"value": throughput(calls, pass_size), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(
    tracer, untraced: list[Call], traced: list[Call], pass_size: int, fanout: float
) -> dict:
    from spans import span_names

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in span_names():
        calls = tracer.calls.get(name, 0)
        if name == "codes.RepetitionCode":
            put("codes.RepetitionCode.constructions", calls, "count")
            continue
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", tracer.self_s.get(name, 0.0), "s")
    for name in ("qec.measure_stabilizer", "logical.controlled_tunneling_logical"):
        n = tracer.calls.get(name, 0)
        put(f"{name}.us_per_call", 1e6 * tracer.total_s.get(name, 0.0) / n if n else 0.0, "us")
    shots_ms = [1e3 * d for d in tracer.shot_seconds]
    put("harness.run_exchange_shot.ms.p50", _pct(shots_ms, 50), "ms")
    put("harness.run_exchange_shot.ms.p99", _pct(shots_ms, 99), "ms")
    for name in (
        "qec.nontrivial_syndromes",
        "states.amplitudes_in",
        "states.entries.max",
        "harness.flips",
    ):
        put(name, tracer.counts.get(name, 0), "count")
    put("harness.fanout.speedup", fanout, "ratio")
    for p in P_VALUES:
        put(f"shots_per_s.p{p}", throughput(untraced, pass_size, p), "shots/s")
    overhead = throughput(traced, pass_size) / throughput(untraced, pass_size)
    put("trace.overhead", overhead, "ratio")
    wall = sum(c.seconds for c in untraced)
    put("calibration.slowdown", wall / sum(c.ref_seconds for c in untraced), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def fanout_speedup(
    workload: str, seed: int, profile: Profile, workdir: Path
) -> tuple[float, list[Call]]:
    """Time of the last point at ``--threads 1`` over the same point at
    ``--threads min(nproc, 4)``, and both calls; the CSV/JSON bytes must be
    identical."""
    workers = max(1, min(nproc(), MAX_FANOUT))
    shots = profile.fanout_shots * workers
    point = EXCHANGE[workload][-1]
    cli_seed = seed * SEED_STRIDE
    probes = [speed_probe()]
    serial = exchange_call(point, cli_seed, shots, workdir, threads=1)
    probes.append(speed_probe())
    fanned = exchange_call(point, cli_seed, shots, workdir, threads=workers)
    probes.append(speed_probe())
    if not (serial.error or fanned.error) and serial.digest != fanned.digest:
        fanned.error = f"--threads {workers} output differs from --threads 1"
    serial.ref_seconds = reference_seconds(serial.seconds, probes[0], probes[1])
    fanned.ref_seconds = reference_seconds(fanned.seconds, probes[1], probes[2])
    return serial.ref_seconds / fanned.ref_seconds, [serial, fanned]


def run(args: argparse.Namespace) -> dict:
    profile = Profile(args.tiny)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = [] if args.trace else setup_seconds(args.workload, profile.setup_probes, workdir)
    runner = Runner(args.workload, args.seed, profile, workdir)
    runner.warm_up()
    passes = profile.traced_passes[args.workload] if args.trace else 1
    untraced = runner.timed(args.seconds, passes)
    problems, notes = check_digests(args.workload, args.seed, profile, untraced)
    calls = list(untraced)
    traced: list[Call] = []

    if args.trace:
        from spans import Tracer, leftover_wrappers

        fanout = 0.0
        if args.workload != DUAL:
            fanout, fanned = fanout_speedup(args.workload, args.seed, profile, workdir)
            calls += fanned
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.timed(0.0, passes, tracer)
        finally:
            tracer.restore()
        for k, (plain, seen) in enumerate(zip(untraced, traced)):
            if seen.error is None and seen.digest != plain.digest:
                seen.error = f"call {k}: traced output differs from untraced"
                problems.append(seen.error)
        left = leftover_wrappers()
        if left:
            problems.append(f"wrappers left installed: {left}")
        calls += traced
        metrics = per_layer(tracer, untraced, traced, runner.pass_size, fanout)
    else:
        metrics = end_to_end(setup, untraced, runner.pass_size)

    problems += [c.error for c in calls if c.error and c.error not in problems]
    result = {
        "correct": not problems,
        "attempted": sum(c.items for c in calls),
        "failed": sum(c.items for c in calls if c.error),
        "metrics": metrics,
    }

    prov = provenance()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": prov,
        "setup_runs_s": setup,
        "calls": [asdict(c) for c in untraced],
        "traced_calls": [asdict(c) for c in traced],
        "problems": problems,
        "notes": notes,
        "result": result,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write_spans(OUT / f"{tag}.spans.tsv.gz", json.dumps({"run": tag, **prov}))
    shutil.rmtree(workdir)

    if args.workload != DUAL:
        digests = " ".join(c.digest[:12] or "-" for c in untraced)
        print(f"digests {args.workload} seed {args.seed}: {digests}")
    for note in notes:
        print(f"note: {note}")
    for problem in problems:
        print(f"problem: {problem.strip()}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small calls, for the self-test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "fermiqec" / "__init__.py").is_file():
        print(f"error: no fermiqec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fermiqec

    if Path(fermiqec.__file__).resolve().parent != SRC / "fermiqec":
        print(f"error: imported fermiqec from {fermiqec.__file__}", file=sys.stderr)
        return 2

    if args.setup_probe:
        setup_probe(args.workload, args.workdir)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
