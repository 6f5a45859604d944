"""Command-line front end.

Three subcommands:

* ``verify`` runs the quick self-check suites,
* ``syndrome-table`` prints the stored decoding table and confirms it against
  the brute-forced one,
* ``exchange`` runs the noisy exchange interferometry experiment and writes
  CSV/JSON result files.

Output files contain no timing or worker-count information, so a rerun with
the same flags and seed reproduces them byte for byte regardless of
``--threads``.  Exit status: 0 on success, 1 when a check fails or an
output file cannot be written after the run, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .harness import EXCHANGE_REGISTER, ExperimentConfig, ExperimentResult, run_experiment
from .qec import SYNDROME_TABLE, generate_syndrome_table
from .suites import SUITES, run_suites

__all__ = ["main"]


def _p_list(text: str) -> tuple[float, ...]:
    """The floats of a comma-separated list; their range is the config's
    check."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of probabilities, got {text!r}"
        ) from exc


def _nonnegative_int(text: str) -> int:
    """``verify --seed``: the ``steane`` suite ignores its seed, so nothing
    else would reject a negative one."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, args.seed)
    all_passed = all(c.passed for c in checks)
    if args.json:
        record = {
            "command": "verify",
            "version": __version__,
            "seed": args.seed,
            "suites": names,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
            "passed": all_passed,
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for c in checks:
            print(f"{'ok  ' if c.passed else 'FAIL'}  {c.name} — {c.detail}")
        failed = sum(not c.passed for c in checks)
        if failed:
            print(f"{failed} of {len(checks)} checks failed")
        else:
            print(f"all {len(checks)} checks passed")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# syndrome-table
# ---------------------------------------------------------------------------


def cmd_syndrome_table(args: argparse.Namespace) -> int:
    generated = generate_syndrome_table()
    matches = generated == SYNDROME_TABLE
    if args.json:
        record = {
            "command": "syndrome-table",
            "version": __version__,
            "table": [
                {"s12": s12, "s23": s23, "mode_offset": offset}
                for (s12, s23), offset in SYNDROME_TABLE.items()
            ],
            "matches_generated": matches,
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print("s12  s23  correction")
        for (s12, s23), offset in SYNDROME_TABLE.items():
            what = "none" if offset is None else f"pi phase on block mode {offset}"
            print(f"{s12:+3d}  {s23:+3d}  {what}")
        print(
            "brute-forced table matches"
            if matches
            else "brute-forced table DIFFERS from the stored one"
        )
    return 0 if matches else 1


# ---------------------------------------------------------------------------
# exchange
# ---------------------------------------------------------------------------


def _csv_text(config: ExperimentConfig, result: ExperimentResult) -> str:
    lines = ["p,shots,layers,corrected,estimate,ci_lo,ci_hi,seed"]
    for pt in result.points:
        lines.append(
            ",".join(
                (
                    str(pt.p),
                    str(pt.shots),
                    str(config.num_error_layers),
                    str(config.correction_enabled).lower(),
                    str(pt.estimate),
                    str(pt.ci_lo),
                    str(pt.ci_hi),
                    str(config.seed),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _run_record(config: ExperimentConfig, result: ExperimentResult) -> dict:
    cfg = asdict(config)
    cfg["p_values"] = list(config.p_values)
    # the same for every run; kept until the output digests are re-recorded
    cfg["register"] = list(EXCHANGE_REGISTER)
    cfg["layer_schedule"] = None
    return {
        "command": "exchange",
        "version": __version__,
        "seed": config.seed,
        "config": cfg,
        "results": [asdict(pt) for pt in result.points],
        "timings": None,
    }


def cmd_exchange(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        p_values=args.p,
        shots=args.shots,
        num_error_layers=args.layers,
        correction_enabled=args.correct,
        include_reference_errors=args.reference_errors,
        seed=args.seed,
        confidence=args.confidence,
    )
    # a path that cannot be written fails here, before any shot runs; append
    # mode truncates nothing, and a file the probe made is removed again
    for path in filter(None, (args.out, args.json_out)):
        made = not os.path.exists(path)
        try:
            with open(path, "a"):
                pass
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
        if made:
            os.remove(path)
    result = run_experiment(config, threads=args.threads)
    pct = 100.0 * config.confidence
    for pt in result.points:
        print(
            f"p={pt.p:g}  estimate={pt.estimate:+.6f}  "
            f"{pct:g}% CI [{pt.ci_lo:+.6f}, {pt.ci_hi:+.6f}]  "
            f"(shots={pt.shots}, {'corrected' if config.correction_enabled else 'uncorrected'})"
        )
    print(f"completed in {result.elapsed_seconds:.1f} s", file=sys.stderr)
    outputs = []
    if args.out:
        outputs.append((args.out, _csv_text(config, result)))
    if args.json_out:
        record = json.dumps(_run_record(config, result), indent=2, sort_keys=True)
        outputs.append((args.json_out, record + "\n"))
    for path, text in outputs:
        # the probe above cannot foresee a full disk
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiqec",
        description="error-corrected fermionic register simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the quick self-check suites")
    p_verify.add_argument(
        "--suite",
        choices=["all", *sorted(SUITES)],
        default="all",
        help="which suite to run (default: all)",
    )
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0)
    p_verify.add_argument(
        "--json", action="store_true", help="print a JSON report instead of lines"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser(
        "syndrome-table", help="print the stored decoding table and re-derive it"
    )
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_syndrome_table)

    p_ex = sub.add_parser(
        "exchange", help="run the noisy exchange interferometry experiment"
    )
    p_ex.add_argument(
        "--p",
        type=_p_list,
        required=True,
        help="comma-separated phase-error probabilities, e.g. 0.002,0.005,0.01",
    )
    # the ranges of these integers are the config's and run_experiment's checks
    p_ex.add_argument("--shots", type=int, default=100_000)
    p_ex.add_argument(
        "--layers",
        type=int,
        default=3,
        help="number of injected error layers",
    )
    p_ex.add_argument(
        "--correct",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run a correction round after each error layer",
    )
    p_ex.add_argument(
        "--reference-errors",
        action="store_true",
        help="let error layers hit the reference modes too",
    )
    p_ex.add_argument("--seed", type=int, default=0)
    p_ex.add_argument("--confidence", type=float, default=0.99)
    p_ex.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes, at most one per shot and per usable CPU "
        "(results are independent of this); slower than one worker at a few "
        "hundred shots per worker",
    )
    p_ex.add_argument("--out", metavar="PATH", help="write per-point results as CSV")
    p_ex.add_argument(
        "--json",
        dest="json_out",
        metavar="PATH",
        help="write the full run record as JSON",
    )
    p_ex.set_defaults(func=cmd_exchange)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
