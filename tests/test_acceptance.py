"""End-to-end acceptance checks, one test per numbered requirement.

Each test pins the seed, size and tolerance it must meet; pytest -v yields
one pass/fail line per criterion.  The structural claims (01-06, 09, 10)
call the checks of :mod:`fermiqec.suites` that ``fermiqec verify`` runs at
a small size, so the two cannot drift apart.  The two Monte-Carlo criteria
(07, 08) also assert their wall-clock budgets.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fermiqec.cli import main
from fermiqec.codes import RepetitionCode, logical_basis_state
from fermiqec.gates import number_expectation
from fermiqec.harness import ExperimentConfig, run_experiment
from fermiqec.qec import SYNDROME_TABLE, generate_syndrome_table
from fermiqec.registers import RegisterLayout
from fermiqec.suites import (
    check_bank_recovery,
    check_decomposed_rotation,
    check_dephasing_correctability,
    check_dressed_anticommutators,
    check_dressed_bilinears,
    check_dual_backends,
    check_edge_commutator,
    check_edge_site_anticommutation,
    check_fswap_conjugation,
    check_gadget_oracles,
    check_loss_channel,
    check_repetition_code,
    check_single_flip_recovery,
)

SQUARE = RegisterLayout(3, 3, 3)  # M_s = N = M_r


# ---------------------------------------------------------------------------
# 1. operator algebra on the consistent subspace
# ---------------------------------------------------------------------------


def test_01a_dressed_anticommutators():
    assert check_dressed_anticommutators(np.random.default_rng(101), 100) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="on a square register (M_s = N = M_r) the commutator reduces to "
    "the difference of the two boundary-sector projectors: R R† loses the "
    "fully-stacked bank (no free slot above it) and R†R loses the empty "
    "bank, so [R, R†] = P_(n=N) - P_(n=0) != 0; the identity needs "
    "M_r > N > M_s",
)
def test_01b_edge_commutator_square_register():
    assert check_edge_commutator(np.random.default_rng(102), SQUARE, 100) < 1e-12


def test_01b_edge_commutator_tall_register():
    # strict inequalities M_s < N < M_r keep both boundary sectors benign
    tall = RegisterLayout(3, 5, 4)
    assert check_edge_commutator(np.random.default_rng(103), tall, 100) < 1e-12


def test_01c_edge_site_anticommutation():
    assert check_edge_site_anticommutation(np.random.default_rng(104), 100) < 1e-12


def test_01d_dressed_bilinears_match_site_bilinears():
    assert check_dressed_bilinears(np.random.default_rng(105), 100) < 1e-12


# ---------------------------------------------------------------------------
# 2. decomposed Majorana rotation equals the exact rotation
# ---------------------------------------------------------------------------


def test_02_decomposed_rotation_matches_exact():
    rng = np.random.default_rng(201)
    thetas = rng.uniform(-math.pi, math.pi, size=20).tolist()
    assert check_decomposed_rotation(rng, 100, thetas, ("x",)) < 1e-10


# ---------------------------------------------------------------------------
# 3. repetition-code structure
# ---------------------------------------------------------------------------


def test_03_repetition_code_suite():
    for num_blocks in (1, 2, 3):
        m = 3 * num_blocks
        words = RepetitionCode(RegisterLayout(m, m, m)).codespace_states()
        assert len(words) == 2**num_blocks

    rng = np.random.default_rng(301)
    stabilizers, filling, vacuum, anticommutator = check_repetition_code(rng, 5)
    assert stabilizers < 1e-12
    assert filling < 1e-12
    assert vacuum < 1e-12
    assert anticommutator < 1e-12

    # every mode of every single-block word sits at half filling, exactly
    code = RepetitionCode(SQUARE)
    for bits in ((0,), (1,)):
        word = logical_basis_state(code, bits)
        for mode in range(3):
            assert number_expectation(word, mode) == 0.5


# ---------------------------------------------------------------------------
# 4. correctability matrices
# ---------------------------------------------------------------------------


def test_04_dephasing_and_loss_correctability():
    report = check_dephasing_correctability()
    assert report.passed
    assert report.max_offdiagonal_violation <= 1e-12
    assert report.max_codeword_dependence <= 1e-12

    # seven-mode loss channel at p = 0.01
    diagonal, cross = check_loss_channel()
    assert diagonal < 1e-12
    assert cross < 1e-12


# ---------------------------------------------------------------------------
# 5. syndrome extraction and correction
# ---------------------------------------------------------------------------


def test_05_single_flip_recovery_and_decode_table():
    worst, one_block_each = check_single_flip_recovery(np.random.default_rng(501), 10)
    assert worst < 1e-12
    assert one_block_each  # exactly one block saw each flip
    assert generate_syndrome_table() == SYNDROME_TABLE


# ---------------------------------------------------------------------------
# 6. logical gadgets against their exact unitaries
# ---------------------------------------------------------------------------


def test_06_gadget_oracles_and_fswap_conjugation():
    rng = np.random.default_rng(601)
    thetas = (math.pi / 4, math.pi / 2, math.pi)  # T, S, Z angles
    phase, density, tunnel = check_gadget_oracles(rng, 100, thetas)
    assert phase < 1e-12
    assert density < 1e-12
    assert tunnel < 1e-12
    assert check_fswap_conjugation(rng, 100) < 1e-12


# ---------------------------------------------------------------------------
# 7. noiseless exchange interferometry
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_07_noiseless_exchange_estimate():
    t0 = time.perf_counter()
    result = run_experiment(
        ExperimentConfig(p_values=(0.0,), shots=1000, seed=2026)
    )
    elapsed = time.perf_counter() - t0
    (point,) = result.points
    assert point.estimate == -1.0  # every shot lands on the +1 outcome
    assert point.count_minus == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 8. error-rate scaling of the exchange deviation
# ---------------------------------------------------------------------------


def _epsilon_intervals(points, power):
    """(lo, hi) of eps(p)/p^power per point, eps = estimate + 1."""
    out = []
    for pt in points:
        scale = pt.p**power
        out.append(((pt.ci_lo + 1.0) / scale, (pt.ci_hi + 1.0) / scale))
    return out


@pytest.mark.slow
def test_08_quadratic_suppression_scaling():
    t0 = time.perf_counter()
    p_values = (0.002, 0.005, 0.01)
    base = dict(p_values=p_values, shots=10_000, num_error_layers=3, seed=2027)
    corrected = run_experiment(ExperimentConfig(**base))
    uncorrected = run_experiment(
        ExperimentConfig(correction_enabled=False, **base)
    )
    elapsed = time.perf_counter() - t0

    # the uncorrected deviation grows linearly: eps/p flat within the CIs
    lin = _epsilon_intervals(uncorrected.points, power=1)
    assert max(lo for lo, _ in lin) <= min(hi for _, hi in lin)

    # correction pushes the residual to quadratic order: eps/p^2 flat
    quad = _epsilon_intervals(corrected.points, power=2)
    assert max(lo for lo, _ in quad) <= min(hi for _, hi in quad)

    eps_corr = corrected.points[-1].estimate + 1.0
    eps_raw = uncorrected.points[-1].estimate + 1.0
    assert corrected.points[-1].p == 0.01
    assert eps_corr < eps_raw / 3.0

    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 9. physical and compressed backends agree on random circuits
# ---------------------------------------------------------------------------


def test_09_backend_cross_check():
    rng = np.random.default_rng(901)
    worst, matched = check_dual_backends(rng, range(9000, 9020), length=50)
    assert matched
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 10. reference dephasing recovery on the two-block register
# ---------------------------------------------------------------------------


def test_10_reference_dephasing_recovery():
    rng = np.random.default_rng(1001)
    # one random bank mode picks up a pi phase
    worst = check_bank_recovery(rng, 20, lambda r: [int(r.integers(5))])
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------


def _run_exchange_cli(tmp_path, tag, threads):
    csv_path = tmp_path / f"out_{tag}.csv"
    json_path = tmp_path / f"out_{tag}.json"
    argv = [
        "exchange",
        "--p",
        "0,0.004",
        "--shots",
        "40",
        "--layers",
        "2",
        "--seed",
        "5",
        "--threads",
        str(threads),
        "--out",
        str(csv_path),
        "--json",
        str(json_path),
    ]
    assert main(argv) == 0
    return csv_path.read_bytes(), json_path.read_bytes()


def test_11_cli_outputs_are_deterministic(tmp_path, capsys):
    first = _run_exchange_cli(tmp_path, "a", threads=1)
    second = _run_exchange_cli(tmp_path, "b", threads=1)
    fanned = _run_exchange_cli(tmp_path, "c", threads=2)
    capsys.readouterr()
    assert first == second  # byte-identical rerun
    assert first == fanned  # worker count leaves no trace
