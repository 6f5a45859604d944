"""End-to-end acceptance checks, one test per numbered requirement.

Each test pins the tolerance it must meet; pytest -v yields one pass/fail
line per criterion.  The two Monte-Carlo criteria (07, 08) also assert
their wall-clock budgets, so this module is the slow part of the suite.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fermiqec.backend import random_h_circuit, run_dual
from fermiqec.cli import main
from fermiqec.codes import (
    RepetitionCode,
    apply_logical_C,
    apply_logical_C_dagger,
    kl_check,
    logical_basis_state,
    prepare_logical_vacuum,
    random_codespace_state,
    stabilizer_expectation,
    steane_projector_check,
)
from fermiqec.gates import (
    apply_annihilation,
    apply_creation,
    apply_local_phase,
    number_expectation,
)
from fermiqec.harness import ExperimentConfig, run_experiment
from fermiqec.logical import (
    density_gadget_logical,
    fswap_logical,
    logical_density_exact,
    logical_phase_exact,
    phase_gadget_logical,
    tunneling_logical,
)
from fermiqec.qec import (
    SYNDROME_TABLE,
    generate_syndrome_table,
    measure_reference_and_recover,
    qec_round,
)
from fermiqec.reference import (
    apply_c,
    apply_c_dagger,
    apply_D_decomposed,
    apply_D_exact,
    apply_R,
    apply_R_dagger,
    random_h_state,
)
from fermiqec.registers import RegisterLayout
from fermiqec.states import add_states, difference_norm, random_full_state

SQUARE = RegisterLayout(3, 3, 3)  # M_s = N = M_r


# ---------------------------------------------------------------------------
# 1. operator algebra on the consistent subspace
# ---------------------------------------------------------------------------


def test_01a_dressed_anticommutators():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        psi = random_h_state(SQUARE, rng)
        for i in range(3):
            for j in range(3):
                acc = add_states(
                    apply_c_dagger(apply_c(psi, j), i),
                    apply_c(apply_c_dagger(psi, i), j),
                )
                if i == j:
                    acc = add_states(acc, psi, 1.0, -1.0)
                worst = max(worst, acc.norm())
    assert worst < 1e-12


def _edge_commutator_worst(layout: RegisterLayout, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        psi = random_h_state(layout, rng)
        comm = add_states(
            apply_R(apply_R_dagger(psi)), apply_R_dagger(apply_R(psi)), 1.0, -1.0
        )
        worst = max(worst, comm.norm())
    return worst


@pytest.mark.xfail(
    strict=True,
    reason="on a square register (M_s = N = M_r) the commutator reduces to "
    "the difference of the two boundary-sector projectors: R R† loses the "
    "fully-stacked bank (no free slot above it) and R†R loses the empty "
    "bank, so [R, R†] = P_(n=N) - P_(n=0) != 0; the identity needs "
    "M_r > N > M_s",
)
def test_01b_edge_commutator_square_register():
    assert _edge_commutator_worst(SQUARE, 100, 102) < 1e-12


def test_01b_edge_commutator_tall_register():
    # strict inequalities M_s < N < M_r keep both boundary sectors benign
    assert _edge_commutator_worst(RegisterLayout(3, 5, 4), 100, 103) < 1e-12


def test_01c_edge_site_anticommutation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        psi = random_full_state(SQUARE, rng)
        for i in range(3):
            anti = add_states(
                apply_R(apply_annihilation(psi, i)),
                apply_annihilation(apply_R(psi), i),
            )
            worst = max(worst, anti.norm())
    assert worst < 1e-12


def test_01d_dressed_bilinears_match_site_bilinears():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        psi = random_h_state(SQUARE, rng)
        for i in range(3):
            for j in range(3):
                dressed = apply_c_dagger(apply_c(psi, j), i)
                site = apply_creation(apply_annihilation(psi, j), i)
                worst = max(worst, difference_norm(dressed, site))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# 2. decomposed Majorana rotation equals the exact rotation
# ---------------------------------------------------------------------------


def test_02_decomposed_rotation_matches_exact():
    rng = np.random.default_rng(201)
    thetas = rng.uniform(-math.pi, math.pi, size=20)
    worst = 0.0
    for _ in range(100):
        psi = random_h_state(SQUARE, rng)
        for mode in range(3):
            for theta in thetas:
                worst = max(
                    worst,
                    difference_norm(
                        apply_D_exact(psi, mode, float(theta)),
                        apply_D_decomposed(psi, mode, float(theta)),
                    ),
                )
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 3. repetition-code structure
# ---------------------------------------------------------------------------


def test_03_repetition_code_suite():
    rng = np.random.default_rng(301)
    for num_blocks in (1, 2, 3):
        m = 3 * num_blocks
        code = RepetitionCode(RegisterLayout(m, m, m))
        words = code.codespace_states()
        assert len(words) == 2**num_blocks

        for word in words:
            for b in range(num_blocks):
                for which in ("s12", "s23"):
                    assert (
                        abs(stabilizer_expectation(word, code, b, which) - 1.0)
                        < 1e-12
                    )

        vac = prepare_logical_vacuum(code)
        for b in range(num_blocks):
            assert apply_logical_C(vac, code, b).norm() < 1e-12

        for _ in range(5):
            psi = random_codespace_state(code, rng)
            for b in range(num_blocks):
                acc = add_states(
                    apply_logical_C(apply_logical_C_dagger(psi, code, b), code, b),
                    apply_logical_C_dagger(apply_logical_C(psi, code, b), code, b),
                )
                assert add_states(acc, psi, 1.0, -1.0).norm() < 1e-12

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
    code = RepetitionCode(SQUARE)
    errors = [lambda s: s.copy()] + [
        (lambda s, m=m: apply_local_phase(s, m, math.pi)) for m in range(3)
    ]
    report = kl_check(code.codespace_states(), errors, atol=1e-12)
    assert report.passed
    assert report.max_offdiagonal_violation <= 1e-12
    assert report.max_codeword_dependence <= 1e-12

    # seven-mode loss channel at p = 0.01: every annihilation Kraus block
    # acts as (p/2) x identity on the code space and all cross terms vanish
    p = 0.01
    loss = steane_projector_check(p, atol=1e-12)
    matrix = loss.kl.matrix
    n_words = matrix.shape[1]
    eye = np.eye(n_words)
    for a in range(1, 8):
        assert np.max(np.abs(matrix[a, :, a, :] - (p / 2) * eye)) < 1e-12
        for b in range(matrix.shape[0]):
            if b != a:
                assert np.max(np.abs(matrix[a, :, b, :])) < 1e-12


# ---------------------------------------------------------------------------
# 5. syndrome extraction and correction
# ---------------------------------------------------------------------------


def test_05_single_flip_recovery_and_decode_table():
    rng = np.random.default_rng(501)
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=1))
    for _ in range(10):
        psi = random_codespace_state(code, rng)
        for mode in range(6):
            flipped = apply_local_phase(psi, mode, math.pi)
            recovered, syndromes = qec_round(flipped, code, rng)
            assert 1.0 - recovered.fidelity(psi) < 1e-12
            hit = [s for s in syndromes if s != (1, 1)]
            assert len(hit) == 1  # exactly one block saw the flip
    assert generate_syndrome_table() == SYNDROME_TABLE


# ---------------------------------------------------------------------------
# 6. logical gadgets against their exact unitaries
# ---------------------------------------------------------------------------


def test_06_gadget_oracles_and_fswap_conjugation():
    rng = np.random.default_rng(601)
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=2))
    worst_phase = 0.0
    worst_density = 0.0
    worst_tunnel = 0.0
    for _ in range(100):
        psi = random_codespace_state(code, rng, compressed=True)
        for theta in (math.pi / 4, math.pi / 2, math.pi):  # T, S, Z angles
            for b in range(2):
                worst_phase = max(
                    worst_phase,
                    difference_norm(
                        phase_gadget_logical(psi, code, b, theta),
                        logical_phase_exact(psi, code, b, theta),
                    ),
                )
            worst_density = max(
                worst_density,
                difference_norm(
                    density_gadget_logical(psi, code, 0, 1, theta),
                    logical_density_exact(psi, code, 0, 1, theta),
                ),
            )
        worst_tunnel = max(
            worst_tunnel,
            difference_norm(
                tunneling_logical(psi, code, 0, 1, math.pi / 2, method="hardware"),
                tunneling_logical(psi, code, 0, 1, math.pi / 2, method="exact"),
            ),
        )
    assert worst_phase < 1e-12
    assert worst_density < 1e-12
    assert worst_tunnel < 1e-12

    # conjugation by the block swap relabels the logical ladder operators
    plain = RepetitionCode(RegisterLayout(6, 6, 6))
    worst = 0.0
    for _ in range(100):
        psi = random_codespace_state(plain, rng)
        for op in (apply_logical_C, apply_logical_C_dagger):
            conjugated = fswap_logical(
                op(fswap_logical(psi, plain, 0, 1), plain, 0), plain, 0, 1
            )
            worst = max(worst, difference_norm(conjugated, op(psi, plain, 1)))
    assert worst < 1e-12


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
    lay = RegisterLayout(3, 4, 4, num_ancilla_qubits=2)
    code = RepetitionCode(lay)
    worst = 0.0
    for k in range(20):
        ops = random_h_circuit(lay, rng, length=50)
        report = run_dual(random_h_state(lay, rng), ops, seed=9000 + k, code=code)
        assert report.outcomes_match
        worst = max(worst, report.deviation)
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 10. reference dephasing recovery on the two-block register
# ---------------------------------------------------------------------------


def test_10_reference_dephasing_recovery():
    rng = np.random.default_rng(1001)
    code = RepetitionCode(RegisterLayout(6, 5, 5))
    words = [logical_basis_state(code, bits) for bits in ((0, 1), (1, 0))]
    worst = 0.0
    for _ in range(20):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        psi = add_states(words[0], words[1], complex(amps[0]), complex(amps[1]))
        j = int(rng.integers(5))  # one random bank mode picks up a pi phase
        noisy = apply_local_phase(psi, psi.layout.reference_mode(j), math.pi)
        recovered = measure_reference_and_recover(noisy, code, rng)
        worst = max(worst, 1.0 - recovered.fidelity(psi))
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
