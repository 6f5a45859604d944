"""Compressed <-> physical representation round trips and dual execution."""

import math

import numpy as np
import pytest
from conftest import on_ancillas

from fermiqec.backend import (
    compress,
    decompress,
    random_h_circuit,
    run_circuit,
    run_dual,
)
from fermiqec.codes import RepetitionCode, random_codespace_state
from fermiqec.gates import LocalPhase
from fermiqec.qec import QecRound
from fermiqec.reference import apply_c, random_h_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import basis_state, difference_norm

LAY = RegisterLayout(3, 4, 4, num_ancilla_qubits=2)


def test_round_trip_is_lossless():
    rng = np.random.default_rng(61)
    psi = on_ancillas(random_h_state(LAY, rng), 0b10)
    assert difference_norm(decompress(compress(psi)), psi) == 0.0
    small = compress(psi)
    assert difference_norm(compress(decompress(small)), small) == 0.0


def test_compress_rejects_inconsistent_states():
    # one atom in the system but a full reference bank: too many atoms
    bad = basis_state(LAY, 0b001 | (0b1111 << 3))
    with pytest.raises(ValueError):
        compress(bad)


def test_annihilation_commutes_with_compression():
    rng = np.random.default_rng(62)
    psi = random_h_state(LAY, rng)
    for mode in range(LAY.num_system_modes):
        a = compress(apply_c(psi, mode))
        b = apply_c(compress(psi), mode)
        assert difference_norm(a, b) < 1e-13


def test_random_circuit_shape():
    lay = RegisterLayout(3, 5, 4, num_ancilla_qubits=2)
    ops = random_h_circuit(lay, np.random.default_rng(63), length=50)
    assert len(ops) == 50
    assert sum(isinstance(op, QecRound) for op in ops) == 1


@pytest.mark.parametrize("length", [0, -1, -50])
def test_random_circuit_needs_room_for_its_qec_round(length):
    with pytest.raises(ValueError, match="length"):
        random_h_circuit(LAY, np.random.default_rng(63), length=length)
    assert random_h_circuit(LAY, np.random.default_rng(63), length=1) == [QecRound()]


def test_dual_run_agrees_and_reports_outcomes():
    lay = RegisterLayout(3, 5, 4, num_ancilla_qubits=2)
    code = RepetitionCode(lay)
    rng = np.random.default_rng(64)
    initial = random_h_state(lay, rng)
    ops = random_h_circuit(lay, rng, length=30)
    report = run_dual(initial, ops, seed=99, code=code)
    assert report.deviation < 1e-10
    assert report.outcomes_match


def test_dual_run_insists_on_a_physical_start():
    rng = np.random.default_rng(65)
    initial = compress(random_h_state(LAY, rng))
    with pytest.raises(ValueError):
        run_dual(initial, [], seed=1)

def test_qec_round_needs_a_code():
    lay = RegisterLayout(3, 5, 4, num_ancilla_qubits=2)
    psi = random_h_state(lay, np.random.default_rng(66))
    with pytest.raises(ValueError):
        run_circuit(psi, [QecRound()], np.random.default_rng(1))


def test_unknown_instruction_is_rejected():
    psi = random_h_state(LAY, np.random.default_rng(67))
    with pytest.raises(TypeError):
        run_circuit(psi, ["not an instruction"], np.random.default_rng(1))


@pytest.mark.parametrize("compressed", [False, True])
def test_qec_round_reports_two_outcomes_per_block(compressed):
    lay = RegisterLayout(6, 6, 6, num_ancilla_qubits=1)
    code = RepetitionCode(lay)
    psi = random_codespace_state(code, np.random.default_rng(68), compressed)
    # a phase flip on the first mode of block 1 reads (-1, +1) there
    ops = [LocalPhase(3, math.pi), QecRound()]
    out, outcomes = run_circuit(psi, ops, np.random.default_rng(2), code)
    assert outcomes == [1, 1, -1, 1]
    assert difference_norm(out, psi) < 1e-12
