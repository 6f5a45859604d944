"""Syndrome extraction, decoding, and reference-collapse recovery."""

import math

import numpy as np
import pytest
from conftest import CountingRng

from fermiqec.backend import compress
from fermiqec.codes import (
    RepetitionCode,
    logical_basis_state,
    prepare_logical_vacuum,
    random_codespace_state,
)
from fermiqec.gates import apply_local_phase, apply_qubit_gate, split_mode_number
from fermiqec.qec import (
    SYNDROME_TABLE,
    decode,
    measure_reference_and_recover,
    measure_stabilizer,
    qec_round,
    split_stabilizer,
)
from fermiqec.reference import h_basis_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import SparseState, add_states, difference_norm

LAY = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)

#: The stabilizer readout each representation runs, keyed by test id.
READOUTS = dict(gadget=False, projection=True)
BY_READOUT = pytest.mark.parametrize(
    "compressed", list(READOUTS.values()), ids=list(READOUTS)
)


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode((0, 1))


@pytest.mark.parametrize("offset", [None, 0, 1, 2])
@BY_READOUT
def test_single_flip_syndromes_and_repair(offset, compressed):
    rng = np.random.default_rng(41)
    code = RepetitionCode(LAY)
    clean = random_codespace_state(code, rng, compressed)
    state = clean if offset is None else apply_local_phase(clean, offset, math.pi)
    fixed, syndromes = qec_round(state, code, rng)
    assert len(syndromes) == 1
    assert SYNDROME_TABLE[syndromes[0]] == offset
    assert fixed.fidelity(clean) == pytest.approx(1.0, abs=1e-12)


@BY_READOUT
def test_measure_stabilizer_uses_one_draw(compressed):
    code = RepetitionCode(LAY)
    word = logical_basis_state(code, (0,), compressed)
    damaged = apply_local_phase(word, 0, math.pi)
    rng = CountingRng(42)
    outcome, out = measure_stabilizer(damaged, code, 0, "s12", rng)
    assert rng.draws == 1
    assert outcome == -1
    assert out.fidelity(damaged) == pytest.approx(1.0, abs=1e-12)


def test_round_is_idempotent_on_its_own_output():
    rng = np.random.default_rng(43)
    code = RepetitionCode(LAY)
    state = apply_local_phase(random_codespace_state(code, rng), 2, math.pi)
    fixed, _ = qec_round(state, code, rng)
    again, syndromes = qec_round(fixed, code, rng)
    assert syndromes == [(+1, +1)]
    assert difference_norm(again, fixed) < 1e-12


def test_two_flips_in_different_blocks_are_both_repaired():
    lay = RegisterLayout(6, 6, 6, num_ancilla_qubits=1)
    rng = np.random.default_rng(44)
    code = RepetitionCode(lay)
    clean = random_codespace_state(code, rng)
    state = apply_local_phase(apply_local_phase(clean, 1, math.pi), 5, math.pi)
    fixed, syndromes = qec_round(state, code, rng)
    assert syndromes == [(-1, -1), (+1, -1)]
    assert fixed.fidelity(clean) == pytest.approx(1.0, abs=1e-12)


def test_two_flips_in_one_block_decode_to_a_logical_error():
    rng = np.random.default_rng(45)
    code = RepetitionCode(LAY)
    plus = add_states(
        logical_basis_state(code, (0,)),
        logical_basis_state(code, (1,)),
        1 / math.sqrt(2),
        1 / math.sqrt(2),
    )
    state = apply_local_phase(apply_local_phase(plus, 0, math.pi), 1, math.pi)
    fixed, syndromes = qec_round(state, code, rng)
    # the pair mimics a single flip on the remaining mode; the "repair"
    # completes a logical phase operator
    assert syndromes == [(+1, -1)]
    assert fixed.fidelity(plus) < 1e-12


def test_reference_flip_recovery_restores_the_word():
    rng = np.random.default_rng(46)
    code = RepetitionCode(LAY)
    for bits in ((0,), (1,)):
        word = logical_basis_state(code, bits)
        # mode 4 sits inside the bank prefix on some branches only, so the
        # flip genuinely entangles the bank with the system
        damaged = apply_local_phase(word, LAY.reference_mode(1), math.pi)
        assert damaged.fidelity(word) < 1.0 - 1e-6
        recovered = measure_reference_and_recover(damaged, code, rng)
        assert recovered.fidelity(word) == pytest.approx(1.0, abs=1e-12)


def test_recovery_rejects_states_outside_the_code_span():
    rng = np.random.default_rng(47)
    code = RepetitionCode(LAY)
    stray = add_states(
        h_basis_state(LAY, 0b001),
        h_basis_state(LAY, 0b100),
        1 / math.sqrt(2),
        1 / math.sqrt(2),
    )
    with pytest.raises(ValueError):
        measure_reference_and_recover(stray, code, rng)


@pytest.mark.parametrize("register", [(6, 5, 5), (9, 8, 8)])
@BY_READOUT
def test_readout_refuses_registers_with_fewer_atoms_than_system_modes(
    register, compressed
):
    # a codeword reaches N atoms on the system, where c^dag has nothing to
    # borrow and the stabilizer is not +-1
    code = RepetitionCode(RegisterLayout(*register, num_ancilla_qubits=1))
    state = random_codespace_state(code, np.random.default_rng(68), compressed)
    rng = CountingRng(2)
    with pytest.raises(ValueError, match="N >= M_s"):
        measure_stabilizer(state, code, 0, "s12", rng)
    assert rng.draws == 0


@BY_READOUT
def test_clean_round_leaves_a_code_state_alone(compressed):
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=1))
    state = random_codespace_state(code, np.random.default_rng(68), compressed)
    fixed, syndromes = qec_round(state, code, np.random.default_rng(2))
    assert syndromes == [(+1, +1), (+1, +1)]
    assert difference_norm(fixed, state) < 1e-12


@BY_READOUT
def test_readout_of_a_zero_state_fails_cleanly(compressed):
    code = RepetitionCode(LAY)
    zero = SparseState(LAY, {}, compressed)
    rng = CountingRng(5)
    with pytest.raises(ValueError, match="zero state"):
        measure_stabilizer(zero, code, 0, "s12", rng)
    assert rng.draws == 0


def _flipped_vacuum(code, compressed):
    """The logical vacuum after a pi phase on mode 0: s12 of block 0 reads
    -1 for certain, and the bank holds 1 or 3 atoms."""
    return apply_local_phase(prepare_logical_vacuum(code, compressed), 0, math.pi)


@BY_READOUT
def test_a_stabilizer_branch_of_zero_probability_fails_cleanly(compressed):
    code = RepetitionCode(LAY)
    p_plus, branch = split_stabilizer(_flipped_vacuum(code, compressed), code, 0, "s12")
    assert p_plus == 0.0
    with pytest.raises(ValueError, match="selected a zero-probability branch"):
        branch(+1)


@BY_READOUT
def test_a_count_branch_of_zero_probability_fails_cleanly(compressed):
    state = _flipped_vacuum(RepetitionCode(LAY), compressed)
    probs, branch = split_mode_number(state, LAY.reference_modes())
    assert sorted(probs) == [1, 3]
    for count in (0, 2, 4):
        with pytest.raises(ValueError, match="selected a zero-probability branch"):
            branch(count)


@pytest.mark.parametrize("flip", [None, *range(9)])
def test_gadget_and_projection_agree_draw_for_draw(flip):
    # the exchange register mid-shot: interferometer ancilla 1 in |+>,
    # readout on ancilla 0; a pi flip fixes every outcome, a 1.0 rad phase
    # leaves the flipped block's outcomes to the draws
    code = RepetitionCode(RegisterLayout(9, 9, 9, num_ancilla_qubits=2))
    start = apply_qubit_gate(logical_basis_state(code, (1, 1, 0)), "h", 1)
    for theta in (0.0,) if flip is None else (math.pi, 1.0):
        phys = start if flip is None else apply_local_phase(start, flip, theta)
        comp = compress(phys)
        rng_p, rng_c = np.random.default_rng(9), np.random.default_rng(9)
        outcomes = []
        for block in range(3):
            for which in ("s12", "s23"):
                o_p, phys = measure_stabilizer(phys, code, block, which, rng_p)
                o_c, comp = measure_stabilizer(comp, code, block, which, rng_c)
                assert o_p == o_c
                assert difference_norm(compress(phys), comp) < 1e-12
                outcomes.append(o_p)
        syndromes = list(zip(outcomes[::2], outcomes[1::2]))
        if flip is None:
            assert syndromes == [(1, 1)] * 3
        elif theta == math.pi:
            assert decode(syndromes[flip // 3]) == flip % 3
