"""Code-construction facts pinned as explicit amplitude oracles.

The single-block codeword expansions below are derived by hand from the
defining requirements (both stabilizers at +1, the lowering operator
killing the empty word) in the standard ordering |n1 n2 n3> =
(c1†)^n1 (c2†)^n2 (c3†)^n3 |vacuum>; bits (0, 1, 2) hold modes (1, 2, 3).
"""

import itertools
import math

import numpy as np
import pytest
from conftest import on_ancillas, spread_h_state

from fermiqec.backend import compress

from fermiqec.codes import (
    RepetitionCode,
    SteaneCode,
    apply_loss_kraus,
    apply_stabilizer,
    kl_check,
    logical_basis_state,
    prepare_logical_vacuum,
    project_codespace,
    random_codespace_state,
    stabilizer_expectation,
)
from fermiqec.gates import apply_annihilation, apply_local_phase, split_mode_number
from fermiqec.registers import RegisterLayout
from fermiqec.states import (
    SparseState,
    add_states,
    basis_state,
    difference_norm,
    random_full_state,
)

SQUARE = RegisterLayout(3, 3, 3)


def _register_id(sizes):
    return "+".join(map(str, sizes))


def test_block_size_must_divide_system():
    with pytest.raises(ValueError):
        RepetitionCode(RegisterLayout(7, 7, 7))
    code = RepetitionCode(RegisterLayout(9, 9, 9))
    assert code.num_blocks == 3


#: (1 + i c1†c2† - i c2†c3† + c1†c3†)/2 on the empty block.
EMPTY_WORD = {0b000: 0.5, 0b011: 0.5j, 0b110: -0.5j, 0b101: 0.5}


def test_empty_word_expansion():
    word = logical_basis_state(RepetitionCode(SQUARE), (0,), compressed=True)
    amps = word.entries
    assert sorted(amps) == [0b000, 0b011, 0b101, 0b110]
    assert amps[0b000] == 0.5
    assert amps[0b011] == 0.5j
    assert amps[0b110] == -0.5j
    assert amps[0b101] == 0.5


@pytest.mark.parametrize(
    "sizes", [(3, 3, 3), (6, 6, 6, 1), (9, 9, 9, 2), (6, 5, 5)], ids=_register_id
)
def test_logical_vacuum_is_the_empty_word_on_every_block(sizes):
    lay = RegisterLayout(*sizes[:3], num_ancilla_qubits=sum(sizes[3:]))
    code = RepetitionCode(lay)
    want = {0: 1.0}
    for block in range(code.num_blocks):
        want = {
            l | word << 3 * block: a * b
            for l, a in want.items()
            for word, b in EMPTY_WORD.items()
        }
    assert prepare_logical_vacuum(code, compressed=True).entries == want
    assert compress(prepare_logical_vacuum(code)).entries == want


def test_logical_vacuum_needs_two_atoms_per_block():
    with pytest.raises(ValueError, match="two atoms each"):
        prepare_logical_vacuum(RepetitionCode(RegisterLayout(6, 6, 3)))


def test_occupied_word_expansion():
    word = logical_basis_state(RepetitionCode(SQUARE), (1,), compressed=True)
    amps = word.entries
    assert sorted(amps) == [0b001, 0b010, 0b100, 0b111]
    anchor = amps[0b111] / 1j
    assert abs(anchor) == pytest.approx(0.5)
    # (i c1†c2†c3† - c1† + i c2† + c3†)/2 on the empty block
    assert amps[0b001] == pytest.approx(anchor * -1.0)
    assert amps[0b010] == pytest.approx(anchor * 1j)
    assert amps[0b100] == pytest.approx(anchor * 1.0)


def test_codewords_are_orthonormal():
    code = RepetitionCode(RegisterLayout(6, 6, 6))
    words = code.codespace_states()
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            assert a.inner(b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_stabilizers_square_to_identity():
    rng = np.random.default_rng(31)
    code = RepetitionCode(SQUARE)
    psi = random_codespace_state(code, rng)
    for which in ("s12", "s23"):
        twice = apply_stabilizer(apply_stabilizer(psi, code, 0, which), code, 0, which)
        assert difference_norm(twice, psi) < 1e-13


def test_flipped_word_is_orthogonal_to_the_code_space():
    code = RepetitionCode(SQUARE)
    for bits in ((0,), (1,)):
        word = logical_basis_state(code, bits)
        flipped = apply_local_phase(word, 1, math.pi)
        assert project_codespace(flipped, code).norm() < 1e-13
        assert stabilizer_expectation(flipped, code, 0, "s12") == pytest.approx(-1.0)


def test_project_codespace_is_idempotent():
    rng = np.random.default_rng(32)
    code = RepetitionCode(SQUARE)
    psi = random_full_state(SQUARE, rng)
    once = project_codespace(psi, code)
    twice = project_codespace(once, code)
    assert difference_norm(once, twice) < 1e-13


def test_project_codespace_keeps_ancilla_entanglement():
    lay = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)
    code = RepetitionCode(lay)
    w0 = logical_basis_state(code, (0,), compressed=True)
    w1 = logical_basis_state(code, (1,), compressed=True)
    bit = 1 << lay.ancilla_bit(0, compressed=True)
    entangled = w0.with_entries(
        {
            **{l: a / math.sqrt(2) for l, a in w0.entries.items()},
            **{l | bit: a / math.sqrt(2) for l, a in w1.entries.items()},
        }
    )
    projected = project_codespace(entangled, code)
    assert difference_norm(projected, entangled) < 1e-13

    # junk on one branch is removed without touching the other branch
    junk = add_states(  # orthogonal to both codewords
        basis_state(lay, 0b001, compressed=True),
        basis_state(lay, 0b100, compressed=True),
    )
    dirty = add_states(entangled, junk, 1.0, 0.5)
    assert difference_norm(project_codespace(dirty, code), entangled) < 1e-13


def test_dephasing_set_is_correctable_and_loss_pairs_are_not():
    code = RepetitionCode(SQUARE)
    words = code.codespace_states()
    identity = lambda s: s
    flips = [(lambda s, m=m: apply_local_phase(s, m, math.pi)) for m in range(3)]
    losses = [(lambda s, m=m: apply_annihilation(s, m)) for m in range(3)]

    # a loss on one *known* mode is heralded by the atom count and passes
    assert kl_check(words, [identity, *flips, losses[0]]).passed

    # losses on unknown modes fail: the (1,3) pair depends on the codeword
    report = kl_check(words, losses)
    assert not report.passed
    assert report.matrix[0, 0, 2, 0] == pytest.approx(0.25)
    assert report.matrix[0, 1, 2, 1] == pytest.approx(-0.25)
    assert report.max_codeword_dependence == pytest.approx(0.5)


def test_loss_channel_is_trace_preserving():
    rng = np.random.default_rng(33)
    lay = RegisterLayout(7, 7, 7)
    psi = random_full_state(lay, rng)
    p = 0.01
    total = math.fsum(
        apply_loss_kraus(psi, index, p).norm_sq() for index in range(15)
    )
    assert total == pytest.approx(psi.norm_sq())
    with pytest.raises(ValueError):
        apply_loss_kraus(psi, 15, p)
    with pytest.raises(ValueError):
        apply_loss_kraus(psi, 0, 0.2)  # 7 * p > 1


def test_steane_codewords_and_stabilizers():
    code = SteaneCode(RegisterLayout(7, 7, 7))
    words = code.codewords()
    assert len(words) == 2
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            assert a.inner(b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
    for w in words:
        for g in range(3):
            assert difference_norm(code.apply_z_stabilizer(w, g), w) < 1e-12
            assert difference_norm(code.apply_x_stabilizer(w, g), w) < 1e-12
    with pytest.raises(ValueError):
        SteaneCode(RegisterLayout(6, 6, 6))


# ---------------------------------------------------------------------------
# the tabulated code space against one inner product per word
# ---------------------------------------------------------------------------


def _patterns(code):
    """Every logical pattern the register can hold, in product order."""
    spare = code.layout.total_atoms - 2 * code.num_blocks
    return [
        bits
        for bits in itertools.product((0, 1), repeat=code.num_blocks)
        if sum(bits) <= spare
    ]


def _bits(state):
    """Each entry as (label, real bits, imaginary bits), in entry order."""
    return [(l, a.real.hex(), a.imag.hex()) for l, a in state.entries.items()]


def _project_by_inner(state, code):
    """The code-space projection as one ``w.inner(part)`` per word and
    ancilla group, the words built one :func:`logical_basis_state` each."""
    lay, compressed = state.layout, state.compressed
    words = [logical_basis_state(code, bits, compressed) for bits in _patterns(code)]
    fermions = lay.system_mask if compressed else lay.system_mask | lay.reference_mask
    groups = {}
    for l, a in state.entries.items():
        groups.setdefault(l & ~fermions, {})[l & fermions] = a
    out = {}
    for base, sub in groups.items():
        part = SparseState(lay, sub, compressed)
        for w in words:
            ov = w.inner(part)
            if ov != 0.0:
                for l, wl in w.entries.items():
                    out[base | l] = out.get(base | l, 0j) + ov * wl
    return state.with_entries(out)


def _projection_inputs(lay, seed):
    """Random physical and compressed states over every ancilla pattern,
    each also after reference phases and a bank-count branch."""
    code = RepetitionCode(lay)
    physical = spread_h_state(lay, seed)
    rng = np.random.default_rng(seed)
    coded = random_codespace_state(code, rng)
    for pattern in range(1, 1 << lay.num_ancilla_qubits):
        word = random_codespace_state(code, rng)
        coded = add_states(coded, on_ancillas(word, pattern), 1.0, rng.normal())
    for mode in lay.reference_modes():
        coded = apply_local_phase(coded, mode, rng.uniform(0, 2 * math.pi))
    for state in (physical, coded):
        for rep in (state, compress(state)):
            yield rep
            probs, branch = split_mode_number(rep, lay.reference_modes())
            for count in probs:
                yield branch(count)


@pytest.mark.parametrize("ancillas", [0, 1, 2])
@pytest.mark.parametrize("sizes", [(3, 3, 3), (6, 6, 6), (6, 6, 5)], ids=_register_id)
def test_project_codespace_matches_one_inner_per_word(sizes, ancillas):
    lay = RegisterLayout(*sizes, num_ancilla_qubits=ancillas)
    code = RepetitionCode(lay)
    for seed in range(2):
        for state in _projection_inputs(lay, seed):
            want = _bits(_project_by_inner(state, code))
            assert want  # every input has a code-space part
            assert _bits(project_codespace(state, code)) == want


def test_project_codespace_of_a_full_state_matches_one_inner_per_word():
    lay = RegisterLayout(6, 6, 6)
    code = RepetitionCode(lay)
    psi = random_full_state(lay, np.random.default_rng(33))
    assert _bits(project_codespace(psi, code)) == _bits(_project_by_inner(psi, code))


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize(
    "sizes", [(3, 3, 3), (6, 6, 5), (6, 6, 6), (9, 9, 9), (6, 6, 3)], ids=_register_id
)
def test_codespace_states_are_the_logical_basis_states_in_order(sizes, compressed):
    code = RepetitionCode(RegisterLayout(*sizes, num_ancilla_qubits=2))
    want = [_bits(logical_basis_state(code, bits, compressed)) for bits in _patterns(code)]
    assert [_bits(w) for w in code.codespace_states(compressed)] == want
