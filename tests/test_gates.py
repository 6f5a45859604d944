"""Site-level gate behavior: explicit matrix elements on small registers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CountingRng

from fermiqec.backend import compress
from fermiqec.codes import RepetitionCode, stabilizer_majoranas
from fermiqec.gates import (
    apply_annihilation,
    apply_creation,
    apply_density_phase,
    apply_fswap,
    apply_local_phase,
    apply_qubit_gate,
    apply_tunneling,
    draw_sign,
    measure_mode_number,
    measure_qubit,
    number_expectation,
    select_count,
    split_mode_number,
    split_qubit,
    to_measurement_basis,
)
from fermiqec.reference import apply_majorana, random_h_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import (
    SparseState,
    add_states,
    basis_state,
    apply_map,
    difference_norm,
    random_full_state,
    weight_sum,
)

LAY = RegisterLayout(3, 3, 3)


def test_local_phase_only_touches_occupied():
    psi = add_states(basis_state(LAY, 0b000), basis_state(LAY, 0b001))
    out = apply_local_phase(psi, 0, 0.7)
    assert out.entries[0b000] == psi.entries[0b000]
    assert out.entries[0b001] == pytest.approx(psi.entries[0b001] * np.exp(0.7j))


def test_density_phase_needs_double_occupation():
    psi = add_states(basis_state(LAY, 0b011), basis_state(LAY, 0b001))
    out = apply_density_phase(psi, 0, 1, 1.1)
    assert out.entries[0b001] == psi.entries[0b001]
    assert out.entries[0b011] == pytest.approx(psi.entries[0b011] * np.exp(1.1j))


def test_tunneling_rotation_on_single_particle():
    theta = 0.4
    psi = basis_state(LAY, 0b001)
    out = apply_tunneling(psi, 0, 1, theta)
    # e^(i theta (s0† s1 + s1† s0)) rotates within the two-level pair
    assert out.entries[0b001] == pytest.approx(math.cos(theta))
    assert out.entries[0b010] == pytest.approx(1j * math.sin(theta))
    assert abs(out.norm() - 1.0) < 1e-14


def test_tunneling_is_unitary_and_inverse():
    rng = np.random.default_rng(11)
    psi = random_full_state(LAY, rng)
    out = apply_tunneling(apply_tunneling(psi, 0, 2, 0.9), 0, 2, -0.9)
    assert difference_norm(out, psi) < 1e-13


def test_fswap_exchanges_and_signs_double_occupation():
    single = basis_state(LAY, 0b001)
    assert list(apply_fswap(single, 0, 1).entries) == [0b010]
    double = basis_state(LAY, 0b011)
    out = apply_fswap(double, 0, 1)
    assert out.entries[0b011] == -1.0  # both occupied: fermionic minus sign
    empty = basis_state(LAY, 0b100)
    assert apply_fswap(empty, 0, 1).entries[0b100] == 1.0


def test_ladder_operators_anticommute_across_modes():
    rng = np.random.default_rng(12)
    psi = random_full_state(LAY, rng)
    anti = add_states(
        apply_creation(apply_annihilation(psi, 0), 2),
        apply_annihilation(apply_creation(psi, 2), 0),
    )
    assert anti.norm() < 1e-13


def test_number_expectation():
    psi = add_states(basis_state(LAY, 0b001), basis_state(LAY, 0b010), 0.6, 0.8)
    assert number_expectation(psi, 0) == pytest.approx(0.36)
    assert number_expectation(psi, 1) == pytest.approx(0.64)
    assert number_expectation(psi, 2) == 0.0


def test_qubit_gate_algebra():
    lay = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)
    psi = basis_state(lay, 0)
    plus = apply_qubit_gate(psi, "h", 0)
    assert apply_qubit_gate(plus, "h", 0).fidelity(psi) == pytest.approx(1.0)
    # s . s = z on the ancilla
    via_s = apply_qubit_gate(apply_qubit_gate(plus, "s", 0), "s", 0)
    via_z = apply_qubit_gate(plus, "z", 0)
    assert difference_norm(via_s, via_z) < 1e-15


def test_measure_qubit_single_draw_and_renormalization():
    lay = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)
    plus = apply_qubit_gate(basis_state(lay, 0), "h", 0)
    for seed in range(8):
        rng = CountingRng(seed)
        outcome, post = measure_qubit(plus, 0, rng)
        assert rng.draws == 1
        assert outcome in (+1, -1)
        assert abs(post.norm() - 1.0) < 1e-14
        bit = 1 << lay.ancilla_bit(0)
        want = 0 if outcome == +1 else bit
        assert all(l & bit == want for l in post.entries)


def test_measure_qubit_y_basis_definite_state():
    lay = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)
    # |+i> = S H |0>: a y measurement must give +1 with certainty
    psi = apply_qubit_gate(apply_qubit_gate(basis_state(lay, 0), "h", 0), "s", 0)
    for seed in range(16):
        outcome, _ = measure_qubit(psi, 0, np.random.default_rng(seed), basis="y")
        assert outcome == +1


def test_measure_mode_number_collapses_count():
    rng = CountingRng(3)
    psi = add_states(basis_state(LAY, 0b001), basis_state(LAY, 0b011))
    count, post = measure_mode_number(psi, (0, 1, 2), rng)
    assert rng.draws == 1
    assert count in (1, 2)
    assert abs(post.norm() - 1.0) < 1e-14
    assert all(bin(l & 0b111).count("1") == count for l in post.entries)


def _count_split_by_label(state, modes):
    """The reference for ``split_mode_number``: amplitudes grouped by count
    one label at a time, one ``weight_sum`` per count and one for the
    norm, and the branch as a per-label projection."""
    mask = sum(1 << m for m in modes)
    count = state.layout.counter(mask, state.compressed)
    total = state.norm_sq()
    by_count = {}
    for l, a in state.entries.items():
        by_count.setdefault(count(l), []).append(a)
    probs = {c: weight_sum(by_count[c]) / total for c in sorted(by_count)}

    def branch(selected):
        scale = 1.0 / math.sqrt(probs[selected] * total)
        return apply_map(state, lambda l: ((l, scale),) if count(l) == selected else ())

    return probs, branch


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("sizes", [(3, 4, 4), (9, 9, 9)])
def test_split_mode_number_matches_the_per_label_loop(sizes, compressed):
    lay = RegisterLayout(*sizes, num_ancilla_qubits=2)
    for seed in range(4):
        psi = random_h_state(lay, np.random.default_rng(seed))
        psi = compress(psi) if compressed else psi
        for modes in (lay.reference_modes(), (0, 2), tuple(range(lay.num_fermion_modes))):
            probs, branch = split_mode_number(psi, modes)
            want, want_branch = _count_split_by_label(psi, modes)
            assert list(probs.items()) == list(want.items())  # bit for bit, in order
            for c in want:
                got = branch(c).entries
                assert list(got.items()) == list(want_branch(c).entries.items())


def test_measure_mode_number_definite_count_is_deterministic():
    psi = basis_state(LAY, 0b011)
    for seed in range(5):
        count, post = measure_mode_number(psi, (0, 1, 2), np.random.default_rng(seed))
        assert count == 2
        assert post.fidelity(psi) == pytest.approx(1.0)


#: The largest double a generator's ``random()`` returns.
TOP = 1.0 - 2.0**-53


def fixed_draw(u):
    """A generator whose every draw is ``u``."""
    return SimpleNamespace(random=lambda: u)


def test_draw_sign_gives_plus_only_strictly_below_p():
    assert draw_sign(0.3, fixed_draw(float(np.nextafter(0.3, 0.0)))) == +1
    assert draw_sign(0.3, fixed_draw(0.3)) == -1
    assert draw_sign(0.0, fixed_draw(0.0)) == -1
    assert draw_sign(1.0, fixed_draw(TOP)) == +1


def test_select_count_walks_the_ascending_cumulative_sum():
    probs = {0: 0.25, 1: 0.5, 3: 0.25}
    draws = (0.0, float(np.nextafter(0.25, 0.0)), 0.25, 0.5, 0.75, TOP)
    assert [select_count(probs, u) for u in draws] == [0, 0, 1, 1, 3, 3]
    # rounding can leave the sum at or below the largest draw: then the
    # largest count is picked
    assert 0.7 + 0.2 + 0.1 == TOP
    assert select_count({0: 0.7, 1: 0.2, 2: 0.1}, TOP) == 2
    assert select_count({2: 0.5, 5: 0.25}, 0.75) == 5


@pytest.mark.parametrize("compressed", [False, True])
def test_zero_states_fail_cleanly(compressed):
    lay = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)
    zero = SparseState(lay, {}, compressed)
    for measure in (
        lambda: number_expectation(zero, 0),
        lambda: number_expectation(zero, lay.reference_mode(1)),
        lambda: measure_qubit(zero, 0, np.random.default_rng(0)),
        lambda: measure_mode_number(zero, (0, 4), np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match=r"cannot measure a \(numerically\) zero"):
            measure()


def test_number_expectation_checks_the_mode():
    with pytest.raises(ValueError, match="outside"):
        number_expectation(basis_state(LAY, 0b001), LAY.num_fermion_modes)


def test_number_expectation_agrees_across_representations():
    lay = RegisterLayout(6, 7, 5)
    psi = random_h_state(lay, np.random.default_rng(8))
    short = compress(psi)
    for mode in range(lay.num_fermion_modes):
        assert number_expectation(short, mode) == number_expectation(psi, mode)


_TWO_ANCILLAS = basis_state(RegisterLayout(3, 3, 3, num_ancilla_qubits=2), 0b001)
_TWO_BLOCKS = RepetitionCode(RegisterLayout(6, 6, 6))

#: name -> (a call with one bad argument, the message it fails with)
BAD_GATE_ARGUMENTS = {
    "unknown_qubit_gate": (
        lambda: apply_qubit_gate(_TWO_ANCILLAS, "x", 0), "unknown qubit gate 'x'"
    ),
    "cz_is_not_a_kind": (
        lambda: apply_qubit_gate(_TWO_ANCILLAS, "cz", 0, 1), "unknown qubit gate 'cz'"
    ),
    "phase_without_theta": (
        lambda: apply_qubit_gate(_TWO_ANCILLAS, "phase", 0), "phase gate needs theta"
    ),
    "cphase_without_theta": (
        lambda: apply_qubit_gate(_TWO_ANCILLAS, "cphase", 0, 1), "cphase needs theta"
    ),
    "cphase_without_second_qubit": (
        lambda: apply_qubit_gate(_TWO_ANCILLAS, "cphase", 0, theta=1.1),
        "cphase needs a second qubit",
    ),
    "cphase_on_one_qubit": (
        lambda: apply_qubit_gate(_TWO_ANCILLAS, "cphase", 1, 1, 1.1),
        "cphase needs two distinct qubits",
    ),
    "measurement_basis": (
        lambda: to_measurement_basis(_TWO_ANCILLAS, 0, "w"),
        "unknown measurement basis 'w'",
    ),
    "majorana_kind": (
        lambda: apply_majorana(_TWO_ANCILLAS, 0, "z"), "unknown Majorana kind 'z'"
    ),
    "stabilizer": (
        lambda: stabilizer_majoranas(_TWO_BLOCKS, 0, "s13"), "unknown stabilizer 's13'"
    ),
    "block_out_of_range": (
        lambda: _TWO_BLOCKS.block_modes(2), "block 2 outside register"
    ),
    "zero_probability_branch": (
        lambda: split_qubit(_TWO_ANCILLAS, 0)[1](-1),
        "selected a zero-probability branch",
    ),
}


@pytest.mark.parametrize(
    "call, match", BAD_GATE_ARGUMENTS.values(), ids=BAD_GATE_ARGUMENTS.keys()
)
def test_bad_gate_arguments_fail_with_their_own_message(call, match):
    with pytest.raises(ValueError, match=match):
        call()
