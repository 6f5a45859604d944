"""Stack behavior of the edge operators and the dressed fermions.

The bank keeps its atoms in a contiguous prefix; R pops the top of that
prefix and R† pushes onto it, so explicit basis states make every matrix
element predictable by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fermiqec.gates import LocalPhase, Tunneling, apply_gate_op, apply_local_phase
from fermiqec.reference import (
    apply_c,
    apply_c_dagger,
    apply_D_decomposed,
    apply_D_exact,
    apply_majorana,
    apply_R,
    apply_R_dagger,
    controlled_D,
    h_basis_state,
    is_in_H,
    majorana_rotation_gates,
    random_h_state,
)
from fermiqec.registers import RegisterLayout
from fermiqec.states import SparseState, add_states, basis_state, difference_norm

LAY = RegisterLayout(3, 3, 3)
TALL = RegisterLayout(3, 5, 4)


def test_h_basis_state_pairs_system_with_bank_prefix():
    psi = h_basis_state(LAY, 0b101)
    (label,) = psi.entries
    # two atoms on the system leaves one in the bank prefix
    assert label & 0b111 == 0b101
    assert label >> 3 == 0b001
    assert is_in_H(psi)


def test_R_pops_the_prefix_top():
    # all three atoms banked: prefix 111, R removes r_3
    full_bank = h_basis_state(LAY, 0b000)
    out = apply_R(full_bank)
    (label,) = out.entries
    assert label >> 3 == 0b011
    assert out.entries[label] == 1.0
    # empty bank: nothing to pop
    empty_bank = h_basis_state(LAY, 0b111)
    assert not apply_R(empty_bank).entries


def test_R_dagger_pushes_onto_the_prefix():
    empty_bank = h_basis_state(LAY, 0b111)
    # bank full of holes but no free *stack slot* above N when M_r = N:
    # pushing onto a fully stacked bank must vanish
    full_bank = h_basis_state(LAY, 0b000)
    assert not apply_R_dagger(full_bank).entries
    out = apply_R_dagger(empty_bank)
    (label,) = out.entries
    assert label >> 3 == 0b001


def test_dressed_operators_conserve_total_atoms():
    rng = np.random.default_rng(21)
    psi = random_h_state(LAY, rng)
    for mode in range(3):
        for op in (apply_c, apply_c_dagger):
            out = op(psi, mode)
            for label in out.entries:
                assert bin(label).count("1") == LAY.total_atoms


def test_c_dagger_vanishes_when_the_bank_is_empty():
    # every atom already on the system: no referenced atom left to move
    psi = h_basis_state(LAY, 0b111)
    for mode in range(3):
        assert apply_c(psi, mode).norm() == pytest.approx(1.0)
        out = apply_c_dagger(psi, mode)
        assert not out.entries


def test_majorana_squares_to_identity_on_H():
    rng = np.random.default_rng(22)
    for kind in ("x", "y"):
        psi = random_h_state(TALL, rng)
        twice = apply_majorana(apply_majorana(psi, 1, kind), 1, kind)
        assert difference_norm(twice, psi) < 1e-13


def test_D_exact_refuses_inconsistent_states():
    stray = basis_state(LAY, 0b001_001)  # bank pattern doesn't match count
    with pytest.raises(ValueError):
        apply_D_exact(stray, 0, 0.3)


def test_D_exact_preserves_consistency_and_norm():
    rng = np.random.default_rng(23)
    psi = random_h_state(LAY, rng)
    out = apply_D_exact(psi, 2, 1.3)
    assert is_in_H(out)
    assert abs(out.norm() - 1.0) < 1e-12


def test_D_prime_is_the_y_rotation():
    rng = np.random.default_rng(24)
    psi = random_h_state(LAY, rng)
    for mode in range(3):
        # exp(i theta y) = P(pi/2) exp(i theta x) P(-pi/2), P a phase on the mode
        conjugated = apply_local_phase(psi, mode, -math.pi / 2)
        conjugated = apply_D_exact(conjugated, mode, 0.77, "x")
        conjugated = apply_local_phase(conjugated, mode, math.pi / 2)
        y_rotation = apply_D_exact(psi, mode, 0.77, kind="y")
        assert difference_norm(conjugated, y_rotation) < 1e-12


def test_decomposed_rotation_gate_budget():
    # one tunneling pair and one neighbor-parity phase pair per bank mode;
    # the parity factors are two-mode phases except at the bank edges,
    # where the missing neighbor leaves four single-mode phases
    for lay in (LAY, TALL):
        ops = majorana_rotation_gates(lay, 0, 0.5)
        m_r = lay.num_reference_modes
        assert len(ops) == 6 * m_r
        assert sum(isinstance(op, Tunneling) for op in ops) == 2 * m_r
        assert sum(isinstance(op, LocalPhase) for op in ops) == 4


def test_decomposed_rotation_composes_like_the_exact_one():
    rng = np.random.default_rng(25)
    psi = random_h_state(TALL, rng)
    a = apply_D_decomposed(apply_D_decomposed(psi, 1, 0.3), 1, 0.5)
    b = apply_D_exact(psi, 1, 0.8)
    assert difference_norm(a, b) < 1e-10


@pytest.mark.parametrize("kind", ["x", "y"])
def test_exact_rotation_is_unitary_when_the_system_can_hold_every_atom(kind):
    # N < M_s: labels with an empty bank and an empty target mode are
    # annihilated by x and y, so the rotation must leave them alone
    lay = RegisterLayout(6, 5, 5)
    psi = random_h_state(lay, np.random.default_rng(28))
    for mode in range(lay.num_system_modes):
        exact = apply_D_exact(psi, mode, 0.7, kind)
        assert difference_norm(exact, apply_D_decomposed(psi, mode, 0.7, kind)) < 1e-12
        assert exact.norm() == pytest.approx(1.0, abs=1e-12)


def test_controlled_D_acts_only_on_the_set_branch():
    lay = RegisterLayout(3, 3, 3, num_ancilla_qubits=1)
    rng = np.random.default_rng(26)
    psi = random_h_state(lay, rng)
    bit = 1 << lay.ancilla_bit(0)
    excited = psi.with_entries({l | bit: a for l, a in psi.entries.items()})

    # ancilla |0>: identity
    assert difference_norm(controlled_D(psi, 0, 1, 0.9), psi) < 1e-13

    # ancilla |1>: the plain rotation
    want = apply_D_exact(psi, 1, 0.9)
    got = controlled_D(excited, 0, 1, 0.9)
    lowered = got.with_entries({l & ~bit: a for l, a in got.entries.items()})
    assert difference_norm(lowered, want) < 1e-12


def test_number_conserving_gates_stay_on_H():
    rng = np.random.default_rng(27)
    psi = random_h_state(LAY, rng)
    for op in (Tunneling(0, 2, 0.4), LocalPhase(1, 1.0), LocalPhase(4, 2.0)):
        psi, _ = apply_gate_op(psi, op, rng)
        assert is_in_H(psi)


def test_reference_basis_bits_bounds():
    assert LAY.bank_bits(3) == 0
    assert LAY.bank_bits(0) == 0b111 << 3
    with pytest.raises(ValueError, match="no reference prefix holds -1 atoms"):
        LAY.bank_bits(4)


def _in_H_per_label(state):
    """The consistent-subspace rule read off label by label."""
    lay = state.layout
    for l in state.entries:
        n_sys = (l & lay.system_mask).bit_count()
        if not lay.holds(n_sys):
            return False
        if l & lay.reference_mask != lay.bank_bits(n_sys):
            return False
    return True


@given(
    # (9, 8, 8) and (5, 4, 3) have system counts no bank can balance
    sizes=st.sampled_from([(3, 3, 3), (9, 8, 8), (5, 4, 3), (4, 6, 5)]),
    seed=st.integers(0, 2**32 - 1),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 20)), max_size=3),
)
# the lowest label of (9, 8, 8) holds eight system atoms and an empty bank;
# a ninth system atom leaves the bank empty but no bank can balance nine
@example(sizes=(9, 8, 8), seed=0, flips=[(0, 8)])
def test_is_in_H_matches_the_per_label_rule(sizes, seed, flips):
    lay = RegisterLayout(*sizes, num_ancilla_qubits=1)
    entries = dict(random_h_state(lay, np.random.default_rng(seed)).entries)
    width = lay.num_fermion_modes + lay.num_ancilla_qubits
    for pick, bit in flips:
        label = sorted(entries)[pick % len(entries)]
        entries[label ^ 1 << (bit % width)] = entries.pop(label)
    state = SparseState(lay, entries)
    assert is_in_H(state) == _in_H_per_label(state)
