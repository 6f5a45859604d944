"""Logical gates: transversal swap, diagonal oracles, ancilla gadgets."""

import math

import numpy as np
import pytest

from fermiqec.codes import (
    RepetitionCode,
    logical_basis_state,
    random_codespace_state,
)
from fermiqec.gates import apply_qubit_gate
from fermiqec.logical import (
    controlled_tunneling_logical,
    fswap_logical,
    logical_density_exact,
    phase_gadget_logical,
    tunneling_logical,
)
from fermiqec.registers import RegisterLayout
from fermiqec.states import add_states, difference_norm

LAY2 = RegisterLayout(6, 6, 6, num_ancilla_qubits=2)
CODE2 = RepetitionCode(LAY2)


def word(bits, compressed=True):
    return logical_basis_state(CODE2, bits, compressed=compressed)


def test_fswap_on_the_logical_words():
    assert difference_norm(fswap_logical(word((1, 0)), CODE2, 0, 1), word((0, 1))) < 1e-13
    assert difference_norm(fswap_logical(word((0, 1)), CODE2, 0, 1), word((1, 0))) < 1e-13
    assert difference_norm(fswap_logical(word((0, 0)), CODE2, 0, 1), word((0, 0))) < 1e-13
    minus = fswap_logical(word((1, 1)), CODE2, 0, 1)
    assert difference_norm(minus, word((1, 1)).with_entries(
        {l: -a for l, a in word((1, 1)).entries.items()}
    )) < 1e-13


def test_fswap_is_an_involution():
    rng = np.random.default_rng(51)
    psi = random_codespace_state(CODE2, rng, compressed=True)
    twice = fswap_logical(fswap_logical(psi, CODE2, 0, 1), CODE2, 0, 1)
    assert difference_norm(twice, psi) < 1e-13


def test_fswap_agrees_between_representations():
    rng = np.random.default_rng(52)
    psi = random_codespace_state(CODE2, rng, compressed=False)
    compact = random_codespace_state(
        CODE2, np.random.default_rng(52), compressed=True
    )
    a = fswap_logical(psi, CODE2, 0, 1)
    b = fswap_logical(compact, CODE2, 0, 1)
    # same codeword coefficients, so compare in the word basis
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert word(bits, compressed=False).inner(a) == pytest.approx(
            word(bits).inner(b), abs=1e-13
        )


def test_tunneling_rotates_within_the_odd_parity_pair():
    theta = 0.37
    out = tunneling_logical(word((1, 0)), CODE2, 0, 1, theta)
    want = add_states(
        word((1, 0)), word((0, 1)), math.cos(theta), 1j * math.sin(theta)
    )
    assert difference_norm(out, want) < 1e-13


def test_tunneling_leaves_even_parity_words_alone():
    for bits in ((0, 0), (1, 1)):
        out = tunneling_logical(word(bits), CODE2, 0, 1, 0.81)
        assert difference_norm(out, word(bits)) < 1e-13


def test_phase_gadget_parks_the_ancilla():
    rng = np.random.default_rng(54)
    psi = random_codespace_state(CODE2, rng, compressed=True)
    anc = 1 << LAY2.ancilla_bit(0, compressed=True)
    for theta in (math.pi / 4, math.pi / 2, math.pi):
        gadget = phase_gadget_logical(psi, CODE2, 1, theta)
        assert all(not l & anc for l in gadget.entries)


def test_density_oracle_phases_only_the_doubly_occupied_word():
    theta = 0.64
    ph = complex(math.cos(theta), math.sin(theta))
    for bits in ((0, 0), (0, 1), (1, 0)):
        assert difference_norm(
            logical_density_exact(word(bits), CODE2, 0, 1, theta), word(bits)
        ) < 1e-13
    out = logical_density_exact(word((1, 1)), CODE2, 0, 1, theta)
    want = word((1, 1)).with_entries(
        {l: ph * a for l, a in word((1, 1)).entries.items()}
    )
    assert difference_norm(out, want) < 1e-13


def test_controlled_tunneling_acts_on_the_marked_branch_only():
    theta = math.pi / 2
    plus = apply_qubit_gate(word((1, 0)), "h", 0)  # control in |+>
    out = controlled_tunneling_logical(plus, 0, CODE2, 0, 1, theta)
    bit = 1 << LAY2.ancilla_bit(0, compressed=True)
    idle = out.with_entries({l: a for l, a in out.entries.items() if not l & bit})
    hopped = out.with_entries(
        {l ^ bit: a for l, a in out.entries.items() if l & bit}
    )
    root2 = math.sqrt(2)
    assert difference_norm(idle, word((1, 0)).with_entries(
        {l: a / root2 for l, a in word((1, 0)).entries.items()}
    )) < 1e-13
    want = tunneling_logical(word((1, 0)), CODE2, 0, 1, theta)
    assert difference_norm(hopped, want.with_entries(
        {l: a / root2 for l, a in want.entries.items()}
    )) < 1e-13
