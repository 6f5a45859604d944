import math

import numpy as np
import pytest

from fermiqec.reference import is_in_H, random_h_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import (
    SparseState,
    add_states,
    basis_state,
    difference_norm,
    phase_factor,
    random_full_state,
    scale_state,
)

LAY = RegisterLayout(3, 3, 3)


def test_basis_state_and_norm():
    psi = basis_state(LAY, 0b101_011)
    assert psi.norm() == 1.0
    assert psi.norm_sq() == 1.0
    assert list(psi.entries) == [0b101_011]


def test_add_and_scale():
    a = basis_state(LAY, 0b000_000)
    b = basis_state(LAY, 0b000_001)
    combo = add_states(a, b, 0.6, 0.8j)
    assert abs(combo.norm() - 1.0) < 1e-15
    assert combo.entries[0] == 0.6
    assert combo.entries[1] == 0.8j
    assert scale_state(combo, 2.0).norm_sq() == pytest.approx(4.0)


def test_with_entries_prunes_dust():
    psi = basis_state(LAY, 0)
    out = psi.with_entries({0: 1.0, 1: 1e-20})
    assert list(out.entries) == [0]


def test_inner_is_conjugate_linear_in_the_bra():
    rng = np.random.default_rng(5)
    a = random_full_state(LAY, rng)
    b = random_full_state(LAY, rng)
    assert a.inner(b) == pytest.approx(np.conj(b.inner(a)))
    assert a.inner(a) == pytest.approx(a.norm_sq())


def test_fidelity_ignores_global_phase():
    rng = np.random.default_rng(6)
    psi = random_full_state(LAY, rng)
    rotated = scale_state(psi, phase_factor(1.234))
    assert 1.0 - psi.fidelity(rotated) < 1e-14


def test_phase_factor_exact_at_right_angles():
    assert phase_factor(math.pi / 2) == 1j
    assert phase_factor(math.pi) == -1.0
    assert phase_factor(-math.pi / 2) == -1j
    assert phase_factor(0.0) == 1.0


def test_zero_state_and_difference_norm():
    z = SparseState(LAY, {}, False)
    psi = basis_state(LAY, 0)
    assert difference_norm(psi, psi) == 0.0
    assert difference_norm(psi, z) == 1.0


def test_mixed_representation_operations_refuse():
    phys = basis_state(LAY, 0)
    comp = SparseState(LAY, {0: 1.0}, compressed=True)
    with pytest.raises(ValueError):
        add_states(phys, comp)
    with pytest.raises(ValueError):
        phys.inner(comp)


def test_random_h_state_is_consistent_and_normalized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_h_state(LAY, rng)
        assert is_in_H(psi)
        assert abs(psi.norm() - 1.0) < 1e-12
