import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fermiqec.reference import is_in_H, random_h_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import (
    PRUNE_EPS,
    SparseState,
    add_states,
    basis_state,
    difference_norm,
    phase_factor,
    random_full_state,
    scale_state,
    weight_sum,
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


# ---------------------------------------------------------------------------
# weights and pruning against the Python expressions they replace
# ---------------------------------------------------------------------------

BELOW_EPS = math.nextafter(PRUNE_EPS, 0.0)
#: Parts near the pruning edge, from both sides, and ordinary ones.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, PRUNE_EPS, -PRUNE_EPS, BELOW_EPS, 2 * PRUNE_EPS]),
    st.floats(-1e-13, 1e-13),
    st.floats(-1e100, 1e100, allow_subnormal=True),
)
AMPLITUDES = st.lists(st.builds(complex, PARTS, PARTS), max_size=40)


@given(AMPLITUDES)
@example([])
@example([1.0 + 0.0j])
@example([complex(PRUNE_EPS, 0.0)])
@example([complex(0.0, BELOW_EPS)])
@example([complex(PRUNE_EPS, BELOW_EPS), complex(BELOW_EPS, -PRUNE_EPS)])
def test_weight_sum_is_the_fsum_of_the_python_weights(amps):
    python = math.fsum([a.real * a.real + a.imag * a.imag for a in amps])
    assert weight_sum(amps).hex() == python.hex()


@given(AMPLITUDES)
@example([complex(PRUNE_EPS, 0.0), complex(BELOW_EPS, 0.0)])
@example([complex(0.0, -PRUNE_EPS), complex(-BELOW_EPS, 0.0), 1.0 + 0.0j])
@example([complex(BELOW_EPS, BELOW_EPS)])  # magnitude above the threshold
def test_with_entries_drops_exactly_the_amplitudes_below_prune_eps(amps):
    entries = {3 * i: a for i, a in enumerate(amps)}
    out = basis_state(LAY, 0).with_entries(dict(entries))
    want = {l: a for l, a in entries.items() if abs(a) >= PRUNE_EPS}
    assert list(out.entries.items()) == list(want.items())


def test_with_entries_keeps_a_dict_with_nothing_to_drop_as_it_is():
    clean = {0: 0.6 + 0.0j, 5: 0.8j, 9: complex(0.0, -PRUNE_EPS)}
    assert basis_state(LAY, 0).with_entries(clean).entries is clean
