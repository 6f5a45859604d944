import numpy as np
import pytest
from conftest import spread_h_state

from fermiqec.backend import compress
from fermiqec.reference import h_label
from fermiqec.registers import RegisterLayout, jw_sign


def test_layout_validation():
    with pytest.raises(ValueError):
        RegisterLayout(0, 3, 3)
    with pytest.raises(ValueError):
        RegisterLayout(3, 3, -1)
    with pytest.raises(ValueError):
        RegisterLayout(3, 2, 3)  # bank smaller than the atom count
    with pytest.raises(ValueError):
        RegisterLayout(3, 3, 3, num_ancilla_qubits=-1)


def test_bit_positions():
    lay = RegisterLayout(3, 4, 4, num_ancilla_qubits=2)
    assert lay.num_fermion_modes == 7
    assert lay.system_mask == 0b111
    assert lay.reference_mask == 0b1111000
    assert [lay.reference_mode(j) for j in range(4)] == [3, 4, 5, 6]
    # physical ancillas sit above the bank, compressed ones right above
    # the system block
    assert lay.ancilla_bit(0) == 7
    assert lay.ancilla_bit(1) == 8
    assert lay.ancilla_bit(0, compressed=True) == 3
    assert lay.ancilla_bit(1, compressed=True) == 4
    with pytest.raises(ValueError):
        lay.ancilla_bit(2)


def test_label_parts():
    lay = RegisterLayout(3, 4, 4, num_ancilla_qubits=1)
    label = 0b1_0110_101
    assert label & lay.system_mask == 0b101
    assert (label & lay.reference_mask) >> lay.num_system_modes == 0b0110
    assert label >> lay.num_fermion_modes == 1


def test_jw_sign_is_prefix_parity():
    # sign = (-1)^(number of occupied modes strictly below the target)
    for label in range(64):
        for i in range(6):
            prefix = bin(label & ((1 << i) - 1)).count("1")
            assert jw_sign(label, i) == (-1 if prefix & 1 else 1)


def test_occupation_matches_the_decompressed_label():
    lay = RegisterLayout(9, 9, 9, num_ancilla_qubits=2)
    physical = spread_h_state(lay, 3)
    compressed = compress(physical)
    fermions = (1 << lay.num_fermion_modes) - 1
    rng = np.random.default_rng(4)
    masks = [1 << m for m in range(lay.num_fermion_modes)]
    masks += [lay.reference_mask, lay.system_mask, fermions]
    masks += [int(m) & fermions for m in rng.integers(1 << 18, size=20)]
    assert any(m & lay.system_mask and m & lay.reference_mask for m in masks[-20:])
    assert len(physical.entries) == len(compressed.entries) > 2000
    counters = [(lay.counter(m, False), lay.counter(m, True), m) for m in masks]
    for full, short in zip(physical.entries, compressed.entries):
        assert full >> lay.num_fermion_modes == short >> lay.num_system_modes
        for on_full, on_short, mask in counters:
            want = (full & mask).bit_count()
            assert on_full(full) == want
            assert on_short(short) == want


def test_occupation_outside_the_bank_range_does_not_raise():
    lay = RegisterLayout(3, 4, 2, num_ancilla_qubits=1)
    every = (1 << lay.num_fermion_modes) - 1
    # three system atoms but only two in the register: an empty bank
    assert not lay.holds(3)
    assert lay.counter(lay.reference_mask, True)(0b1_111) == 0
    assert lay.counter(every, True)(0b1_111) == 3
    assert lay.counter(every, False)(0b1_1111_111) == 7
    with pytest.raises(ValueError, match="no reference prefix holds -1 atoms"):
        lay.bank_bits(3)


def test_holds_boundaries():
    lay = RegisterLayout(3, 5, 4)
    # the bank has room for one atom more than the register holds
    assert [n for n in range(-2, 7) if lay.holds(n)] == [-1, 0, 1, 2, 3, 4]
    square = RegisterLayout(9, 9, 9)
    assert [n for n in range(-2, 12) if square.holds(n)] == list(range(10))


def _masks(lay, rng):
    """Single modes, the system, the bank, both, and random fermion masks,
    so masks with and without reference bits."""
    fermions = (1 << lay.num_fermion_modes) - 1
    masks = [1 << m for m in range(lay.num_fermion_modes)]
    masks += [0, lay.system_mask, lay.reference_mask, fermions]
    masks += [int(m) for m in rng.integers(fermions + 1, size=12)]
    assert any(m & lay.reference_mask for m in masks)
    assert any(m and not m & lay.reference_mask for m in masks)
    return masks


def _decompressed_count(lay, label, mask):
    """The oracle for a compressed count: the atoms under ``mask`` on the
    physical label that ``label`` decompresses to (:func:`h_label`).  A
    system with more than ``N`` atoms leaves the bank empty."""
    system = label & lay.system_mask
    if not lay.holds(system.bit_count()):
        return (system & mask).bit_count()
    return (h_label(lay, system, label >> lay.num_system_modes) & mask).bit_count()


def _want(lay, labels, mask, compressed):
    """Each label's count under ``mask`` by the oracle of its representation."""
    if compressed:
        return [_decompressed_count(lay, l, mask) for l in labels]
    return [(l & mask).bit_count() for l in labels]


@pytest.mark.parametrize(
    "sizes", [(3, 4, 2, 1), (6, 5, 5, 1)], ids=lambda s: "+".join(map(str, s))
)
def test_counter_is_occupation_on_every_label(sizes):
    lay = RegisterLayout(*sizes)
    rng = np.random.default_rng(sum(sizes))
    every_label = {
        False: range(1 << (lay.num_fermion_modes + lay.num_ancilla_qubits)),
        True: range(1 << (lay.num_system_modes + lay.num_ancilla_qubits)),
    }
    for mask in _masks(lay, rng):
        for compressed, labels in every_label.items():
            count = lay.counter(mask, compressed)
            assert [count(l) for l in labels] == _want(lay, labels, mask, compressed)


def test_counter_is_occupation_on_exchange_labels():
    lay = RegisterLayout(9, 9, 9, num_ancilla_qubits=2)
    rng = np.random.default_rng(5)
    physical = spread_h_state(lay, 6)
    samples = {
        False: [*physical.entries, *map(int, rng.integers(1 << 20, size=500))],
        True: [*compress(physical).entries, *map(int, rng.integers(1 << 11, size=500))],
    }
    for mask in _masks(lay, rng):
        for compressed, labels in samples.items():
            count = lay.counter(mask, compressed)
            assert [count(l) for l in labels] == _want(lay, labels, mask, compressed)
