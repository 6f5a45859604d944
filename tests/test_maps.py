"""Gates routed through the ``apply_map`` kernel, swept on 9+9+9+2.

Every gate must commute with compression, unitary gates must keep the norm,
and each must be undone by its inverse (``g(-theta)``, or itself for the
involutions).
"""

import itertools
import math

import numpy as np
import pytest

from fermiqec.backend import compress
from fermiqec.codes import (
    RepetitionCode,
    SteaneCode,
    apply_loss_kraus,
    apply_stabilizer,
)
from fermiqec.gates import (
    ancilla_mask,
    apply_density_phase,
    apply_fswap,
    apply_local_phase,
    apply_qubit_gate,
    apply_tunneling,
    measure_mode_number,
    measure_qubit,
)
from fermiqec.harness import NoiseSpec, sample_phase_error_layer
from fermiqec.logical import (
    _tunneling_map,
    controlled_tunneling_logical,
    density_gadget_logical,
    fswap_logical,
    logical_density_exact,
    logical_phase_exact,
    phase_gadget_logical,
    tunneling_logical,
)
from fermiqec.qec import measure_stabilizer, qec_round
from fermiqec.reference import (
    apply_c,
    apply_c_dagger,
    apply_global_reference_phase,
    random_h_state,
)
from fermiqec.registers import RegisterLayout
from fermiqec.states import (
    SparseState,
    add_states,
    apply_map,
    basis_state,
    difference_norm,
)

LAY = RegisterLayout(9, 9, 9, num_ancilla_qubits=2)
CODE = RepetitionCode(LAY)
REF = LAY.reference_mode
THETA = 0.37
TOL = 1e-12


def _psi(layout: RegisterLayout, seed: int):
    """Random reference-consistent state over every ancilla pattern."""
    rng = np.random.default_rng(seed)
    out = random_h_state(layout, rng)
    for anc in range(1, 1 << layout.num_ancilla_qubits):
        out = add_states(out, random_h_state(layout, rng, ancilla_label=anc))
    return out.normalized()


def _flips(state, seed=7):
    """Error layer hitting system and bank modes alike (same draws on both
    representations)."""
    spec = NoiseSpec(0.5, include_reference=True)
    out, flipped = sample_phase_error_layer(state, spec, np.random.default_rng(seed))
    assert any(m < 9 for m in flipped) and any(m >= 9 for m in flipped)
    return out


#: name -> (gate, its inverse); both take the state only.
UNITARY = {
    "local_phase_system": (
        lambda s: apply_local_phase(s, 4, THETA),
        lambda s: apply_local_phase(s, 4, -THETA),
    ),
    "local_phase_reference": (
        lambda s: apply_local_phase(s, REF(3), THETA),
        lambda s: apply_local_phase(s, REF(3), -THETA),
    ),
    "density_system": (
        lambda s: apply_density_phase(s, 1, 7, THETA),
        lambda s: apply_density_phase(s, 1, 7, -THETA),
    ),
    "density_mixed": (
        lambda s: apply_density_phase(s, 2, REF(0), THETA),
        lambda s: apply_density_phase(s, 2, REF(0), -THETA),
    ),
    "density_reference": (
        lambda s: apply_density_phase(s, REF(1), REF(4), THETA),
        lambda s: apply_density_phase(s, REF(1), REF(4), -THETA),
    ),
    "tunneling": (
        lambda s: apply_tunneling(s, 2, 7, THETA),
        lambda s: apply_tunneling(s, 2, 7, -THETA),
    ),
    "fswap": (lambda s: apply_fswap(s, 1, 5), lambda s: apply_fswap(s, 1, 5)),
    "h": (
        lambda s: apply_qubit_gate(s, "h", 0),
        lambda s: apply_qubit_gate(s, "h", 0),
    ),
    "s": (
        lambda s: apply_qubit_gate(s, "s", 1),
        lambda s: apply_qubit_gate(s, "sdg", 1),
    ),
    "t": (
        lambda s: apply_qubit_gate(s, "t", 0),
        lambda s: apply_qubit_gate(s, "phase", 0, theta=-math.pi / 4),
    ),
    "z": (
        lambda s: apply_qubit_gate(s, "z", 1),
        lambda s: apply_qubit_gate(s, "z", 1),
    ),
    "qubit_phase": (
        lambda s: apply_qubit_gate(s, "phase", 1, theta=THETA),
        lambda s: apply_qubit_gate(s, "phase", 1, theta=-THETA),
    ),
    "cz": (
        lambda s: apply_qubit_gate(s, "cz", 0, 1),
        lambda s: apply_qubit_gate(s, "cz", 0, 1),
    ),
    "cphase": (
        lambda s: apply_qubit_gate(s, "cphase", 0, 1, THETA),
        lambda s: apply_qubit_gate(s, "cphase", 0, 1, -THETA),
    ),
    "reference_phase": (
        lambda s: apply_global_reference_phase(s, THETA),
        lambda s: apply_global_reference_phase(s, -THETA),
    ),
    "error_layer": (_flips, _flips),
    "fswap_logical": (
        lambda s: fswap_logical(s, CODE, 0, 2),
        lambda s: fswap_logical(s, CODE, 0, 2),
    ),
    "logical_phase": (
        lambda s: logical_phase_exact(s, CODE, 1, THETA),
        lambda s: logical_phase_exact(s, CODE, 1, -THETA),
    ),
    "logical_density": (
        lambda s: logical_density_exact(s, CODE, 0, 2, THETA),
        lambda s: logical_density_exact(s, CODE, 0, 2, -THETA),
    ),
    "phase_gadget": (
        lambda s: phase_gadget_logical(s, CODE, 2, THETA, 1),
        lambda s: phase_gadget_logical(s, CODE, 2, -THETA, 1),
    ),
    "density_gadget": (
        lambda s: density_gadget_logical(s, CODE, 0, 1, THETA),
        lambda s: density_gadget_logical(s, CODE, 0, 1, -THETA),
    ),
    "logical_tunneling": (
        lambda s: tunneling_logical(s, CODE, 0, 2, THETA),
        lambda s: tunneling_logical(s, CODE, 0, 2, -THETA),
    ),
    "controlled_logical_tunneling": (
        lambda s: controlled_tunneling_logical(s, 0, CODE, 1, 2, THETA),
        lambda s: controlled_tunneling_logical(s, 0, CODE, 1, 2, -THETA),
    ),
}


def _measured(fn, seed=11):
    return lambda s: fn(s, np.random.default_rng(seed))[1]


def _readout(fn, ancilla):
    """``fn`` on the part of a state whose readout ancilla is |0>: the
    physical gadget needs it there, the compressed projection ignores it."""

    def gate(s):
        bit = ancilla_mask(s, ancilla)
        return fn(apply_map(s, lambda l: () if l & bit else ((l, 1.0),)))

    return gate


#: Maps without an inverse: ladders, projectors and measurements (the
#: latter fed identical rng streams on both representations).
NONUNITARY = {
    "annihilation": lambda s: apply_c(s, 3),
    "creation": lambda s: apply_c_dagger(s, 8),
    "loss_projector": lambda s: apply_loss_kraus(s, 9 + 1 + 6, 0.01),
    "projection_readout": _readout(
        _measured(lambda s, rng: measure_stabilizer(s, CODE, 1, "s23", rng, 0)), 0
    ),
    "gadget_readout": _readout(
        _measured(lambda s, rng: measure_stabilizer(s, CODE, 2, "s12", rng, 1)), 1
    ),
    "qec_round": _readout(
        lambda s: qec_round(s, CODE, np.random.default_rng(11), 1)[0], 1
    ),
    "measure_qubit": _measured(lambda s, rng: measure_qubit(s, 1, rng, "y")),
    "measure_number": _measured(
        lambda s, rng: measure_mode_number(s, (0, 4, REF(2), REF(7)), rng)
    ),
}


@pytest.fixture(scope="module")
def psi():
    return _psi(LAY, 2412)


@pytest.mark.parametrize("name", sorted({**UNITARY, **NONUNITARY}))
def test_gate_commutes_with_compression(psi, name):
    gate = UNITARY[name][0] if name in UNITARY else NONUNITARY[name]
    assert difference_norm(compress(gate(psi)), gate(compress(psi))) < TOL


@pytest.mark.parametrize("name", sorted(UNITARY))
def test_gate_keeps_the_norm_and_inverts(psi, name):
    gate, inverse = UNITARY[name]
    for state in (psi, compress(psi)):
        out = gate(state)
        assert abs(out.norm() - 1.0) < TOL
        assert difference_norm(inverse(out), state) < TOL


def test_steane_z_stabilizer_is_a_compressible_involution():
    lay = RegisterLayout(7, 7, 7)
    code = SteaneCode(lay)
    psi = _psi(lay, 17)
    for group in range(3):
        out = code.apply_z_stabilizer(psi, group)
        assert abs(out.norm() - 1.0) < TOL
        assert difference_norm(code.apply_z_stabilizer(out, group), psi) < TOL
        assert difference_norm(
            compress(out), code.apply_z_stabilizer(compress(psi), group)
        ) < TOL


def test_apply_map_accumulates_and_annihilates():
    lay = RegisterLayout(3, 3, 3)
    psi = add_states(basis_state(lay, 0b001), basis_state(lay, 0b010), 0.6, 0.8)
    # both labels land on 0b100; 0b010 also keeps a second term
    image = {0b001: ((0b100, 1.0),), 0b010: ((0b100, 1.0), (0b010, -2.0))}
    out = apply_map(psi, image.__getitem__)
    assert out.entries == {0b100: 0.6 + 0.8, 0b010: -1.6}
    assert apply_map(psi, lambda l: ()).is_zero()


def test_code_maps_are_memoized_per_label():
    code = RepetitionCode(LAY)
    stab = code.compiled_stabilizer("s12", 0)
    assert code.compiled_stabilizer("s12", 0) is stab
    psi = compress(_psi(LAY, 3))
    apply_map(psi, stab)
    assert set(stab) == set(psi.entries)
    # one derivation per system part: the ancilla bits pass through
    assert stab.part.cache_info().currsize == len(
        {l & LAY.system_mask for l in psi.entries}
    )


def test_tunneling_maps_keep_one_angle_per_block_pair():
    code = RepetitionCode(LAY)
    first = _tunneling_map(code, 0, 1, math.pi / 2)
    assert _tunneling_map(code, 0, 1, math.pi / 2) is first
    held = len(code._maps)
    for theta in (0.1, 0.2, 0.3):
        assert _tunneling_map(code, 0, 1, theta) is not first
    # a new angle replaces the stored map instead of adding one
    assert len(code._maps) == held


def _one_label_stabilizer(code, which, block, sys):
    """A stabilizer's image of one system label, through the state
    machinery on a one-label state."""
    lay = code.layout
    if not lay.holds(sys.bit_count()):
        return ()
    state = apply_stabilizer(basis_state(lay, sys, True), code, block, which)
    return tuple(state.entries.items())


def _one_label_fswap(code, block_a, block_b, sys):
    """The transversal fswap's image of one system label, through
    ``apply_fswap`` on a one-label state."""
    state = basis_state(code.layout, sys, True)
    for ma, mb in zip(code.block_modes(block_a), code.block_modes(block_b)):
        state = apply_fswap(state, ma, mb)
    return tuple(state.entries.items())


#: Full register, N < M_s (the bank cannot balance a full system), a bank
#: with more modes than the system has, and one block.
DERIVATION_REGISTERS = [(9, 9, 9), (9, 8, 8), (6, 7, 7), (3, 3, 3)]


@pytest.mark.parametrize("sizes", DERIVATION_REGISTERS, ids=str)
def test_code_maps_equal_the_one_label_state_derivation(sizes):
    lay = RegisterLayout(*sizes)
    code = RepetitionCode(lay)
    parts = range(1 << lay.num_system_modes)
    maps = [
        (code.compiled_stabilizer(which, block), _one_label_stabilizer, (which, block))
        for block in range(code.num_blocks)
        for which in ("s12", "s23")
    ] + [
        (code.compiled_fswap(a, b), _one_label_fswap, (a, b))
        for a, b in itertools.permutations(range(code.num_blocks), 2)
    ]
    for lmap, oracle, args in maps:
        got = [lmap.part(sys) for sys in parts]
        want = [oracle(code, *args, sys) for sys in parts]
        assert got == want, args
        # repr tells signed zeros apart, which == does not
        assert repr(got) == repr(want), args


def test_deriving_code_maps_builds_no_state(monkeypatch):
    built = []
    init = SparseState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseState, "__init__", counting_init)
    code = RepetitionCode(LAY)
    for lmap in (code.compiled_stabilizer("s23", 1), code.compiled_fswap(0, 2)):
        for sys in range(1 << LAY.num_system_modes):
            lmap.part(sys)
    assert not built
    basis_state(LAY, 0, True)
    assert built == [1]
