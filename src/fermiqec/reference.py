"""Reference register, dressed fermionic operators, and Majorana rotations.

The reference block donates and absorbs atoms so that particle-number changes
on the system modes can be implemented with number-conserving hardware.  The
edge operator ``R`` annihilates the topmost atom of a contiguous reference
prefix; its adjoint grows the prefix by one.  Dressed system operators are

    c_i         = R^dag s_i         (annihilate on the system, repay the bank)
    c_i^dag     = s_i^dag R         (borrow from the bank, create on the system)

and they behave like genuine fermionic ladder operators on the subspace where
each basis label's reference occupation is exactly the prefix of length
``N - n_sys`` (``is_in_H``).  That prefix is
:meth:`~fermiqec.registers.RegisterLayout.bank_bits`, and the reference
phase and the exact rotation count bank atoms through
:meth:`~fermiqec.registers.RegisterLayout.counter`, so the occupation rule
lives in :mod:`fermiqec.registers` alone.

Majorana rotations exp(i theta x_i) with x_i = c_i + c_i^dag (and the y
counterpart) come in an exact form and a hardware decomposition into
tunnelings and parity-controlled phases; both are exercised against each
other by the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gates import (
    DensityPhase,
    GateOp,
    LocalPhase,
    Tunneling,
    apply_annihilation,
    apply_controlled,
    apply_creation,
    apply_gate_op,
)
from .registers import RegisterLayout, jw_sign
from .states import SparseState, add_states, apply_map, phase_factor

__all__ = [
    "ReferencePhase",
    "MajoranaRotation",
    "h_label",
    "h_basis_state",
    "random_h_state",
    "is_in_H",
    "apply_R",
    "apply_R_dagger",
    "apply_c",
    "apply_c_dagger",
    "compressed_ladder_image",
    "apply_majorana",
    "apply_global_reference_phase",
    "majorana_rotation_gates",
    "apply_D_exact",
    "apply_D_decomposed",
    "controlled_D",
]


@dataclass(frozen=True)
class ReferencePhase:
    """Circuit instruction: exp(i theta N_ref) on the whole reference block."""

    theta: float


@dataclass(frozen=True)
class MajoranaRotation:
    """Circuit instruction: exp(i theta x_mode) (or y_mode for kind 'y')."""

    mode: int
    theta: float
    kind: str = "x"


# ---------------------------------------------------------------------------
# the consistent subspace
# ---------------------------------------------------------------------------


def h_label(layout: RegisterLayout, system_label: int, ancilla_label: int = 0) -> int:
    """Physical label of a system label with its implied reference prefix."""
    shift = layout.num_system_modes + layout.num_reference_modes
    bank = layout.bank_bits(system_label.bit_count())
    return system_label | bank | ancilla_label << shift


def h_basis_state(layout: RegisterLayout, system_label: int) -> SparseState:
    """Basis state with the reference prefix implied by the system label."""
    if system_label < 0 or system_label >> layout.num_system_modes:
        raise ValueError("system label outside the system register")
    label = h_label(layout, system_label)
    return SparseState(layout, {label: 1.0 + 0.0j}, compressed=False)


def random_h_state(layout: RegisterLayout, rng: np.random.Generator) -> SparseState:
    """Random normalized state spanning the reference-consistent subspace,
    every ancilla in |0>."""
    sys_labels = [
        s for s in range(1 << layout.num_system_modes) if layout.holds(s.bit_count())
    ]
    amps = rng.normal(size=len(sys_labels)) + 1j * rng.normal(size=len(sys_labels))
    amps /= np.linalg.norm(amps)
    entries = {h_label(layout, s): complex(a) for s, a in zip(sys_labels, amps)}
    return SparseState(layout, entries, compressed=False)


def is_in_H(state: SparseState) -> bool:
    """True when every basis label carries the reference prefix implied by
    its system count (ancilla bits are ignored).  Compressed states satisfy
    this by construction."""
    if state.compressed:
        return True
    lay = state.layout
    # the prefix each system count implies; -1 matches no masked label
    prefix = [
        lay.bank_bits(n) if lay.holds(n) else -1
        for n in range(lay.num_system_modes + 1)
    ]
    sys_mask, ref_mask = lay.system_mask, lay.reference_mask
    return all(
        l & ref_mask == prefix[(l & sys_mask).bit_count()] for l in state.entries
    )


# ---------------------------------------------------------------------------
# the edge operator R
# ---------------------------------------------------------------------------


def _require_physical(state: SparseState, what: str) -> None:
    if state.compressed:
        raise ValueError(f"{what} is undefined on compressed states")


def _apply_edge(state: SparseState, create: bool) -> SparseState:
    """Sum of the guarded edge terms, one per reference mode ``j``.

    Annihilation fires on labels where reference mode ``j`` is occupied, the
    mode below is occupied (or ``j`` is the bottom), and the mode above is
    empty (or ``j`` is the top).  Creation fires where mode ``j`` is empty
    under the same neighbor guards, so the prefix grows by one.
    """
    _require_physical(state, "the reference edge operator")
    lay = state.layout
    shift = lay.num_system_modes
    full = (1 << lay.num_reference_modes) - 1
    flip = full if create else 0

    def image(l: int) -> list[tuple[int, int]]:
        ref = (l >> shift) & full
        # bit j of ``fire``: mode j has the wanted occupation, j - 1 is
        # occupied (or j is the bottom) and j + 1 is empty (or j is the top)
        fire = (ref ^ flip) & (ref << 1 | 1) & ~(ref >> 1) & full
        terms = []
        while fire:
            low = fire & -fire
            terms.append((l ^ low << shift, jw_sign(l, shift + low.bit_length() - 1)))
            fire ^= low
        return terms

    return apply_map(state, image)


def apply_R(state: SparseState) -> SparseState:
    """Edge annihilation: on prefix states, remove the topmost reference
    atom.  Output is generally unnormalized; on non-prefix configurations
    several terms may fire."""
    return _apply_edge(state, create=False)


def apply_R_dagger(state: SparseState) -> SparseState:
    """Edge creation: on prefix states, grow the reference prefix by one."""
    return _apply_edge(state, create=True)


# ---------------------------------------------------------------------------
# dressed system operators
# ---------------------------------------------------------------------------


def _check_system_mode(lay: RegisterLayout, mode: int) -> None:
    if mode < 0 or mode >= lay.num_system_modes:
        raise ValueError(f"mode {mode} is not a system mode")


def compressed_ladder_image(
    layout: RegisterLayout, mode: int, create: bool
) -> Callable[[int], tuple[tuple[int, int], ...]]:
    """Label image of c / c^dag on the compressed representation.

    The edge operator's string crosses the whole system block plus the
    reference prefix below the firing mode; together with the site string
    that leaves a constant (-1)**(N-1) relative to the bare site operator.
    """
    sign_ref = -1 if (layout.total_atoms - 1) & 1 else 1
    bit, system = 1 << mode, layout.system_mask

    def image(l: int) -> tuple[tuple[int, int], ...]:
        if bool(l & bit) == create:
            return ()
        # the bank must lend the created atom or take back the removed one
        if not layout.holds((l & system).bit_count() + (1 if create else -1)):
            return ()
        return ((l ^ bit, sign_ref * jw_sign(l, mode)),)

    return image


def apply_c(state: SparseState, mode: int) -> SparseState:
    """Dressed annihilation on a system mode (both representations)."""
    _check_system_mode(state.layout, mode)
    if state.compressed:
        return apply_map(state, compressed_ladder_image(state.layout, mode, False))
    return apply_R_dagger(apply_annihilation(state, mode))


def apply_c_dagger(state: SparseState, mode: int) -> SparseState:
    """Dressed creation on a system mode (both representations)."""
    _check_system_mode(state.layout, mode)
    if state.compressed:
        return apply_map(state, compressed_ladder_image(state.layout, mode, True))
    return apply_creation(apply_R(state), mode)


def apply_majorana(state: SparseState, mode: int, kind: str = "x") -> SparseState:
    """x = c + c^dag or y = i (c^dag - c) on one system mode."""
    lower = apply_c(state, mode)
    raised = apply_c_dagger(state, mode)
    if kind == "x":
        return add_states(lower, raised)
    if kind == "y":
        return add_states(raised, lower, 1j, -1j)
    raise ValueError(f"unknown Majorana kind {kind!r}")


# ---------------------------------------------------------------------------
# reference dephasing
# ---------------------------------------------------------------------------


def apply_global_reference_phase(state: SparseState, theta: float) -> SparseState:
    """exp(i theta N_ref); diagonal, so well defined on both representations."""
    ph = phase_factor(theta)
    count = state.layout.counter(state.layout.reference_mask, state.compressed)
    return apply_map(state, lambda l: ((l, ph ** count(l)),))


# ---------------------------------------------------------------------------
# Majorana rotations
# ---------------------------------------------------------------------------


def apply_D_exact(
    state: SparseState, mode: int, theta: float, kind: str = "x"
) -> SparseState:
    """exp(i theta x_mode) (or y) = cos theta + i sin theta x_mode.

    That uses x^2 = 1, which holds on the consistent subspace except on
    labels with an empty bank and an empty ``mode``: x annihilates those
    and no label maps onto them, so the rotation leaves them unchanged.
    They exist only when the system can hold every atom with ``mode`` empty
    (N < M_s).
    """
    if not is_in_H(state):
        raise ValueError("exact Majorana rotation needs a reference-consistent state")
    rotated = apply_majorana(state, mode, kind)
    out = add_states(state, rotated, math.cos(theta), 1j * math.sin(theta))
    lay = state.layout
    if lay.total_atoms >= lay.num_system_modes:
        return out
    bit = 1 << mode
    bank_atoms = lay.counter(lay.reference_mask, state.compressed)
    idle = {
        l: a for l, a in state.entries.items() if not l & bit and not bank_atoms(l)
    }
    return out.with_entries({**out.entries, **idle}) if idle else out


def majorana_rotation_gates(
    layout: RegisterLayout, mode: int, theta: float, kind: str = "x"
) -> tuple[GateOp, ...]:
    """Hardware sequence for exp(i theta x_mode) as tunnelings plus
    neighbor-parity phases.

    Working down the reference block, each mode k contributes the factor
    T(theta/2) . P . T(-theta/2) . P where P flips the sign of the tunneling
    amplitude unless k's neighbors have odd total occupation; the factors
    cancel pairwise except at the edge of the prefix, which performs the
    rotation.  The y rotation conjugates the x one by local phases.
    """
    if kind not in ("x", "y"):
        raise ValueError(f"unknown Majorana kind {kind!r}")
    _check_system_mode(layout, mode)
    m_r = layout.num_reference_modes
    ops: list[GateOp] = []
    for k in range(m_r, 0, -1):
        m_k = layout.reference_mode(k - 1)
        if k == 1:
            # the (virtual) mode below the block is always "occupied"
            p_below = LocalPhase(m_k, math.pi)
        else:
            p_below = DensityPhase(m_k, layout.reference_mode(k - 2), math.pi)
        if k == m_r:
            # the (virtual) mode above the block is always empty
            p_above = LocalPhase(m_k, 0.0)
        else:
            p_above = DensityPhase(m_k, layout.reference_mode(k), math.pi)
        ops += [
            p_below,
            p_above,
            Tunneling(mode, m_k, -theta / 2),
            p_below,
            p_above,
            Tunneling(mode, m_k, theta / 2),
        ]
    if kind == "y":
        ops = [LocalPhase(mode, -math.pi / 2), *ops, LocalPhase(mode, math.pi / 2)]
    return tuple(ops)


def apply_D_decomposed(
    state: SparseState, mode: int, theta: float, kind: str = "x"
) -> SparseState:
    """Majorana rotation through the explicit gate sequence (physical rep)."""
    _require_physical(state, "the decomposed Majorana rotation")
    for op in majorana_rotation_gates(state.layout, mode, theta, kind):
        state, _ = apply_gate_op(state, op)
    return state


def controlled_D(
    state: SparseState, qubit: int, mode: int, theta: float, kind: str = "x"
) -> SparseState:
    """Exact Majorana rotation on the |1> branch of an ancilla qubit."""
    return apply_controlled(
        state, qubit, lambda s: apply_D_exact(s, mode, theta, kind)
    )
