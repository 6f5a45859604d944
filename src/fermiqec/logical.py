"""Logical gates on repetition-code blocks.

The logical occupation of a block is its parity, so logical phase-type gates
are diagonal and can be teleported onto an ancilla with parity-controlled
sign flips; the logical tunneling at pi/2 reduces to a transversal fermionic
swap plus two logical S gates.  Exact diagonal oracles live alongside the
gadget constructions so the two can be checked against each other.  The
swap and the exact tunnelings are label maps held in the code's one cache,
keyed by their blocks, control and angle (see
:meth:`fermiqec.codes.RepetitionCode.cached`).  Callers apply these
functions directly; they have no instruction records in
:func:`fermiqec.backend.run_circuit`.
"""

from __future__ import annotations

import math

from .codes import LabelMap, RepetitionCode, block_parity
from .gates import ancilla_mask, apply_qubit_gate
from .states import SparseState, apply_map, phase_factor

__all__ = [
    "fswap_logical",
    "logical_phase_exact",
    "logical_density_exact",
    "phase_gadget_logical",
    "density_gadget_logical",
    "tunneling_logical",
    "quarter_turn_tunneling_gadget",
    "controlled_tunneling_logical",
]


# ---------------------------------------------------------------------------
# transversal swap and diagonal oracles
# ---------------------------------------------------------------------------


def fswap_logical(
    state: SparseState, code: RepetitionCode, block_a: int, block_b: int
) -> SparseState:
    """Transversal fermionic swap of two blocks (mode k with mode k)."""
    if block_a == block_b:
        raise ValueError("logical fswap needs two distinct blocks")
    return apply_map(state, code.compiled_fswap(block_a, block_b))


def logical_phase_exact(
    state: SparseState, code: RepetitionCode, block: int, theta: float
) -> SparseState:
    """Diagonal oracle for exp(i theta N_block)."""
    ph = phase_factor(theta)
    return apply_map(
        state, lambda l: ((l, ph if block_parity(code, l, block) else 1.0),)
    )


def logical_density_exact(
    state: SparseState,
    code: RepetitionCode,
    block_a: int,
    block_b: int,
    theta: float,
) -> SparseState:
    """Diagonal oracle for exp(i theta N_a N_b)."""
    ph = phase_factor(theta)

    def image(l: int) -> tuple[tuple[int, complex]]:
        both = block_parity(code, l, block_a) and block_parity(code, l, block_b)
        return ((l, ph if both else 1.0),)

    return apply_map(state, image)


# ---------------------------------------------------------------------------
# ancilla gadgets
# ---------------------------------------------------------------------------


def _copy_parity(
    state: SparseState, code: RepetitionCode, block: int, ancilla: int
) -> SparseState:
    """H, then (-1)^(block parity) on the |1> branch of ``ancilla``, then H:
    adds the block parity onto the ancilla bit, so a second call undoes
    the first."""
    state = apply_qubit_gate(state, "h", ancilla)
    bit = ancilla_mask(state, ancilla)
    mask = code.block_mask(block)
    state = apply_map(
        state,
        lambda l: ((l, -1.0 if l & bit and (l & mask).bit_count() & 1 else 1.0),),
    )
    return apply_qubit_gate(state, "h", ancilla)


def phase_gadget_logical(
    state: SparseState, code: RepetitionCode, block: int, theta: float
) -> SparseState:
    """exp(i theta N_block) without touching the block directly.

    The block parity is copied onto ancilla 0, a plain qubit phase imprints
    theta, and a second copy returns the ancilla to where it was.
    """
    state = _copy_parity(state, code, block, 0)
    state = apply_qubit_gate(state, "phase", 0, theta=theta)
    return _copy_parity(state, code, block, 0)


def density_gadget_logical(
    state: SparseState,
    code: RepetitionCode,
    block_a: int,
    block_b: int,
    theta: float,
) -> SparseState:
    """exp(i theta N_a N_b): copy the parities of ``block_a`` and
    ``block_b`` onto ancillas 0 and 1, apply the two-qubit controlled
    phase, then uncompute."""
    state = _copy_parity(state, code, block_a, 0)
    state = _copy_parity(state, code, block_b, 1)
    state = apply_qubit_gate(state, "cphase", 0, 1, theta)
    state = _copy_parity(state, code, block_a, 0)
    return _copy_parity(state, code, block_b, 1)


# ---------------------------------------------------------------------------
# logical tunneling
# ---------------------------------------------------------------------------


def _tunneling_map(
    code: RepetitionCode, block_a: int, block_b: int, theta: float, control: int = 0
) -> LabelMap:
    """exp(i theta (C_a^dag C_b + h.c.)) as a label map, applied where the
    ``control`` bits of a label are all set (every label when 0).

    Even joint parity is left alone; on odd parity the label keeps
    ``cos theta`` and its transversal swap image gains ``i sin theta``.
    """

    def build() -> LabelMap:
        swap = code.compiled_fswap(block_a, block_b)
        pair = code.block_mask(block_a) | code.block_mask(block_b)
        c, s = math.cos(theta), math.sin(theta)

        def derive(part: int) -> tuple[tuple[int, complex], ...]:
            if part & control != control or not (part & pair).bit_count() & 1:
                return ((part, 1.0),)
            ((t, sign),) = swap.part(part & swap.mask)
            return ((part, c), (t | part & ~swap.mask, 1j * s * sign))

        return LabelMap(swap.mask | control, derive)

    return code.cached(("tunneling", block_a, block_b, control, theta), build)


def tunneling_logical(
    state: SparseState,
    code: RepetitionCode,
    block_a: int,
    block_b: int,
    theta: float,
) -> SparseState:
    """exp(i theta (C_a^dag C_b + h.c.)).

    The generator vanishes on even joint parity and squares to one on odd,
    where the transversal swap acts as the hop, so the exact label map
    splits the state along that parity.
    """
    return apply_map(state, _tunneling_map(code, block_a, block_b, theta))


def quarter_turn_tunneling_gadget(
    state: SparseState, code: RepetitionCode, block_a: int, block_b: int
) -> SparseState:
    """The logical tunneling at theta = pi/2 as hardware runs it: the
    transversal swap, then a logical S gate on each block through the
    phase gadget."""
    state = fswap_logical(state, code, block_a, block_b)
    state = phase_gadget_logical(state, code, block_a, math.pi / 2)
    return phase_gadget_logical(state, code, block_b, math.pi / 2)


def controlled_tunneling_logical(
    state: SparseState,
    qubit: int,
    code: RepetitionCode,
    block_a: int,
    block_b: int,
    theta: float,
) -> SparseState:
    """Logical tunneling on the |1> branch of a control qubit: the exact
    label map with the control bit in its mask."""
    control = ancilla_mask(state, qubit)
    return apply_map(state, _tunneling_map(code, block_a, block_b, theta, control))
