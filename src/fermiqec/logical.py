"""Logical gates on repetition-code blocks.

The logical occupation of a block is its parity, so logical phase-type gates
are diagonal and can be teleported onto an ancilla with parity-controlled
sign flips; the logical tunneling at pi/2 reduces to a transversal fermionic
swap plus two logical S gates.  Exact diagonal oracles live alongside the
gadget constructions so the two can be checked against each other.  The
swap and the exact tunnelings are label maps memoized by the code (see
:meth:`fermiqec.codes.RepetitionCode.label_map`).  Callers apply these
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
    state: SparseState,
    code: RepetitionCode,
    block: int,
    theta: float,
    ancilla: int = 0,
) -> SparseState:
    """exp(i theta N_block) without touching the block directly.

    The block parity is copied onto the ancilla, a plain qubit phase
    imprints theta, and a second copy returns the ancilla to |0>.
    """
    state = _copy_parity(state, code, block, ancilla)
    state = apply_qubit_gate(state, "phase", ancilla, theta=theta)
    return _copy_parity(state, code, block, ancilla)


def density_gadget_logical(
    state: SparseState,
    code: RepetitionCode,
    block_a: int,
    block_b: int,
    theta: float,
    ancilla_a: int = 0,
    ancilla_b: int = 1,
) -> SparseState:
    """exp(i theta N_a N_b): copy both parities onto ancillas, apply the
    two-qubit controlled phase, then uncompute."""
    if ancilla_a == ancilla_b:
        raise ValueError("density gadget needs two distinct ancillas")
    state = _copy_parity(state, code, block_a, ancilla_a)
    state = _copy_parity(state, code, block_b, ancilla_b)
    state = apply_qubit_gate(state, "cphase", ancilla_a, ancilla_b, theta)
    state = _copy_parity(state, code, block_a, ancilla_a)
    return _copy_parity(state, code, block_b, ancilla_b)


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
    swap = code.compiled_fswap(block_a, block_b)
    pair = code.block_mask(block_a) | code.block_mask(block_b)
    c, s = math.cos(theta), math.sin(theta)

    def derive(part: int) -> tuple[tuple[int, complex], ...]:
        if part & control != control or not (part & pair).bit_count() & 1:
            return ((part, 1.0),)
        ((t, sign),) = swap.part(part & swap.mask)
        return ((part, c), (t | part & ~swap.mask, 1j * s * sign))

    return code.label_map(
        ("tunneling", block_a, block_b, control), theta, swap.mask | control, derive
    )


def tunneling_logical(
    state: SparseState,
    code: RepetitionCode,
    block_a: int,
    block_b: int,
    theta: float,
    method: str = "exact",
    ancilla: int = 0,
) -> SparseState:
    """exp(i theta (C_a^dag C_b + h.c.)).

    The generator vanishes on even joint parity and squares to one on odd,
    where the transversal swap acts as the hop; the exact route splits the
    state along that parity.  The hardware route (theta = pi/2 only) is the
    transversal swap followed by logical S gates on both blocks.
    """
    if method == "exact":
        return apply_map(state, _tunneling_map(code, block_a, block_b, theta))

    if method == "hardware":
        if not math.isclose(theta, math.pi / 2, abs_tol=1e-12):
            raise ValueError("the hardware route implements theta = pi/2 only")
        state = fswap_logical(state, code, block_a, block_b)
        state = phase_gadget_logical(state, code, block_a, math.pi / 2, ancilla)
        state = phase_gadget_logical(state, code, block_b, math.pi / 2, ancilla)
        return state

    raise ValueError(f"unknown tunneling method {method!r}")


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
