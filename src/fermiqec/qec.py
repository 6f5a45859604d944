"""Syndrome extraction, decoding, and recovery for the repetition code.

Each representation reads a stabilizer its own way.  Physical states run
the hardware ancilla gadget (Hadamard, two controlled pi/2 Majorana
rotations split by S-dagger, then a computational-basis measurement);
compressed states project directly with ``(1 + S)/2``, a label map memoized
by the code.  Both consume exactly one random draw per stabilizer with the
same outcome orientation, so the two representations agree draw for draw.
The gadget reads through ancilla 0, which must be in |0>.
:func:`split_stabilizer` holds the readout of both as outcome probabilities
plus a branch to the post state; :func:`measure_stabilizer` draws between
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codes import (
    LabelMap,
    RepetitionCode,
    prepare_logical_vacuum,
    project_codespace,
    stabilizer_expectation,
    stabilizer_majoranas,
)
from .gates import (
    ancilla_mask,
    apply_local_phase,
    apply_qubit_gate,
    draw_sign,
    measurable_norm_sq,
    measure_mode_number,
    split_qubit,
)
from .reference import controlled_D
from .registers import RegisterLayout
from .states import SparseState, add_states, apply_map, scale_state

__all__ = [
    "QecRound",
    "SYNDROME_TABLE",
    "generate_syndrome_table",
    "decode",
    "split_stabilizer",
    "measure_stabilizer",
    "correct_block",
    "qec_round",
    "measure_reference_and_recover",
    "recover_codespace",
]


@dataclass(frozen=True)
class QecRound:
    """Circuit instruction: one full round of syndrome extraction plus
    correction (:func:`qec_round`), read through ancilla 0, which must be
    in |0>."""


#: Syndrome (s12, s23) -> block-local mode offset of the phase error, or
#: None for the clean syndrome.
SYNDROME_TABLE: dict[tuple[int, int], int | None] = {
    (+1, +1): None,
    (-1, +1): 0,
    (-1, -1): 1,
    (+1, -1): 2,
}


def generate_syndrome_table() -> dict[tuple[int, int], int | None]:
    """Brute-force the syndrome map on a one-block register by injecting
    each single-mode phase flip into the logical vacuum."""
    lay = RegisterLayout(3, 3, 3)
    code = RepetitionCode(lay)
    base = prepare_logical_vacuum(code)
    table: dict[tuple[int, int], int | None] = {}
    for offset in (None, 0, 1, 2):
        state = base if offset is None else apply_local_phase(base, offset, math.pi)
        syndrome = (
            round(stabilizer_expectation(state, code, 0, "s12")),
            round(stabilizer_expectation(state, code, 0, "s23")),
        )
        table[syndrome] = offset
    return table


def decode(syndrome: tuple[int, int]) -> int | None:
    try:
        return SYNDROME_TABLE[syndrome]
    except KeyError:
        raise ValueError(f"not a syndrome: {syndrome!r}") from None


# ---------------------------------------------------------------------------
# stabilizer readout
# ---------------------------------------------------------------------------


def _plus_projector(code: RepetitionCode, block: int, which: str) -> LabelMap:
    """(1 + S)/2 on compressed labels: the label itself plus half its image
    under the code's memoized stabilizer map."""

    def build() -> LabelMap:
        stab = code.compiled_stabilizer(which, block)
        return LabelMap(
            stab.mask,
            lambda sys: ((sys, 0.5), *((t, 0.5 * c) for t, c in stab.part(sys))),
        )

    return code.cached(("plus", which, block), build)


def _reset_ancilla(state: SparseState, qubit: int) -> SparseState:
    """Return the measured-out ancilla to |0> so it can be reused."""
    bit = ancilla_mask(state, qubit)
    return apply_map(state, lambda l: ((l & ~bit, 1.0),))


def split_stabilizer(
    state: SparseState,
    code: RepetitionCode,
    block: int,
    which: str,
) -> tuple[float, Callable[[int], SparseState]]:
    """Probabilities and branch of one block stabilizer readout:
    ``(p_plus, branch)`` with ``p_plus`` the probability of outcome +1, the
    (1 + S)/2 branch, and ``branch(outcome)`` the renormalized post state.
    The branch raises on a zero-probability outcome.

    A physical state runs the gadget: it entangles ancilla 0 via two
    controlled pi/2 Majorana rotations (higher mode first, split by
    S-dagger so the branch phases cancel) and reads it, and the branch
    resets it.  Ancilla 0 must start in |0>, or the outcome means
    nothing.  A compressed state is split into the two eigencomponents
    directly and its ancillas are left alone.  Needs ``N >= M_s``: with every
    atom on the system and the target mode empty, c^dag there has nothing
    to borrow and the stabilizer does not square to one.
    """
    hi, lo, kind = stabilizer_majoranas(code, block, which)
    lay = state.layout
    if lay.total_atoms < lay.num_system_modes:
        raise ValueError(f"stabilizer readout needs N >= M_s, got {lay}")
    if not state.compressed:
        work = apply_qubit_gate(state, "h", 0)
        work = controlled_D(work, 0, hi, math.pi / 2, kind)
        work = apply_qubit_gate(work, "sdg", 0)
        work = controlled_D(work, 0, lo, math.pi / 2, kind)
        work = apply_qubit_gate(work, "h", 0)
        p0, read = split_qubit(work, 0)
        return p0, lambda outcome: _reset_ancilla(read(outcome), 0)

    total = measurable_norm_sq(state.norm_sq())
    plus = apply_map(state, _plus_projector(code, block, which))
    p_plus = plus.norm_sq() / total

    def branch(outcome: int) -> SparseState:
        if outcome > 0:
            part, p_sel = plus, p_plus
        else:
            part = add_states(state, plus, 1.0, -1.0)  # (1 - S)/2 = 1 - (1 + S)/2
            p_sel = part.norm_sq() / total
        if p_sel <= 0.0:
            raise ValueError("selected a zero-probability branch")
        return scale_state(part, 1.0 / math.sqrt(p_sel * total))

    return p_plus, branch


def measure_stabilizer(
    state: SparseState,
    code: RepetitionCode,
    block: int,
    which: str,
    rng: np.random.Generator,
) -> tuple[int, SparseState]:
    """Measure one block stabilizer; exactly one rng draw, outcome +1 for
    the (1 + S)/2 branch in both representations (see
    :func:`split_stabilizer`)."""
    p_plus, branch = split_stabilizer(state, code, block, which)
    outcome = draw_sign(p_plus, rng)
    return outcome, branch(outcome)


def correct_block(
    state: SparseState, code: RepetitionCode, block: int, syndrome: tuple[int, int]
) -> SparseState:
    """Decode one block's syndrome and apply the pi phase correction."""
    offset = decode(syndrome)
    if offset is None:
        return state
    return apply_local_phase(state, code.block_modes(block)[0] + offset, math.pi)


def qec_round(
    state: SparseState, code: RepetitionCode, rng: np.random.Generator
) -> tuple[SparseState, list[tuple[int, int]]]:
    """One round: per block, read both stabilizers, decode, apply the pi
    phase correction.  Blocks in ascending order, s12 before s23; the
    readout goes through ancilla 0, which must start in |0> (see
    :func:`measure_stabilizer`)."""
    syndromes: list[tuple[int, int]] = []
    for block in range(code.num_blocks):
        o12, state = measure_stabilizer(state, code, block, "s12", rng)
        o23, state = measure_stabilizer(state, code, block, "s23", rng)
        syndromes.append((o12, o23))
        state = correct_block(state, code, block, (o12, o23))
    return state, syndromes


# ---------------------------------------------------------------------------
# reference recovery
# ---------------------------------------------------------------------------


def measure_reference_and_recover(
    state: SparseState,
    code: RepetitionCode,
    rng: np.random.Generator,
) -> SparseState:
    """Collapse reference dephasing by measuring the bank atom number, then
    project back onto the code space.

    After any pattern of reference-mode phases the state is a phase-weighted
    sum of fixed-bank-number sectors; measuring the bank count (one draw)
    leaves one sector, and because every codeword of a fixed logical number
    weights those sectors identically, the code-space projection restores
    the logical state exactly (up to a global phase).  Exactness needs the
    input to be a code state (of one logical number) up to reference
    phases.  A coexisting system-mode flip is not removed: the bank count
    and the projection turn it into a logical error that the stabilizer
    round after them cannot see, so with reference errors the exchange
    deviation is linear in p (see :mod:`fermiqec.harness`).
    Raises if the projection is numerically zero.
    """
    _, state = measure_mode_number(state, state.layout.reference_modes(), rng)
    return recover_codespace(state, code)


def recover_codespace(state: SparseState, code: RepetitionCode) -> SparseState:
    """The normalized code-space projection of a state with one bank count,
    the second half of :func:`measure_reference_and_recover`."""
    projected = project_codespace(state, code)
    norm = projected.norm()
    if norm < 1e-12:
        raise ValueError("state has no code-space component in this sector")
    return projected.with_entries(
        {l: a / norm for l, a in projected.entries.items()}
    )
