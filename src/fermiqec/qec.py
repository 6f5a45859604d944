"""Syndrome extraction, decoding, and recovery for the repetition code.

Each representation reads a stabilizer its own way.  Physical states run
the hardware ancilla gadget (Hadamard, two controlled pi/2 Majorana
rotations split by S-dagger, then a computational-basis measurement);
compressed states project directly with ``(1 + S)/2``, a label map memoized
by the code.  Both consume exactly one random draw per stabilizer with the
same outcome orientation, so the two representations agree draw for draw.
The gadget needs its readout ancilla in |0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codes import (
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
    measurable_norm_sq,
    measure_mode_number,
    measure_qubit,
)
from .reference import controlled_D
from .registers import RegisterLayout
from .states import SparseState, add_states, apply_map, scale_state

__all__ = [
    "QecRound",
    "SYNDROME_TABLE",
    "generate_syndrome_table",
    "decode",
    "measure_stabilizer",
    "qec_round",
    "measure_reference_and_recover",
]


@dataclass(frozen=True)
class QecRound:
    """Circuit instruction: one full round of syndrome extraction plus
    correction, read through ``ancilla`` (which must be in |0>)."""

    ancilla: int = 0


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


def _plus_projector(
    code: RepetitionCode, block: int, which: str
) -> Callable[[int], tuple[tuple[int, complex], ...]]:
    """(1 + S)/2 on compressed labels: the label itself plus half its image
    under the code's memoized stabilizer map."""
    stab = code.compiled_stabilizer(which, block)
    return code.label_map(
        ("plus", which, block),
        None,
        stab.mask,
        lambda sys: ((sys, 0.5), *((t, 0.5 * c) for t, c in stab.part(sys))),
    )


def _reset_ancilla(state: SparseState, qubit: int) -> SparseState:
    """Return the measured-out ancilla to |0> so it can be reused."""
    bit = ancilla_mask(state, qubit)
    return apply_map(state, lambda l: ((l & ~bit, 1.0),))


def measure_stabilizer(
    state: SparseState,
    code: RepetitionCode,
    block: int,
    which: str,
    rng: np.random.Generator,
    ancilla: int = 0,
) -> tuple[int, SparseState]:
    """Measure one block stabilizer; exactly one rng draw.

    A physical state runs the gadget: it entangles ``ancilla`` via two
    controlled pi/2 Majorana rotations (higher mode first, split by
    S-dagger so the branch phases cancel), measures it, and resets it.
    ``ancilla`` must start in |0>, or the outcome means nothing.  A
    compressed state is split into the two eigencomponents directly and
    ``ancilla`` is ignored.  Outcome +1 corresponds to the (1 + S)/2 branch
    in both.  Needs ``N >= M_s``: with every atom on the system and the
    target mode empty, c^dag there has nothing to borrow and the stabilizer
    does not square to one.
    """
    hi, lo, kind = stabilizer_majoranas(code, block, which)
    lay = state.layout
    if lay.total_atoms < lay.num_system_modes:
        raise ValueError(f"stabilizer readout needs N >= M_s, got {lay}")
    if not state.compressed:
        work = apply_qubit_gate(state, "h", ancilla)
        work = controlled_D(work, ancilla, hi, math.pi / 2, kind)
        work = apply_qubit_gate(work, "sdg", ancilla)
        work = controlled_D(work, ancilla, lo, math.pi / 2, kind)
        work = apply_qubit_gate(work, "h", ancilla)
        outcome, work = measure_qubit(work, ancilla, rng)
        return outcome, _reset_ancilla(work, ancilla)

    total = measurable_norm_sq(state)
    plus = apply_map(state, _plus_projector(code, block, which))
    p_plus = plus.norm_sq() / total
    u = rng.random()
    if u < p_plus:
        return 1, scale_state(plus, 1.0 / math.sqrt(p_plus * total))
    minus = add_states(state, plus, 1.0, -1.0)  # (1 - S)/2 = 1 - (1 + S)/2
    p_minus = minus.norm_sq() / total
    if p_minus <= 0.0:
        raise ValueError("selected a zero-probability branch")
    return -1, scale_state(minus, 1.0 / math.sqrt(p_minus * total))


def qec_round(
    state: SparseState,
    code: RepetitionCode,
    rng: np.random.Generator,
    ancilla: int = 0,
) -> tuple[SparseState, list[tuple[int, int]]]:
    """One round: per block, read both stabilizers, decode, apply the pi
    phase correction.  Blocks in ascending order, s12 before s23; the
    readout ``ancilla`` must start in |0> (see :func:`measure_stabilizer`)."""
    syndromes: list[tuple[int, int]] = []
    for block in range(code.num_blocks):
        o12, state = measure_stabilizer(state, code, block, "s12", rng, ancilla)
        o23, state = measure_stabilizer(state, code, block, "s23", rng, ancilla)
        syndromes.append((o12, o23))
        offset = decode((o12, o23))
        if offset is not None:
            state = apply_local_phase(state, code.block_modes(block)[0] + offset, math.pi)
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
    phases; a coexisting system-mode error aliases into the code space
    under the sector projection and is only approximately removed.  Raises
    if the projection is numerically zero.
    """
    _, state = measure_mode_number(state, state.layout.reference_modes(), rng)
    projected = project_codespace(state, code)
    norm = projected.norm()
    if norm < 1e-12:
        raise ValueError("state has no code-space component in this sector")
    return projected.with_entries(
        {l: a / norm for l, a in projected.entries.items()}
    )
