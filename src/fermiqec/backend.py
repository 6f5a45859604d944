"""Compressed backend and physical/compressed cross-checking.

On the consistent subspace every basis label's reference occupation is a
function of its system count, so the reference bits can be dropped entirely:
``compress`` relabels system+ancilla bits only, ``decompress`` reinstates the
prefix.  ``run_circuit`` executes the same list of hardware gates, Majorana
rotations, reference phases and QEC rounds on either representation, and
``run_dual`` runs both sides off identical rng streams and reports how far
apart they end up — the workhorse consistency check for the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import RepetitionCode
from .gates import (
    DensityPhase,
    FSwap,
    LocalPhase,
    MeasureModeNumber,
    MeasureQubit,
    QubitGate,
    Tunneling,
    apply_gate_op,
)
from .qec import QecRound, qec_round
from .reference import (
    MajoranaRotation,
    ReferencePhase,
    apply_D_decomposed,
    apply_D_exact,
    apply_global_reference_phase,
    h_label,
    is_in_H,
)
from .registers import RegisterLayout
from .states import SparseState, difference_norm

__all__ = [
    "compress",
    "decompress",
    "run_circuit",
    "DualRunReport",
    "run_dual",
    "random_h_circuit",
]


def compress(state: SparseState) -> SparseState:
    """Drop the (implied) reference bits; ancillas slide down to sit right
    above the system block."""
    if state.compressed:
        return state
    if not is_in_H(state):
        raise ValueError("only reference-consistent states can be compressed")
    lay = state.layout
    shift = lay.num_system_modes + lay.num_reference_modes
    out = {
        (l & lay.system_mask) | (l >> shift) << lay.num_system_modes: a
        for l, a in state.entries.items()
    }
    return SparseState(lay, out, compressed=True)


def decompress(state: SparseState) -> SparseState:
    """Reinstate the reference prefix implied by each label's system count."""
    if not state.compressed:
        return state
    lay = state.layout
    out = {
        h_label(lay, l & lay.system_mask, l >> lay.num_system_modes): a
        for l, a in state.entries.items()
    }
    return SparseState(lay, out, compressed=False)


# ---------------------------------------------------------------------------
# instruction execution
# ---------------------------------------------------------------------------


def run_circuit(
    state: SparseState,
    ops: list,
    rng: np.random.Generator,
    code: RepetitionCode | None = None,
) -> tuple[SparseState, list[int]]:
    """Execute an instruction list; returns (state, measured outcomes).

    Hardware gates (:data:`fermiqec.gates.GateOp`) go to
    :func:`fermiqec.gates.apply_gate_op`.  Majorana rotations use the
    hardware decomposition on physical states and the exact rotation on
    compressed ones; a QEC round reads each block's two stabilizers the way
    :func:`fermiqec.qec.measure_stabilizer` does for the representation.
    """
    outcomes: list[int] = []
    for op in ops:
        if isinstance(op, MajoranaRotation):
            if state.compressed:
                state = apply_D_exact(state, op.mode, op.theta, op.kind)
            else:
                state = apply_D_decomposed(state, op.mode, op.theta, op.kind)
        elif isinstance(op, ReferencePhase):
            state = apply_global_reference_phase(state, op.theta)
        elif isinstance(op, QecRound):
            if code is None:
                raise ValueError("a QEC round needs a code")
            state, syndromes = qec_round(state, code, rng)
            for pair in syndromes:
                outcomes.extend(pair)
        else:
            state, outcome = apply_gate_op(state, op, rng)
            if outcome is not None:
                outcomes.append(outcome)
    return state, outcomes


# ---------------------------------------------------------------------------
# dual-representation consistency runs
# ---------------------------------------------------------------------------


@dataclass
class DualRunReport:
    """How far apart the two sides of :func:`run_dual` end: the norm of the
    difference of the final states (the physical one compressed), the
    physical side's outcomes, and whether the compressed side read the
    same ones."""

    deviation: float
    outcomes_physical: list[int]
    outcomes_match: bool


def run_dual(
    initial: SparseState,
    ops: list,
    seed: int,
    code: RepetitionCode | None = None,
) -> DualRunReport:
    """Run the same instruction list physically and compressed, feeding both
    from identical rng streams.

    The physical side is checked to stay on the consistent subspace after
    every instruction (the compressed side cannot leave it), and the final
    states are compared after compressing the physical result.
    """
    if initial.compressed:
        raise ValueError("run_dual starts from a physical state")
    rng_p = np.random.default_rng(seed)
    rng_c = np.random.default_rng(seed)

    phys = initial
    outcomes_p: list[int] = []
    for idx, op in enumerate(ops):
        phys, outs = run_circuit(phys, [op], rng_p, code)
        outcomes_p.extend(outs)
        if not is_in_H(phys):
            raise ValueError(
                f"instruction {idx} ({type(op).__name__}) left the consistent subspace"
            )

    comp, outcomes_c = run_circuit(compress(initial), ops, rng_c, code)

    return DualRunReport(
        deviation=difference_norm(compress(phys), comp),
        outcomes_physical=outcomes_p,
        outcomes_match=outcomes_p == outcomes_c,
    )


def random_h_circuit(
    layout: RegisterLayout,
    rng: np.random.Generator,
    length: int = 50,
) -> list:
    """Random instruction list that preserves the consistent subspace.

    Mixes diagonal gates (any fermionic mode), system-system tunnelings and
    swaps, qubit gates on ancilla 1, Majorana rotations, reference phases,
    sparse measurements, and exactly one full QEC round, which reads
    through ancilla 0 and so finds it in |0>, so ``length`` must be at
    least one.
    """
    if length < 1:
        raise ValueError(f"a circuit holds its QEC round, so length >= 1, got {length}")
    m_s = layout.num_system_modes
    m_f = layout.num_fermion_modes
    ops: list = []
    kinds = [
        "local",
        "density",
        "tunnel",
        "fswap",
        "qubit",
        "rotation",
        "refphase",
        "measure_qubit",
        "measure_number",
    ]
    weights = np.array([0.16, 0.16, 0.14, 0.1, 0.14, 0.14, 0.1, 0.03, 0.03])
    weights /= weights.sum()
    for _ in range(length - 1):
        kind = rng.choice(kinds, p=weights)
        if kind == "local":
            ops.append(LocalPhase(int(rng.integers(m_f)), float(rng.uniform(0, 2 * math.pi))))
        elif kind == "density":
            a, b = rng.choice(m_f, size=2, replace=False)
            ops.append(DensityPhase(int(a), int(b), float(rng.uniform(0, 2 * math.pi))))
        elif kind == "tunnel":
            a, b = rng.choice(m_s, size=2, replace=False)
            ops.append(Tunneling(int(a), int(b), float(rng.uniform(0, 2 * math.pi))))
        elif kind == "fswap":
            a, b = rng.choice(m_s, size=2, replace=False)
            ops.append(FSwap(int(a), int(b)))
        elif kind == "qubit":
            g = rng.choice(["h", "s", "sdg", "t", "z", "phase"])
            theta = float(rng.uniform(0, 2 * math.pi)) if g == "phase" else None
            ops.append(QubitGate(str(g), 1, theta=theta))
        elif kind == "rotation":
            ops.append(
                MajoranaRotation(
                    int(rng.integers(m_s)),
                    float(rng.uniform(0, 2 * math.pi)),
                    str(rng.choice(["x", "y"])),
                )
            )
        elif kind == "refphase":
            ops.append(ReferencePhase(float(rng.uniform(0, 2 * math.pi))))
        elif kind == "measure_qubit":
            ops.append(MeasureQubit(1, str(rng.choice(["z", "x", "y"]))))
        else:
            count = int(rng.integers(1, m_f + 1))
            modes = tuple(int(m) for m in rng.choice(m_f, size=count, replace=False))
            ops.append(MeasureModeNumber(modes))
    slot = int(rng.integers(len(ops) + 1))
    ops.insert(slot, QecRound())
    return ops
