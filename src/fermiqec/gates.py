"""Fermionic mode gates, ancilla-qubit gates, and projective measurements.

The small frozen dataclasses are hardware gate records (``GateOp``) that
:func:`apply_gate_op` dispatches; instruction lists hold them, and
:func:`fermiqec.reference.apply_D_decomposed` runs its gate sequence
through the same dispatcher.  The ``apply_*`` functions do the actual work
on sparse states, each by handing the image of one basis label to
:func:`fermiqec.states.apply_map`.  Everything is functional — inputs are
never mutated.

Sign conventions all flow from the Jordan-Wigner ordering fixed in
:mod:`fermiqec.registers`: a site operator on mode ``i`` picks up
``(-1)**(number of occupied modes below i)``.  Ancilla qubits sit above every
fermionic mode and carry no string.

Each measurement is a split and a draw: ``split_qubit`` and
``split_mode_number`` give the outcome probabilities and a branch that
builds the post state of a chosen outcome, and the ``measure_*`` functions
take one draw between them.  The exchange harness uses the same splits, so
it caches probabilities without a copy of their arithmetic.

On compressed states the reference occupations are implied by the system
count (the occupation rule of :mod:`fermiqec.registers`).  Diagonal gates
and number measurements stay well defined on reference modes: they count
atoms through :meth:`~fermiqec.registers.RegisterLayout.counter`.  Gates
that move atoms between literal and implied modes do not; those raise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .registers import RegisterLayout, jw_sign
from .states import (
    SparseState,
    add_states,
    amplitude_weights,
    apply_map,
    phase_factor,
    weight_sum,
)

__all__ = [
    "LocalPhase",
    "DensityPhase",
    "Tunneling",
    "FSwap",
    "QubitGate",
    "MeasureQubit",
    "MeasureModeNumber",
    "GateOp",
    "ancilla_mask",
    "measurable_norm_sq",
    "number_expectation",
    "apply_local_phase",
    "apply_density_phase",
    "apply_tunneling",
    "fswap_image",
    "apply_fswap",
    "apply_qubit_gate",
    "apply_controlled",
    "apply_annihilation",
    "apply_creation",
    "draw_sign",
    "to_measurement_basis",
    "split_qubit",
    "measure_qubit",
    "split_mode_number",
    "select_count",
    "measure_mode_number",
    "apply_gate_op",
]

SQRT_HALF = math.sqrt(0.5)

_QUBIT_DIAGONAL = {
    "s": 1.0j,
    "sdg": -1.0j,
    "z": -1.0 + 0.0j,
    "t": complex(math.cos(math.pi / 4), math.sin(math.pi / 4)),
}


# ---------------------------------------------------------------------------
# circuit instruction records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalPhase:
    """exp(i * theta * n_mode) on one fermionic mode."""

    mode: int
    theta: float


@dataclass(frozen=True)
class DensityPhase:
    """exp(i * theta * n_a * n_b) on a pair of fermionic modes."""

    mode_a: int
    mode_b: int
    theta: float


@dataclass(frozen=True)
class Tunneling:
    """exp(i * theta * (r_a^dag r_b + r_b^dag r_a)) between two modes."""

    mode_a: int
    mode_b: int
    theta: float


@dataclass(frozen=True)
class FSwap:
    """Fermionic swap of two modes (swap plus parity phase)."""

    mode_a: int
    mode_b: int


@dataclass(frozen=True)
class QubitGate:
    """Single-ancilla qubit gate.

    ``kind`` is one of ``h``, ``s``, ``sdg``, ``t``, ``z``, ``phase`` (needs
    ``theta``).
    """

    kind: str
    qubit: int
    theta: float | None = None


@dataclass(frozen=True)
class MeasureQubit:
    qubit: int
    basis: str = "z"


@dataclass(frozen=True)
class MeasureModeNumber:
    modes: tuple[int, ...]


GateOp = Union[
    LocalPhase,
    DensityPhase,
    Tunneling,
    FSwap,
    QubitGate,
    MeasureQubit,
    MeasureModeNumber,
]


# ---------------------------------------------------------------------------
# occupation helpers
# ---------------------------------------------------------------------------


def _check_fermion_mode(lay: RegisterLayout, mode: int) -> None:
    if mode < 0 or mode >= lay.num_fermion_modes:
        raise ValueError(f"mode {mode} outside fermionic register")


def measurable_norm_sq(total: float) -> float:
    """``total``, the squared norm of a state about to be measured; raises
    when it is (numerically) zero."""
    if total < 1e-12:
        raise ValueError("cannot measure a (numerically) zero state")
    return total


def number_expectation(state: SparseState, mode: int) -> float:
    """<n_mode> on a (not necessarily normalized) state: the probability
    that a readout of ``mode`` counts one atom."""
    return split_mode_number(state, (mode,))[0].get(1, 0.0)


def _check_literal_pair(state: SparseState, a: int, b: int, what: str) -> None:
    lay = state.layout
    _check_fermion_mode(lay, a)
    _check_fermion_mode(lay, b)
    if a == b:
        raise ValueError(f"{what} needs two distinct modes")
    if state.compressed and (a >= lay.num_system_modes or b >= lay.num_system_modes):
        raise ValueError(
            f"{what} involving reference modes is undefined on compressed states"
        )


# ---------------------------------------------------------------------------
# diagonal gates
# ---------------------------------------------------------------------------


def _phase_where_occupied(
    state: SparseState, mask: int, ph: complex
) -> Callable[[int], tuple[tuple[int, complex]]]:
    """Diagonal image: ``ph`` on labels where every mode under ``mask`` is
    occupied (implied reference occupations included), 1 elsewhere."""
    if not state.compressed or not mask & state.layout.reference_mask:
        return lambda l: ((l, ph if l & mask == mask else 1.0),)
    count, full = state.layout.counter(mask, True), mask.bit_count()
    return lambda l: ((l, ph if count(l) == full else 1.0),)


def apply_local_phase(state: SparseState, mode: int, theta: float) -> SparseState:
    _check_fermion_mode(state.layout, mode)
    ph = phase_factor(theta)
    if ph == 1.0:
        return state
    return apply_map(state, _phase_where_occupied(state, 1 << mode, ph))


def apply_density_phase(
    state: SparseState, mode_a: int, mode_b: int, theta: float
) -> SparseState:
    _check_fermion_mode(state.layout, mode_a)
    _check_fermion_mode(state.layout, mode_b)
    if mode_a == mode_b:
        raise ValueError("density-density phase needs two distinct modes")
    ph = phase_factor(theta)
    mask = 1 << mode_a | 1 << mode_b
    return apply_map(state, _phase_where_occupied(state, mask, ph))


# ---------------------------------------------------------------------------
# atom-moving gates
# ---------------------------------------------------------------------------


def _between_mask(a: int, b: int) -> int:
    """Bits of the modes strictly between modes a and b."""
    lo, hi = (a, b) if a < b else (b, a)
    return ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)


def apply_tunneling(
    state: SparseState, mode_a: int, mode_b: int, theta: float
) -> SparseState:
    """exp(i theta (r_a^dag r_b + h.c.)).

    In the single-occupancy sector of the pair this is the 2x2 block
    [[cos t, i s sin t], [i s sin t, cos t]] where ``s`` is the parity of the
    modes strictly between ``a`` and ``b``; doubly occupied and empty pairs
    are untouched.
    """
    _check_literal_pair(state, mode_a, mode_b, "tunneling")
    c, s_amp = math.cos(theta), math.sin(theta)
    flip = (1 << mode_a) | (1 << mode_b)
    between = _between_mask(mode_a, mode_b)
    hop_even, hop_odd = 1j * s_amp, -1j * s_amp

    def image(l: int) -> tuple[tuple[int, complex], ...]:
        occupied = l & flip
        if not occupied or occupied == flip:
            return ((l, 1.0),)
        odd = (l & between).bit_count() & 1
        return ((l, c), (l ^ flip, hop_odd if odd else hop_even))

    return apply_map(state, image)


def fswap_image(
    mode_a: int, mode_b: int
) -> Callable[[int], tuple[tuple[int, complex]]]:
    """Label image of the fermionic swap of two distinct modes: ``|11>`` ->
    ``-|11>``, single occupancy swaps with the parity sign of the modes in
    between, empty pairs untouched."""
    flip = (1 << mode_a) | (1 << mode_b)
    between = _between_mask(mode_a, mode_b)

    def image(l: int) -> tuple[tuple[int, complex]]:
        occupied = l & flip
        if occupied == flip:
            return ((l, -1.0),)
        if occupied:
            return ((l ^ flip, -1 if (l & between).bit_count() & 1 else 1),)
        return ((l, 1.0),)

    return image


def apply_fswap(state: SparseState, mode_a: int, mode_b: int) -> SparseState:
    """Fermionic swap (:func:`fswap_image`) on the modes' literal bits."""
    _check_literal_pair(state, mode_a, mode_b, "fswap")
    return apply_map(state, fswap_image(mode_a, mode_b))


# ---------------------------------------------------------------------------
# bare site operators (Jordan-Wigner signed)
# ---------------------------------------------------------------------------


def _site_op(state: SparseState, mode: int, create: bool) -> SparseState:
    """Signed ladder operator on one literal mode of a physical state."""
    _check_fermion_mode(state.layout, mode)
    if state.compressed:
        raise ValueError("bare site operators are undefined on compressed states")
    bit = 1 << mode
    return apply_map(
        state,
        lambda l: () if bool(l & bit) == create else ((l ^ bit, jw_sign(l, mode)),),
    )


def apply_annihilation(state: SparseState, mode: int) -> SparseState:
    """Site annihilation s_mode (with string sign).  Physical states only:
    removing an atom has no compressed representation because the implied
    reference prefix would no longer match."""
    return _site_op(state, mode, create=False)


def apply_creation(state: SparseState, mode: int) -> SparseState:
    """Site creation s_mode^dag (with string sign).  Physical states only."""
    return _site_op(state, mode, create=True)


# ---------------------------------------------------------------------------
# ancilla qubit gates
# ---------------------------------------------------------------------------


def ancilla_mask(state: SparseState, qubit: int) -> int:
    """The bit of ancilla ``qubit`` in the state's representation."""
    return 1 << state.layout.ancilla_bit(qubit, compressed=state.compressed)


def apply_qubit_gate(
    state: SparseState,
    kind: str,
    qubit: int,
    qubit_b: int | None = None,
    theta: float | None = None,
) -> SparseState:
    """One ancilla gate: ``h``, ``s``, ``sdg``, ``t``, ``z`` or ``phase``
    (needs ``theta``) on ``qubit``, or ``cphase`` (needs ``theta``), the
    phase exp(i theta) where both ``qubit`` and a distinct ``qubit_b`` are
    |1>."""
    bit = ancilla_mask(state, qubit)
    if kind == "h":
        minus = -SQRT_HALF
        return apply_map(
            state,
            lambda l: (
                (l & ~bit, SQRT_HALF),
                (l | bit, minus if l & bit else SQRT_HALF),
            ),
        )
    if kind in _QUBIT_DIAGONAL or kind == "phase":
        if kind == "phase":
            if theta is None:
                raise ValueError("phase gate needs theta")
            ph = phase_factor(theta)
        else:
            ph = _QUBIT_DIAGONAL[kind]
        mask = bit
    elif kind == "cphase":
        if qubit_b is None:
            raise ValueError("cphase needs a second qubit")
        if qubit_b == qubit:
            raise ValueError("cphase needs two distinct qubits")
        if theta is None:
            raise ValueError("cphase needs theta")
        ph = phase_factor(theta)
        mask = bit | ancilla_mask(state, qubit_b)
    else:
        raise ValueError(f"unknown qubit gate {kind!r}")
    return apply_map(state, lambda l: ((l, ph if l & mask == mask else 1.0),))


def apply_controlled(
    state: SparseState, qubit: int, fn: Callable[[SparseState], SparseState]
) -> SparseState:
    """Apply ``fn`` on the |1> branch of ancilla ``qubit``.

    ``fn`` must not touch the control qubit itself.
    """
    bit = ancilla_mask(state, qubit)
    idle = apply_map(state, lambda l: () if l & bit else ((l, 1.0),))
    branch = fn(apply_map(state, lambda l: ((l, 1.0),) if l & bit else ()))
    if branch.layout != state.layout or branch.compressed != state.compressed:
        raise ValueError("controlled operation changed the representation")
    if not all(l & bit for l in branch.entries):
        raise ValueError("controlled operation moved amplitude off the |1> branch")
    return add_states(idle, branch)


# ---------------------------------------------------------------------------
# projective measurements
# ---------------------------------------------------------------------------


def draw_sign(p_plus: float, rng: np.random.Generator) -> int:
    """+1 with probability ``p_plus``, else -1: one draw, ``u < p_plus``."""
    return 1 if rng.random() < p_plus else -1


def to_measurement_basis(state: SparseState, qubit: int, basis: str) -> SparseState:
    """Rotate ancilla ``qubit`` so that a computational-basis readout
    measures ``basis``: H for ``x``, S^dag then H for ``y``."""
    if basis == "x":
        return apply_qubit_gate(state, "h", qubit)
    if basis == "y":
        return apply_qubit_gate(apply_qubit_gate(state, "sdg", qubit), "h", qubit)
    if basis != "z":
        raise ValueError(f"unknown measurement basis {basis!r}")
    return state


def split_qubit(
    state: SparseState, qubit: int
) -> tuple[float, Callable[[int], SparseState]]:
    """Probabilities and branch of a computational-basis readout of one
    ancilla: ``(p0, branch)`` with ``p0`` the probability of bit 0 (outcome
    +1) and ``branch(outcome)`` the renormalized post state.  The branch
    raises on a zero-probability outcome."""
    bit = ancilla_mask(state, qubit)
    p0 = weight_sum([a for l, a in state.entries.items() if not l & bit])
    total = measurable_norm_sq(state.norm_sq())
    prob0 = p0 / total

    def branch(outcome: int) -> SparseState:
        p_sel = prob0 if outcome > 0 else 1.0 - prob0
        if p_sel <= 0.0:
            raise ValueError("selected a zero-probability branch")
        scale = 1.0 / math.sqrt(p_sel * total)
        keep = 0 if outcome > 0 else bit
        return apply_map(state, lambda l: ((l, scale),) if l & bit == keep else ())

    return prob0, branch


def measure_qubit(
    state: SparseState,
    qubit: int,
    rng: np.random.Generator,
    basis: str = "z",
) -> tuple[int, SparseState]:
    """Projectively measure one ancilla qubit; exactly one rng draw.

    Returns ``(outcome, post)`` with outcome +1 for bit 0 and -1 for bit 1.
    ``basis='x'`` applies H first, ``basis='y'`` applies S^dag then H; the
    post-measurement state is left in that rotated (computational) frame,
    which is all the gadgets here ever need.
    """
    p0, branch = split_qubit(to_measurement_basis(state, qubit, basis), qubit)
    outcome = draw_sign(p0, rng)
    return outcome, branch(outcome)


def split_mode_number(
    state: SparseState, modes: tuple[int, ...] | list[int] | set[int]
) -> tuple[dict[int, float], Callable[[int], SparseState]]:
    """Probabilities and branch of an atom-number readout on ``modes``:
    ``(probs, branch)`` with ``probs`` mapping each count present, in
    ascending order, to its probability, and ``branch(count)`` the
    renormalized projection onto that count; it raises on a count of zero
    probability.  Works on both representations (implied reference
    occupations included)."""
    mode_list = sorted(set(modes))
    if not mode_list:
        raise ValueError("need at least one mode to measure")
    lay = state.layout
    mask = 0
    for m in mode_list:
        _check_fermion_mode(lay, m)
        mask |= 1 << m
    entries = state.entries
    weights = amplitude_weights(entries.values())
    total = measurable_norm_sq(math.fsum(weights.tolist()))
    count = lay.counter(mask, state.compressed)
    counts = np.fromiter(map(count, entries), np.int64, len(entries))
    probs = {
        cnt: math.fsum(weights[counts == cnt].tolist()) / total
        for cnt in np.flatnonzero(np.bincount(counts)).tolist()
    }

    def branch(selected: int) -> SparseState:
        p_sel = probs.get(selected, 0.0)
        if p_sel <= 0.0:
            raise ValueError("selected a zero-probability branch")
        scale = 1.0 / math.sqrt(p_sel * total)
        keep = set(itertools.compress(entries, (counts == selected).tolist()))
        return apply_map(state, lambda l: ((l, scale),) if l in keep else ())

    return probs, branch


def select_count(probs: dict[int, float], u: float) -> int:
    """The count a uniform draw ``u`` selects: the first in ascending order
    whose cumulative probability exceeds ``u``, else the largest."""
    cum = 0.0
    for cnt, p in probs.items():
        cum += p
        if u < cum:
            return cnt
    return cnt


def measure_mode_number(
    state: SparseState,
    modes: tuple[int, ...] | list[int] | set[int],
    rng: np.random.Generator,
) -> tuple[int, SparseState]:
    """Measure the total atom number on a set of fermionic modes.

    Exactly one rng draw.  Outcomes are grouped by count, the cumulative
    distribution runs over ascending counts, and the post state is the
    renormalized projection onto the sampled count.  Works on both
    representations (implied reference occupations included).
    """
    probs, branch = split_mode_number(state, modes)
    selected = select_count(probs, rng.random())
    return selected, branch(selected)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def apply_gate_op(
    state: SparseState, op: GateOp, rng: np.random.Generator | None = None
) -> tuple[SparseState, int | None]:
    """Apply one instruction; returns (state, outcome-or-None)."""
    if isinstance(op, LocalPhase):
        return apply_local_phase(state, op.mode, op.theta), None
    if isinstance(op, DensityPhase):
        return apply_density_phase(state, op.mode_a, op.mode_b, op.theta), None
    if isinstance(op, Tunneling):
        return apply_tunneling(state, op.mode_a, op.mode_b, op.theta), None
    if isinstance(op, FSwap):
        return apply_fswap(state, op.mode_a, op.mode_b), None
    if isinstance(op, QubitGate):
        return apply_qubit_gate(state, op.kind, op.qubit, theta=op.theta), None
    if isinstance(op, MeasureQubit):
        if rng is None:
            raise ValueError("measurement instruction needs an rng")
        outcome, post = measure_qubit(state, op.qubit, rng, op.basis)
        return post, outcome
    if isinstance(op, MeasureModeNumber):
        if rng is None:
            raise ValueError("measurement instruction needs an rng")
        outcome, post = measure_mode_number(state, op.modes, rng)
        return post, outcome
    raise TypeError(f"unknown instruction {op!r}")
