"""Logical exchange interferometry with injected phase noise.

Three code blocks hold |1, 1, 0>; an interferometer ancilla in superposition
controls a cycle of three logical pi/2 tunnelings (blocks 1-3, 1-2, 2-3)
whose net effect on the occupied pair is a pure exchange phase i.  The
ancilla therefore ends in |+i> and the y-basis estimate sits at exactly -1
in the noiseless case; phase errors push it up, and the deviation epsilon
scales linearly in the error rate without correction and quadratically with
the repetition-code rounds enabled, unless the reference modes dephase too
(see :func:`_shot_plan`).  Every run uses one register,
:data:`EXCHANGE_REGISTER`, and its :class:`ExperimentConfig` is the one
description of a run.

A shot walks the steps of its plan (:func:`_shot_plan`) on a row of
doubles fixed by ``(seed, point, shot)`` alone
(:func:`~fermiqec.draws.shot_draws`), so no result depends on how shots
are spread over workers.  The shots of a block walk together
(:func:`_walk_block`) over a history memo (:class:`_HistoryMemo`), a graph
with one node per state at each step, however many histories reach it.  A
process builds the code, the base state and one memo once
(:func:`_exchange_start`), and every run walks that memo, so a run walks
the nodes that earlier runs of its shape built.  Only a process that makes
several runs gains, such as ``bench/run.py``, which calls the CLI hundreds
of times in one process, or a Python session calling
:func:`run_experiment` in a loop.  No command of the package does: one
``fermiqec exchange`` call makes one run, whose points already share one
memo.

Neither merging histories nor deferring flips changes a bit of any shot.

Two histories filed under one node carry the same step and the same state
up to a global phase ``k`` in {1, -1, i, -i}, in whatever entry order, and
at a correction's step the same last outcome, which is all a later gate
reads.  Neither the order of their entries nor ``k`` changes a later
probability: every gate and branch of a plan makes each amplitude from at
most two terms, chosen by label, and two terms add the same either way
round; every probability is a ``math.fsum``, exact whatever the order (the
bank count takes one per count, in ascending count order).  Multiplying by
``k`` only swaps and negates real and imaginary parts, and rounding to
nearest is symmetric under both, so each later amplitude, built by sums,
products and quotients by constants, is ``k`` times the unturned one and
each weight ``re * re + im * im`` is the same.  So every later
probability, branch and draw is the same, up to the sign of a zero part,
which no probability sees.

A shot carries its system phase flips as a Pauli frame (Knill, Nature 434,
39 (2005); Gidney, Quantum 5, 497 (2021)): a pi flip on a system mode
multiplies each amplitude by exactly +1 or -1, by that mode's bit, so it
commutes with every step that keeps the bit, and it waits until a step
changes its mode.  Such a step maps each label only to labels of the same
sign under the flip, so every later product, sum, quotient and magnitude is
that sign times the one built with the flip applied (rounding to nearest is
symmetric under negation), each weight is the same, and two flips of one
mode cancel exactly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .codes import RepetitionCode, logical_basis_state
from .draws import shot_draws
from .gates import (
    apply_qubit_gate,
    draw_sign,
    measure_mode_number,
    split_mode_number,
    split_qubit,
    to_measurement_basis,
)
from .logical import controlled_tunneling_logical
from .qec import correct_block, measure_stabilizer, recover_codespace, split_stabilizer
from .registers import RegisterLayout
from .states import SparseState, apply_map
from .stats import clopper_pearson

__all__ = [
    "noise_modes",
    "sample_phase_error_layer",
    "ExperimentConfig",
    "PointResult",
    "ExperimentResult",
    "run_experiment",
    "EXCHANGE_PAIRS",
    "EXCHANGE_REGISTER",
]

#: Block pairs of the three controlled tunnelings, in time order.
EXCHANGE_PAIRS = ((0, 2), (0, 1), (1, 2))
#: ``(M_s, M_r, N)`` of every exchange run: three three-mode blocks, with
#: two ancillas beside them, the stabilizer readout's (0) and the
#: interferometer (1).
EXCHANGE_REGISTER = (9, 9, 9)

_INTERFEROMETER = 1  # ancilla carrying the exchange phase


def noise_modes(layout: RegisterLayout, include_reference: bool) -> tuple[int, ...]:
    """The modes an error layer draws for, ascending: the system modes,
    plus the reference modes when ``include_reference`` is set."""
    last = layout.num_fermion_modes if include_reference else layout.num_system_modes
    return tuple(range(last))


def _draw_flips(modes: tuple[int, ...], p: float, rng: np.random.Generator) -> tuple[int, ...]:
    """The modes one error layer flips: one draw of ``len(modes)`` doubles
    (the same doubles as one scalar draw each), a flip where ``u < p``.
    The doubles may come as an ndarray or, from a :class:`_StepDraws`, as
    a list."""
    return tuple(m for m, u in zip(modes, rng.random(len(modes))) if u < p)


def _mask(modes: Iterable[int]) -> int:
    """The bitmask of ``modes``: bit ``m`` for mode ``m``."""
    return sum(1 << m for m in modes)


def _apply_flips(state: SparseState, flips: int) -> SparseState:
    """A pi phase on each mode of the bitmask ``flips``, in one diagonal
    pass; the state itself when ``flips`` is 0."""
    if not flips:
        return state
    count = state.layout.counter(flips, state.compressed)
    return apply_map(state, lambda l: ((l, -1.0 if count(l) & 1 else 1.0),))


def sample_phase_error_layer(
    state: SparseState, p: float, modes: tuple[int, ...], rng: np.random.Generator
) -> tuple[SparseState, tuple[int, ...]]:
    """One error layer: a single-mode pi phase flip on each of ``modes``
    (ascending), each firing independently with probability ``p``; a draw
    per mode, then a single diagonal pass applying the sampled flips.

    Draws are consumed even at p = 0 so rng streams stay aligned across
    noise settings.  Returns ``state`` itself when nothing flipped.
    """
    flipped = _draw_flips(modes, p, rng)
    return _apply_flips(state, _mask(flipped)), flipped


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One exchange run on :data:`EXCHANGE_REGISTER`, its error layers
    cycling through the four slots, and the confidence of its intervals.
    The fields are checked here, before any shot."""

    p_values: tuple[float, ...]
    shots: int = 100_000
    num_error_layers: int = 3
    correction_enabled: bool = True
    include_reference_errors: bool = False
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self) -> None:
        for name in ("seed", "shots", "num_error_layers"):
            _integer(getattr(self, name), name)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.num_error_layers < 0:
            raise ValueError("num_error_layers must be non-negative")
        for name in ("correction_enabled", "include_reference_errors"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be True or False, got {value!r}")
        if not isinstance(self.p_values, tuple) or not self.p_values:
            raise ValueError(
                f"need a tuple of at least one error probability, got {self.p_values!r}"
            )
        for p in self.p_values:
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"error probabilities must be real numbers, got {p!r}")
        if not all(0.0 <= p <= 1.0 for p in self.p_values):
            raise ValueError("error probabilities must lie in [0, 1]")
        confidence = self.confidence
        if not isinstance(confidence, numbers.Real) or not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be a real number in (0, 1), got {confidence!r}"
            )


def _integer(value, what: str) -> int:
    """``value`` as an int if :func:`operator.index` takes it and it is not
    a bool (so True, 2.5 and 2.0 do not pass), else a ``ValueError``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# one shot: a walk over steps, memoized by state
# ---------------------------------------------------------------------------

#: Most nodes a memo holds before it starts over, over every shape and run
#: that walks it: its one size rule, read by :meth:`_HistoryMemo.node` (a
#: node's size: :class:`_Node`).  A fresh 256-shot exchange call makes 14-60
#: nodes uncorrected and 36-86 corrected at p = 0.002 and 0.01, and 168-249
#: with reference errors at p = 0.01 (seeds 0-19).
_MEMO_CAP = 512

#: A deterministic step of a shot: ``(state, syndrome) -> state``, where
#: ``syndrome`` holds the last two outcomes (a block's readouts, for its
#: correction).
_Gate = Callable[[SparseState, tuple], SparseState]


class _StepDraws(NamedTuple):
    """One shot's doubles for one event, drawn as the plain measurements
    draw from a generator: ``random()`` gives the first, ``random(n)`` all
    ``n``."""

    doubles: list[float]

    def random(self, size: int | None = None):
        if (1 if size is None else size) != len(self.doubles):
            raise ValueError(f"an event of {len(self.doubles)} doubles asked for {size}")
        return self.doubles[0] if size is None else self.doubles


class _Step(NamedTuple):
    """One event of a shot and the gates that follow it.

    A shot reads the doubles at ``columns`` of its row for this event.
    ``measure(state, draws) -> (outcome, post)`` is the plain step: one
    measurement on one shot's doubles.  ``split(state) -> (odds, branch)``
    gives the outcome probabilities and ``branch(outcome)``, the post state;
    ``pick(odds, u)`` compares the doubles ``u`` of a group of shots, one
    row each, as ``measure`` compares its draw, and gives each outcome with
    a selector of the rows that take it.  No ``split`` reads the error rate
    (an error layer's odds are its noise modes, and its ``pick`` brings p),
    so the odds a node keeps serve every plan that walks it.
    ``reads_last`` is set where the gates read the outcome before this
    event's (a block's s12 readout, for the correction after its s23).

    ``touches`` is the bitmask of the system modes whose occupation bit the
    event or its gates may change: a stabilizer readout its block, a
    controlled tunneling its two blocks, ``recover_codespace`` every system
    mode; the other events and gates are diagonal on the modes or act on an
    ancilla alone.  ``defers`` is the bitmask of the modes whose flips an
    error layer leaves pending: its system modes that its own gates do not
    touch, and 0 at every other event.  A reference flip never waits, as its
    sign on a compressed label depends on the system atom count, which
    readouts change.
    """

    measure: Callable[[SparseState, _StepDraws], tuple]
    split: Callable[[SparseState], tuple]
    pick: Callable[[object, np.ndarray], Iterable[tuple]]
    columns: slice
    reads_last: bool
    gates: tuple[_Gate, ...]
    touches: int
    defers: int


def _pick_flips(
    modes: tuple[int, ...], p: float, u: np.ndarray
) -> Iterable[tuple[tuple[int, ...], object]]:
    """The flips of one error layer in each row of ``u`` (one double per
    mode), a flip where ``u < p`` as in :func:`_draw_flips`: the rows
    that flip nothing, then the rows of each flip pattern."""
    hits = u < p
    flipped: dict[int, list[int]] = {}
    for row, j in zip(*(a.tolist() for a in np.nonzero(hits))):
        flipped.setdefault(row, []).append(modes[j])
    groups: dict[tuple[int, ...], object] = {(): ~hits.any(axis=1)}
    for row, flips in flipped.items():
        groups.setdefault(tuple(flips), []).append(row)
    return groups.items()


def _pick_signs(p_plus: float, u: np.ndarray) -> Iterable[tuple[int, np.ndarray]]:
    """+1 for the rows whose double is below ``p_plus``, -1 for the others,
    as :func:`~fermiqec.gates.draw_sign` compares."""
    plus = u[:, 0] < p_plus
    return ((1, plus), (-1, ~plus))


def _pick_counts(probs: dict[int, float], u: np.ndarray) -> Iterable[tuple[int, np.ndarray]]:
    """The count each row's double selects, as
    :func:`~fermiqec.gates.select_count` selects it: the first count in
    ascending order whose running sum of probabilities, added up in that
    order from 0.0, exceeds the double, else the largest."""
    counts = list(probs)
    sums = list(itertools.accumulate(probs.values(), initial=0.0))[1:]
    index = np.minimum(np.searchsorted(sums, u[:, 0], side="right"), len(counts) - 1)
    present = np.flatnonzero(np.bincount(index)).tolist()
    return ((counts[i], index == i) for i in present)


def _error_layer(p: float, modes: tuple[int, ...]) -> tuple:
    """``(measure, split, pick)`` of an error layer."""
    return (
        lambda s, draws: sample_phase_error_layer(s, p, modes, draws)[::-1],
        lambda s: (modes, lambda flipped: _apply_flips(s, _mask(flipped))),
        lambda odds, u: _pick_flips(odds, p, u),
    )


def _stabilizer(code: RepetitionCode, block: int, which: str) -> tuple:
    """``(measure, split, pick)`` of one block stabilizer readout."""
    return (
        lambda s, draws: measure_stabilizer(s, code, block, which, draws),
        lambda s: split_stabilizer(s, code, block, which),
        _pick_signs,
    )


#: ``(measure, split, pick)`` of the bank atom count.
_BANK_COUNT = (
    lambda s, draws: measure_mode_number(s, s.layout.reference_modes(), draws),
    lambda s: split_mode_number(s, s.layout.reference_modes()),
    _pick_counts,
)

def _read_final(state: SparseState, draws: _StepDraws) -> tuple[int, None]:
    """The final readout's plain step, on a state already rotated to the y
    basis: the outcome :func:`~fermiqec.gates.measure_qubit` draws, without
    the post state, which no step reads."""
    p0, _ = split_qubit(state, _INTERFEROMETER)
    return draw_sign(p0, draws), None


#: ``(measure, split, pick)`` of the final readout.
_FINAL_READOUT = (_read_final, lambda s: split_qubit(s, _INTERFEROMETER), _pick_signs)


def _tunnel(code: RepetitionCode, a: int, b: int) -> _Gate:
    return lambda s, _: controlled_tunneling_logical(
        s, _INTERFEROMETER, code, a, b, math.pi / 2
    )


def _correct(code: RepetitionCode, block: int) -> _Gate:
    return lambda s, syndrome: correct_block(s, code, block, syndrome)


class _PlanShape(NamedTuple):
    """What a shot plan follows besides its error rate: the fields of an
    :class:`ExperimentConfig` that set its steps, and the key of its root
    in the memo."""

    num_error_layers: int
    correction_enabled: bool
    include_reference_errors: bool


def _plan_shape(config: ExperimentConfig) -> _PlanShape:
    """The :class:`_PlanShape` of ``config``'s shots."""
    return _PlanShape(
        config.num_error_layers, config.correction_enabled, config.include_reference_errors
    )


class _Plan(NamedTuple):
    """One shot of ``shape``: ``head``, the gates before the first event,
    then ``steps``, each event with the gates after it.  ``width`` is the
    number of doubles a shot draws: each error layer draws one per noise
    mode, every other event one."""

    shape: _PlanShape
    head: tuple[_Gate, ...]
    steps: tuple[_Step, ...]
    width: int


def _shot_plan(code: RepetitionCode, shape: _PlanShape, p: float) -> _Plan:
    """The :class:`_Plan` of one shot of ``shape`` at error rate ``p``.
    Slots 0..2 precede the three tunnelings and slot 3 the final readout;
    error layer ``i`` goes in slot ``i % 4``.

    With correction enabled each layer is followed by a full round,
    preceded by a bank count and a re-encoding (``recover_codespace``) when
    the layer can dephase the reference.  That re-encoding is exact for
    reference flips alone, but it turns a single system flip of the same
    layer into a logical error that the round after it cannot see.  So with
    reference errors the deviation epsilon is linear in p, not quadratic:
    about 11-13 p at three layers (10,000 shots at p = 0.002 and 0.01), and
    as large when only the system modes flip on the same plan.
    """
    reference = shape.include_reference_errors
    modes = noise_modes(code.layout, reference)
    every = code.layout.system_mask
    head: list[_Gate] = [lambda s, _: apply_qubit_gate(s, "h", _INTERFEROMETER)]
    steps: list[dict] = []
    gates = head
    width = 0

    def event(
        measure, split, pick, draws: int = 1, reads_last: bool = False,
        touches: int = 0, defers: int = 0,
    ) -> None:
        nonlocal gates, width
        gates = []
        columns = slice(width, width + draws)
        steps.append(dict(
            measure=measure, split=split, pick=pick, columns=columns,
            reads_last=reads_last, gates=gates, touches=touches, defers=defers,
        ))
        width += draws

    def gate(apply: _Gate, touches: int = 0) -> None:
        gates.append(apply)
        if steps:  # no flip is pending before the first event
            steps[-1]["touches"] |= touches

    layer = _error_layer(p, modes)
    for slot in range(4):
        for _ in range(slot, shape.num_error_layers, 4):
            event(*layer, len(modes), defers=every)
            if shape.correction_enabled:
                if reference:
                    event(*_BANK_COUNT)
                    gate(lambda s, _: recover_codespace(s, code), every)
                for block in range(code.num_blocks):
                    touches = code.block_mask(block)
                    event(*_stabilizer(code, block, "s12"), touches=touches)
                    event(*_stabilizer(code, block, "s23"), reads_last=True, touches=touches)
                    gate(_correct(code, block))
        if slot < 3:
            pair = EXCHANGE_PAIRS[slot]
            gate(_tunnel(code, *pair), code.block_mask(pair[0]) | code.block_mask(pair[1]))
    gate(lambda s, _: to_measurement_basis(s, _INTERFEROMETER, "y"))
    event(*_FINAL_READOUT)
    steps = tuple(
        _Step(**{**e, "gates": tuple(e["gates"]), "defers": e["defers"] & ~e["touches"]})
        for e in steps
    )
    return _Plan(shape, tuple(head), steps, width)


class _Node:
    """One state at one event of a shot plan, in :func:`_canonical` form,
    held for as long as the memo holds the node: whether a shot has been
    here before, the event's odds once a split made them (``None`` until
    then), and the node each outcome leads to.  A node of the five-layer
    p = 0.1 reference run holds about 9.6 KB, its state, edges, odds and
    index key included."""

    __slots__ = ("state", "seen", "odds", "children")

    def __init__(self, state: SparseState):
        self.state = state
        self.seen = False
        self.odds = None
        self.children: dict[object, _Node] = {}


def _canonical(state: SparseState) -> SparseState:
    """``state`` times the one ``k`` in {1, -1, i, -i} that puts the
    amplitude of its lowest label in the half-open quadrant ``re > 0, im >=
    0``; ``state`` itself when that is ``k = 1``.  The four states ``k *
    state`` have one canonical form, equal as dicts, whatever the signs of
    their zero parts.  ``k * a`` only negates and swaps the real and
    imaginary parts of ``a``, so it rounds nothing (a zero part may change
    sign)."""
    entries = state.entries
    a = entries[min(entries)]
    if a.real > 0.0 and a.imag >= 0.0:
        return state
    if a.imag > 0.0 and a.real <= 0.0:
        k = -1j
    elif a.real < 0.0 and a.imag <= 0.0:
        k = -1
    else:
        k = 1j
    return SparseState(
        state.layout, {l: k * a for l, a in entries.items()}, state.compressed
    )


class _HistoryMemo:
    """The nodes of a process's shots, which all start from ``base``.

    ``roots`` leads from a :class:`_PlanShape` to its first node, and a
    node's ``children`` from an outcome to the next node, or from
    ``("flips", due)`` to the node of its state with the pending flips
    ``due`` applied, at the same step.  The index holds every node, at most
    :data:`_MEMO_CAP` over every shape and run: a full memo that needs a new
    node drops them all and starts over, while the block in progress walks
    on from the nodes it holds.
    """

    def __init__(self, base: SparseState):
        self.base = base
        self.roots: dict[_PlanShape, _Node] = {}
        self._states: dict[tuple, _Node] = {}

    def __len__(self) -> int:
        return len(self._states)

    def clear(self) -> None:
        """Drop every node, in place (a caller may hold ``roots``)."""
        self._states.clear()
        self.roots.clear()

    def node(
        self, children: dict, key, make: Callable[[], SparseState], place: tuple
    ) -> _Node:
        """The node ``children[key]`` leads to.  On a miss, ``make()``
        builds the state, and ``key`` leads to the node at ``place`` (shape,
        step index, and the last outcome where the step's gates read it,
        else ``None``) whose entries equal the state's :func:`_canonical`
        form as dicts, the same entries in any order, or to a new node
        holding that form.  The index keys on a hash of the entries and
        compares them on a hit; the compare takes 0.0 and -0.0 as equal, and
        the sign of a zero part changes no probability."""
        node = children.get(key)
        if node is not None:
            return node
        state = _canonical(make())
        place = (*place, hash(frozenset(state.entries.items())))
        node = self._states.get(place)
        if node is None or node.state.entries != state.entries:
            if len(self._states) >= _MEMO_CAP:
                self.clear()  # in place: ``children`` may be ``roots`` itself
            node = self._states[place] = _Node(state)
        children[key] = node
        return node


def _settle(
    state: SparseState, gates: tuple[_Gate, ...], syndrome: tuple
) -> SparseState:
    """The state at the next event: a post state, then the gates after it."""
    for gate in gates:
        state = gate(state, syndrome)
    return state


def _branch(
    step: _Step, node: _Node, branch: Callable | None, outcome, syndrome: tuple
) -> SparseState:
    """The state after ``node``'s event ended in ``outcome``: ``branch`` is
    the branch of ``step.split(node.state)`` if this visit made the split,
    else ``None`` and the split is made here."""
    if branch is None:
        _, branch = step.split(node.state)
    return _settle(branch(outcome), step.gates, syndrome)


def _walk_block(memo: _HistoryMemo, plan: _Plan, block: np.ndarray) -> np.ndarray:
    """The y-basis outcome (+1 or -1) of each shot of ``block``, one shot
    per row of doubles, all following ``plan`` from ``memo.base``.

    The shots walk the plan's steps together, breadth first: at each step
    the shots standing at one node with the same pending flips move as one
    group, lowest row first, and groups that reach one node with the same
    pending flips merge.  At a node not visited before, the group's lowest
    row runs the plain measurement on its doubles; the other rows, and
    every row at a visited node, pick from the node's odds, split once and
    kept.  Each row takes the outcome the plain measurement would give it,
    so no outcome depends on the block's size or on what ``memo`` holds.

    A group's ``pending`` is the bitmask of the system modes whose pi flip
    it has drawn but not applied: an error layer applies every flip but
    those of :attr:`_Step.defers`.  Where an outcome leads to the next
    step, the pending flips that step touches are applied in one pass, by
    the edge ``("flips", due)`` of the node reached, and the group arrives
    where that edge leads.  The final readout drops the flips still
    pending, as the y rotation acts on the ancilla alone and the readout
    reads weights.
    """
    shape, head, steps, width = plan
    if block.ndim != 2 or block.shape[1] != width:
        raise ValueError(
            f"a shot of this plan reads {width} doubles, got a block of shape {block.shape}"
        )
    outcomes = np.empty(len(block), np.int64)
    root = memo.node(
        memo.roots, shape, functools.partial(_settle, memo.base, head, ()), (shape, 0, None)
    )
    arrivals = {(root, 0): (root, None, 0, [np.arange(len(block))])}
    final = len(steps) - 1
    for index, step in enumerate(steps):
        groups = [
            (node, last, pending, np.sort(np.concatenate(rows)) if len(rows) > 1 else rows[0])
            for node, last, pending, rows in arrivals.values()
        ]
        groups.sort(key=lambda group: group[3][0])  # the lowest row visits a node first
        arrivals = {}  # by node identity and pending flips
        for node, last, pending, rows in groups:
            picks, made, branch = [], {}, None
            if not node.seen:
                node.seen = True
                draws = _StepDraws(block[rows[0], step.columns].tolist())
                outcome, post = step.measure(node.state, draws)
                picks.append((outcome, rows[:1]))
                # a layer's post state holds every flip: the child only
                # when the layer defers none of them
                made[outcome] = functools.partial(
                    _settle, post, step.gates, (last, outcome)
                )
                rows = rows[1:]
            if len(rows):
                if node.odds is None:
                    node.odds, branch = step.split(node.state)
                u = block[rows, step.columns]
                picks += [(o, rows[which]) for o, which in step.pick(node.odds, u)]
            for outcome, taken in picks:
                if not len(taken):
                    continue
                if index == final:
                    outcomes[taken] = outcome
                    continue
                later = 0  # the flips of this outcome left pending
                if step.defers:
                    later = _mask(m for m in outcome if step.defers >> m & 1)
                    outcome = tuple(m for m in outcome if not later >> m & 1)
                make = made.get(outcome) or functools.partial(
                    _branch, step, node, branch, outcome, (last, outcome)
                )
                place = (shape, index + 1, outcome if steps[index + 1].reads_last else None)
                child = memo.node(node.children, outcome, make, place)
                held = pending ^ later
                due = held & steps[index + 1].touches
                # ("flips", due) is no outcome (ints and tuples).  It leaves the
                # unflipped child, where groups from several parents merge
                # before their flips; an (outcome, due) edge on node builds more.
                if due:
                    child = memo.node(
                        child.children, ("flips", due),
                        functools.partial(_apply_flips, child.state, due), place,
                    )
                    held ^= due
                arrivals.setdefault((child, held), (child, outcome, held, []))[3].append(taken)
    return outcomes


def run_exchange_shot(memo: _HistoryMemo, plan: _Plan, block: np.ndarray) -> int:
    """The y-basis outcome (+1 or -1) of one shot of ``plan``, whose
    doubles are the one row of ``block``: :func:`_walk_block` on a one-shot
    block, which over a fresh memo visits every node for the first time and
    so runs each plain measurement, as plain Monte-Carlo does."""
    (outcome,) = _walk_block(memo, plan, block).tolist()
    return outcome


# ---------------------------------------------------------------------------
# full experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    p: float
    shots: int
    count_minus: int
    estimate: float
    ci_lo: float
    ci_hi: float


@dataclass
class ExperimentResult:
    points: list[PointResult]
    elapsed_seconds: float


@functools.cache
def _exchange_start() -> tuple[RepetitionCode, SparseState, _HistoryMemo]:
    """The code and the compressed |1,1,0> base state that every exchange
    shot starts from, and the history memo over them, built once per
    process: all three depend on :data:`EXCHANGE_REGISTER` alone.  Sharing
    the code is safe: every entry of its one cache is a pure function of
    its key and is never replaced (see
    :meth:`~fermiqec.codes.RepetitionCode.cached`), so no run sees an image
    other than the one a fresh code derives.
    ``_exchange_start.cache_clear()`` drops all three."""
    code = RepetitionCode(RegisterLayout(*EXCHANGE_REGISTER, num_ancilla_qubits=2))
    base = logical_basis_state(code, (1, 1, 0), compressed=True)
    return code, base, _HistoryMemo(base)


def _run_shot_range(config: ExperimentConfig, start: int, stop: int) -> list[int]:
    """Count -1 outcomes of shots ``start..stop-1`` at every point (one
    picklable work unit): each block of the point's draws from
    :func:`~fermiqec.draws.shot_draws`, which are numpy's own, walked with
    the point's shot plan over the process's memo."""
    code, _, memo = _exchange_start()
    shape = _plan_shape(config)
    counts = []
    for point_index, p in enumerate(config.p_values):
        plan = _shot_plan(code, shape, p)
        minus = 0
        for block in shot_draws(config.seed, point_index, start, stop, plan.width):
            minus += int(np.count_nonzero(_walk_block(memo, plan, block) < 0))
            del block  # before the next block is drawn
        counts.append(minus)
    return counts


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every noise point; estimate = -<Y> with an exact binomial CI at
    ``config.confidence``.

    ``threads`` sets how many processes share the shots, each taking a
    contiguous shot range of every point; no more start than there are
    shots or CPUs this process may use, and a worker forked from this
    process inherits its memo.  Each shot draws from
    ``default_rng(SeedSequence([config.seed, point, shot]))``'s stream, so
    every number in the result is identical for any worker count.  Fan-out does not pay at a
    few hundred shots per worker, as starting the pool costs more than the
    shots (``harness.fanout.speedup`` of ``bench/run.py --trace 1``).
    """
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ValueError("threads must be positive")
    t0 = time.perf_counter()
    workers = min(threads, config.shots, _usable_cpus())
    if workers > 1:
        bounds = [config.shots * k // workers for k in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_run_shot_range, [config] * workers, bounds[:-1], bounds[1:])
            )
    else:
        parts = [_run_shot_range(config, 0, config.shots)]
    points: list[PointResult] = []
    for p, *counts in zip(config.p_values, *parts):
        minus = sum(counts)
        estimate = (2 * minus - config.shots) / config.shots
        lo, hi = clopper_pearson(minus, config.shots, config.confidence)
        points.append(
            PointResult(p, config.shots, minus, estimate, 2 * lo - 1, 2 * hi - 1)
        )
    return ExperimentResult(points, time.perf_counter() - t0)
