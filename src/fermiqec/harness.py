"""Logical exchange interferometry with injected phase noise.

Three code blocks hold |1, 1, 0>; an interferometer ancilla in superposition
controls a cycle of three logical pi/2 tunnelings (blocks 1-3, 1-2, 2-3)
whose net effect on the occupied pair is a pure exchange phase i.  The
ancilla therefore ends in |+i> and the y-basis estimate sits at exactly -1
in the noiseless case; phase errors push it up, and the deviation epsilon
scales linearly in the error rate without correction and quadratically with
the repetition-code rounds enabled.  Every run uses one register,
:data:`EXCHANGE_REGISTER`, and cycles its error layers through the four
slots before each tunneling and before the readout.  Its
:class:`ExperimentConfig` is the one description of a run: the shots of a
worker share one memo built from it, with one shot plan per error rate.

Every shot's randomness is a fixed number of doubles (its plan's ``width``),
the first ``width`` draws of ``default_rng(SeedSequence([seed, point,
shot]))``, so results are independent of how shots are distributed over
worker processes.  :func:`_shot_draws` seeds a block of up to
``_SEED_BLOCK`` shots at once and draws them into one array, a row per
shot; each event reads its own columns of a row.

A shot is a walk over the fixed list of steps of its error rate's plan
(:func:`_shot_plan`): gates, which map a state to a state, and events,
which draw an outcome from probabilities that the state fixes (an error
layer's flips, the bank atom count, a stabilizer readout, the final y-basis
readout).  The shots of a block walk together, breadth first
(:func:`_walk_block`): at each step the shots at one node move as one
group and part by outcome, and groups that reach one node merge.  The
walk runs over a memo (:class:`_HistoryMemo`), a graph whose
nodes are states, one per state at one step, however many histories reach
it: each outcome of a node's event leads to the next node, and a
repetition-code round sends a corrected flip back to the code state, so
many error histories meet there.  A history seen for the first time builds
its state and, if a node at the same step holds that state up to a global
phase ``k`` in {1, -1, i, -i} (the same labels with amplitudes equal after
the turn, in whatever order), leads to that node; at a correction's step
the node must also have the same last outcome.  At a node's first visit
the lowest shot of the group there runs the plain measurement on its
doubles (:func:`sample_phase_error_layer`, ``measure_mode_number``,
``measure_stabilizer``, and for the final readout the outcome
``measure_qubit`` draws, without the post state no step reads).  Any other
shot computes the event's outcome probabilities with the ``split_*``
helper that measurement calls, and the node keeps them, so a group that
reaches a known state only compares its doubles and looks up, one
vectorized comparison per node.  Outcomes do not change: each shot's
doubles are compared with the probabilities the plain measurement forms,
the way it compares them.  A node's state does not depend on the error
rate, so the plans of every rate walk the same nodes.  Two histories filed
under one node carry the same step and the same state up to ``k``, and at
a correction's step the same last outcome, which is all a later gate reads
(a correction reads the block's two readouts; no other gate reads an
outcome).  Neither the order of their entries nor ``k`` changes a later
probability: every gate and branch of a plan makes each amplitude from at
most two terms, chosen by label, and two terms add the same either way
round; every probability is a ``math.fsum``, exact whatever the order (the
bank count takes one per count, in ascending count order).  Multiplying by
``k`` only swaps and negates real and imaginary parts, and rounding to
nearest is symmetric under both, so each later amplitude, built by sums,
products and quotients by constants, is ``k`` times the unturned one and
each weight ``re * re + im * im`` is the same.  So every later
probability, branch and draw is the same, up to the sign of a zero part,
which no probability sees.  The memo holds at most ``_MEMO_CAP`` nodes;
one that is full and needs another drops them all and starts over, and
the groups walk on from the nodes they hold.  At cap 0 it holds nothing
and every node is new; a one-shot block then runs the plain measurement
at every event, which is plain Monte-Carlo.
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
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .codes import RepetitionCode, logical_basis_state
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
#: two ancillas (interferometer and gadget) beside them.
EXCHANGE_REGISTER = (9, 9, 9)

_INTERFEROMETER = 0  # ancilla carrying the exchange phase
_GADGET = 1  # ancilla reserved for in-shot correction machinery


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


def _apply_flips(state: SparseState, flipped: tuple[int, ...]) -> SparseState:
    """A pi phase on each flipped mode, in one diagonal pass; the state
    itself when nothing flipped."""
    if not flipped:
        return state
    count = state.layout.counter(sum(1 << m for m in flipped), state.compressed)
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
    return _apply_flips(state, flipped), flipped


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

#: Most nodes a memo holds before it starts over.  A node's state on the
#: 9+9+9+2 register holds about 123 amplitudes.  A 256-shot exchange call
#: makes at most 247 nodes (reference errors at p = 0.01; 46-144 corrected
#: at p = 0.002 and 0.01; seeds 0-19), so it never starts over; the peak
#: RSS of ``bench/run.py`` was 60.0 MB (exchange_corrected) and 61.5 MB
#: (exchange_reference), medians of ten runs on a 2-vCPU host.
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
    measurement, drawing one shot's doubles from ``draws``
    (:class:`_StepDraws`).  ``split(state) -> (odds, branch)`` gives the
    outcome probabilities and ``branch(outcome)``, the post state;
    ``pick(odds, u)`` compares the doubles ``u`` of a group of shots, one
    row each, as ``measure`` compares its draw, and gives each outcome with
    a selector of the rows that take it.  An error layer's odds are its p,
    which ``pick`` carries, so its ``split`` gives ``None`` for them.
    ``reads_last`` is set where the gates read the outcome before this
    event's (a block's s12 readout, for the correction after its s23).
    """

    measure: Callable[[SparseState, _StepDraws], tuple]
    split: Callable[[SparseState], tuple]
    pick: Callable[[object, np.ndarray], Iterable[tuple]]
    columns: slice
    reads_last: bool
    gates: tuple[_Gate, ...]


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
        lambda s: (None, functools.partial(_apply_flips, s)),
        lambda _, u: _pick_flips(modes, p, u),
    )


def _stabilizer(code: RepetitionCode, block: int, which: str) -> tuple:
    """``(measure, split, pick)`` of one block stabilizer readout."""
    return (
        lambda s, draws: measure_stabilizer(s, code, block, which, draws, _GADGET),
        lambda s: split_stabilizer(s, code, block, which, _GADGET),
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


class _Plan(NamedTuple):
    """One shot: ``head``, the gates before the first event, then
    ``steps``, each event with the gates after it.  ``width`` is the number
    of doubles a shot draws: each error layer draws one per noise mode,
    every other event one."""

    head: tuple[_Gate, ...]
    steps: tuple[_Step, ...]
    width: int


def _shot_plan(code: RepetitionCode, config: ExperimentConfig, p: float) -> _Plan:
    """The :class:`_Plan` of one shot of ``config`` at error rate ``p``.
    Slots 0..2 precede the three tunnelings and slot 3 the final readout;
    error layer ``i`` goes in slot ``i % 4``."""
    reference = config.include_reference_errors
    modes = noise_modes(code.layout, reference)
    head: list[_Gate] = [lambda s, _: apply_qubit_gate(s, "h", _INTERFEROMETER)]
    steps: list[tuple] = []
    gates = head
    width = 0

    def event(measure, split, pick, draws: int = 1, reads_last: bool = False) -> None:
        nonlocal gates, width
        gates = []
        steps.append((measure, split, pick, slice(width, width + draws), reads_last, gates))
        width += draws

    layer = _error_layer(p, modes)
    for slot in range(4):
        for _ in range(slot, config.num_error_layers, 4):
            event(*layer, len(modes))
            if config.correction_enabled:
                if reference:
                    event(*_BANK_COUNT)
                    gates.append(lambda s, _: recover_codespace(s, code))
                for block in range(code.num_blocks):
                    event(*_stabilizer(code, block, "s12"))
                    event(*_stabilizer(code, block, "s23"), reads_last=True)
                    gates.append(_correct(code, block))
        if slot < 3:
            gates.append(_tunnel(code, *EXCHANGE_PAIRS[slot]))
    gates.append(lambda s, _: to_measurement_basis(s, _INTERFEROMETER, "y"))
    event(*_FINAL_READOUT)
    steps = tuple(_Step(*e, tuple(g)) for *e, g in steps)
    return _Plan(tuple(head), steps, width)


class _Node:
    """One state at one event of a shot plan, reached by any history that
    leads to that state up to a quarter-turn global phase, held in
    :func:`_canonical` form; whether a shot has been here before, the
    event's outcome probabilities once a shot other than the first one
    needed them (``None`` until then), and the node each outcome leads
    to."""

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
    """The nodes of one run's shots, which all follow ``config`` and start
    from ``base`` on ``code``, and the shot plan of each error rate.

    ``roots`` leads to the first node, and a node's ``children`` from an
    outcome to the next node.  A history seen for the first time builds its
    state, takes its :func:`_canonical` form and looks that up in the state
    index, keyed on ``(step index, last outcome, hash of the entries as a
    set)``, where the last outcome is ``None`` unless the step's gates read
    it (:attr:`_Step.reads_last`): a node there whose entries equal the
    canonical state's as dicts (the same labels and amplitudes, in any
    order; see the module docstring for why order and a quarter-turn phase
    do not matter) becomes the end of the new edge, else a new node holding
    the canonical state does.  The index keeps the hash, not the entries,
    and compares them on a hit.  That compare takes 0.0 and -0.0 as equal;
    the sign of a zero part never changes the size of a sum or product, so
    it changes no probability.  The index holds every node, at most
    ``cap``: a full memo that needs a new node clears it and ``roots`` and
    starts over, while the block in progress walks on from the nodes it
    holds.  Node states do not depend on p, so the plans of every error
    rate walk the same nodes.  ``cap=0`` keeps no node and takes no
    canonical form.
    """

    def __init__(
        self, config: ExperimentConfig, code: RepetitionCode, base: SparseState, cap: int
    ):
        if cap < 0:
            raise ValueError("memo cap must be non-negative")
        self.config = config
        self.code = code
        self.base = base
        self.cap = cap
        self.roots: dict[None, _Node] = {}
        self._states: dict[tuple, _Node] = {}
        self._plans: dict[float, _Plan] = {}

    def __len__(self) -> int:
        return len(self._states)

    def plan(self, p: float) -> _Plan:
        """The :func:`_shot_plan` at error rate ``p``, built once."""
        if p not in self._plans:
            self._plans[p] = _shot_plan(self.code, self.config, p)
        return self._plans[p]

    def node(
        self, children: dict, key, make: Callable[[], SparseState], place: tuple
    ) -> _Node:
        """The node ``children[key]`` leads to.  On a miss, ``make()``
        builds the state, and ``key`` is made to lead to the node already
        holding its canonical form at ``place`` (step index, and the last
        outcome or ``None``), or to a new one if there is none."""
        node = children.get(key)
        if node is not None:
            return node
        state = make()
        if self.cap == 0:
            return _Node(state)
        state = _canonical(state)
        place = (*place, hash(frozenset(state.entries.items())))
        node = self._states.get(place)
        if node is None or node.state.entries != state.entries:
            if len(self._states) >= self.cap:
                # in place: ``children`` may be ``roots`` itself
                self._states.clear()
                self.roots.clear()
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


def _walk_block(memo: _HistoryMemo, p: float, block: np.ndarray) -> np.ndarray:
    """The y-basis outcome (+1 or -1) of each shot of ``block`` at error
    rate ``p``, one shot per row of doubles, all following ``memo``'s
    config.

    Each shot starts from ``memo.base``, the prepared |1,1,0> logical state
    without ancilla activity.  Error layers cycle through their slots; with
    correction enabled each layer is followed by a full round, preceded by
    a bank number measurement plus re-encoding when the layer can dephase
    the reference.  That re-encoding is exact for reference phases alone; a
    system flip landing in the same layer aliases under it, so mixed
    layers are only approximately corrected (the combined error set fails
    the exact-correctability conditions).

    The shots walk the plan's steps together, breadth first: at each step
    the shots standing at one node move as one group, and groups that
    reach one node merge.  At a node not visited before, the group's
    lowest row runs the plain measurement on its doubles, and the other
    rows pick from the node's split; at a visited node every row picks.
    Each row takes the outcome the plain measurement would give it, so the
    outcomes do not depend on the block's size or on what ``memo`` holds.
    """
    head, steps, width = memo.plan(p)
    if block.ndim != 2 or block.shape[1] != width:
        raise ValueError(
            f"a shot of this plan reads {width} doubles, got a block of shape {block.shape}"
        )
    outcomes = np.empty(len(block), np.int64)
    root = memo.node(
        memo.roots, None, functools.partial(_settle, memo.base, head, ()), (0, None)
    )
    groups = [(root, None, np.arange(len(block)))]
    final = len(steps) - 1
    for index, step in enumerate(steps):
        arrivals: dict[_Node, tuple] = {}  # by identity
        for node, last, rows in groups:
            picks, made, branch = [], {}, None
            if not node.seen:
                node.seen = True
                draws = _StepDraws(block[rows[0], step.columns].tolist())
                outcome, post = step.measure(node.state, draws)
                picks.append((outcome, rows[:1]))
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
                make = made.get(outcome) or functools.partial(
                    _branch, step, node, branch, outcome, (last, outcome)
                )
                place = (index + 1, outcome if steps[index + 1].reads_last else None)
                child = memo.node(node.children, outcome, make, place)
                arrivals.setdefault(child, (child, outcome, []))[2].append(taken)
        groups = [
            (child, last, parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts)))
            for child, last, parts in arrivals.values()
        ]
    return outcomes


def run_exchange_shot(memo: _HistoryMemo, p: float, block: np.ndarray) -> int:
    """The y-basis outcome (+1 or -1) of one interferometry shot of
    ``memo``'s config at error rate ``p``, whose doubles are the one row of
    ``block``: :func:`_walk_block` on a one-shot block.  At cap 0 the memo
    caches nothing, every node is a first visit, and this is plain
    Monte-Carlo."""
    (outcome,) = _walk_block(memo, p, block).tolist()
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


#: Shots seeded at once: the seeds held do not grow with a range's length.
#: 256 is one benchmark call.
_SEED_BLOCK = 256

# numpy's SeedSequence (pool of 4 words, hash and mix constants) and
# PCG64's 128-bit multiplier, fixed by numpy's stream-compatibility policy
# (NEP 19).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: 32-bit words, least significant
    first, at least one."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash of one uint32 word per shot, with the running
    hash constant starting at ``const``; the constant does not depend on
    the data, so one hasher serves every shot of a block."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two pool words."""
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> 16


def _pcg64_states(seed: int, point: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64's ``(state, inc)`` in ``default_rng(SeedSequence([seed, point,
    shot]))`` for each shot ``start..stop-1``.  The shots must share every
    word but the lowest, so the range lies in one 2**32-aligned window.

    SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)`` run as
    uint32 array arithmetic over the shots; PCG64's seeding,
    ``pcg_setseq_128_srandom_r``, runs on Python ints per shot.
    """
    n = stop - start
    low = np.arange(n, dtype=np.uint32) + np.uint32(start & _MASK32)
    entropy = [np.full(n, w, np.uint32) for w in (*_words(seed), *_words(point))]
    entropy += [low, *(np.full(n, w, np.uint32) for w in _words(start)[1:])]
    zero = np.zeros(n, np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = np.array([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = (halves[0::2] | halves[1::2] << 32).tolist()
    out = []
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        out.append((((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return out


def _shot_draws(
    seed: int, point: int, start: int, stop: int, width: int
) -> Iterator[np.ndarray]:
    """The doubles of shots ``start..stop-1`` at ``point``, in blocks of at
    most ``_SEED_BLOCK`` shots: one row per shot, in order, holding the
    first ``width`` doubles of ``default_rng(SeedSequence([seed, point,
    shot]))``, fixed by the run's seed and the shot's point and index
    alone.  Seeds each block at once and draws each row in one call into
    one reused generator; holds no block once it has handed it out."""
    generator = np.random.Generator(np.random.PCG64())
    while start < stop:
        end = min(start + _SEED_BLOCK, stop, (start >> 32) + 1 << 32)
        yield _draw_rows(generator, _pcg64_states(seed, point, start, end), width)
        start = end


def _draw_rows(
    generator: np.random.Generator, states: list[tuple[int, int]], width: int
) -> np.ndarray:
    """One row of ``width`` doubles per PCG64 ``(state, inc)``, drawn by
    ``generator`` from that state."""
    rows = np.empty((len(states), width))
    for row, (state, inc) in zip(rows, states):
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.random(out=row)
    return rows


def _exchange_start() -> tuple[RepetitionCode, SparseState]:
    """The code and the compressed |1,1,0> base state that every exchange
    shot starts from."""
    code = RepetitionCode(RegisterLayout(*EXCHANGE_REGISTER, num_ancilla_qubits=2))
    return code, logical_basis_state(code, (1, 1, 0), compressed=True)


def _run_shot_range(config: ExperimentConfig, start: int, stop: int) -> list[int]:
    """Count -1 outcomes of shots ``start..stop-1`` at every point (one
    picklable work unit; the code, its label-map memos and one history
    memo serve them all)."""
    code, base = _exchange_start()
    memo = _HistoryMemo(config, code, base, _MEMO_CAP)
    counts = []
    for point_index, p in enumerate(config.p_values):
        width = memo.plan(p).width
        minus = 0
        for block in _shot_draws(config.seed, point_index, start, stop, width):
            minus += int(np.count_nonzero(_walk_block(memo, p, block) < 0))
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

    The shots of a worker share one history memo, built from ``config``,
    with one shot plan per error rate.  ``threads`` only sets how many
    processes share the shots, each taking a contiguous shot range of
    every point with a history memo of its own;
    the per-shot seeding makes the counts — and therefore every number in
    the result — identical for any worker count.  No more workers start
    than there are shots or CPUs this process may use.  Fan-out does not
    pay at a few hundred shots per worker: at 256 corrected shots per
    worker (p = 0.01, two workers on a 2-vCPU host),
    ``harness.fanout.speedup`` from ``bench/run.py --workload
    exchange_corrected --trace 1`` is 0.42-0.82 (seeds 0-4), as starting
    the pool costs more than the shots.
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
