"""Noise injection and the exchange-interferometry driver."""

import cmath
import contextlib
import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CountingRng, spread_h_state
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqec import harness
from fermiqec.backend import compress
from fermiqec.codes import LabelMap, RepetitionCode, logical_basis_state
from fermiqec.draws import shot_draws
from fermiqec.gates import (
    apply_qubit_gate,
    draw_sign,
    measure_mode_number,
    measure_qubit,
    select_count,
    split_qubit,
)
from fermiqec.harness import (
    EXCHANGE_PAIRS,
    EXCHANGE_REGISTER,
    _exchange_start,
    ExperimentConfig,
    noise_modes,
    run_exchange_shot,
    run_experiment,
    sample_phase_error_layer,
)
from fermiqec.logical import controlled_tunneling_logical
from fermiqec.qec import correct_block, measure_stabilizer, recover_codespace
from fermiqec.reference import random_h_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import SparseState, difference_norm


def test_noise_modes_selection():
    lay = RegisterLayout(3, 4, 4)
    assert noise_modes(lay, False) == (0, 1, 2)
    assert noise_modes(lay, True) == (0, 1, 2, 3, 4, 5, 6)


def test_error_layer_draw_budget_is_fixed():
    lay = RegisterLayout(3, 4, 4)
    psi = random_h_state(lay, np.random.default_rng(71))
    for reference, expected in [(False, 3), (True, 7)]:
        rng = CountingRng(72)
        modes = noise_modes(lay, reference)
        out, flipped = sample_phase_error_layer(psi, 0.0, modes, rng)
        assert rng.draws == expected
        assert flipped == ()
        assert difference_norm(out, psi) == 0.0


def test_one_vector_draw_flips_what_one_draw_per_mode_flips():
    modes = tuple(range(27))
    for seed in range(20):
        p = 0.1 * (seed % 10)
        rng = np.random.default_rng(seed)
        want = tuple(m for m in modes if rng.random() < p)
        assert harness._draw_flips(modes, p, np.random.default_rng(seed)) == want


def test_error_layer_at_unit_rate_flips_every_target():
    lay = RegisterLayout(3, 4, 4)
    psi = random_h_state(lay, np.random.default_rng(73))
    rng = np.random.default_rng(74)
    out, flipped = sample_phase_error_layer(psi, 1.0, noise_modes(lay, False), rng)
    assert flipped == (0, 1, 2)
    want = psi.with_entries(
        {
            l: (-a if ((l & 0b111).bit_count() & 1) else a)
            for l, a in psi.entries.items()
        }
    )
    assert difference_norm(out, want) == 0.0


def _flipping(modes, width):
    """Doubles for one error layer at p = 0.5 over modes ``0..width-1``:
    0.0 on ``modes``, which flip, and 1.0 on every other mode."""
    return [0.0 if m in modes else 1.0 for m in range(width)]


def test_reference_flips_agree_between_representations():
    lay = RegisterLayout(3, 4, 4)
    psi = random_h_state(lay, np.random.default_rng(75))
    modes = noise_modes(lay, True)
    doubles = _flipping((3, 5), lay.num_fermion_modes)
    draws = harness._StepDraws(doubles)
    phys, flipped = sample_phase_error_layer(psi, 0.5, modes, draws)
    comp, _ = sample_phase_error_layer(compress(psi), 0.5, modes, draws)
    assert flipped == (3, 5)
    assert difference_norm(compress(phys), comp) < 1e-13


#: Each bad setting and the error it raises, by case id.  A row keeps its id
#: for good, so deleting one renames no other case; rows added later are
#: named by their fields.
BAD_CONFIGS = {
    "fields0": ({"shots": 0}, "shots must be positive"),
    "fields1": ({"p_values": (1.5,)}, r"lie in \[0, 1\]"),
    "fields2": ({"p_values": (0.01, -0.1)}, r"lie in \[0, 1\]"),
    "fields3": ({"seed": -1}, "seed must be non-negative"),
    "fields4": ({"num_error_layers": -1}, "num_error_layers must be non-negative"),
    "fields5": ({"p_values": 0.01}, "need a tuple of at least one error probability"),
    "fields6": ({"p_values": (True,)}, "must be real numbers"),
    "fields7": ({"p_values": (0.01, False)}, "must be real numbers"),
    "fields8": ({"shots": True}, "shots must be an integer"),
    "fields9": ({"seed": True}, "seed must be an integer"),
    "fields10": ({"num_error_layers": True}, "num_error_layers must be an integer"),
    "fields11": ({"p_values": ()}, "at least one error probability"),
    "fields12": ({"threads": 0}, "threads must be positive"),
    "fields13": ({"threads": -4}, "threads must be positive"),
    "fields14": ({"p_values": 1}, "need a tuple"),
    "fields15": ({"shots": 2.5}, "shots must be an integer"),
    "fields16": ({"num_error_layers": 2.5}, "num_error_layers must be an integer"),
    "fields17": ({"seed": 1.5}, "seed must be an integer"),
    "fields18": (
        {"correction_enabled": "no"}, "correction_enabled must be True or False"
    ),
    "fields19": (
        {"include_reference_errors": 1}, "include_reference_errors must be True or False"
    ),
    "fields20": ({"p_values": ("0.01",)}, "must be real numbers"),
    "fields21": ({"p_values": (0.01, None)}, "must be real numbers"),
    "threads=True": ({"threads": True}, "threads must be an integer"),
    "threads=2.5": ({"threads": 2.5}, "threads must be an integer"),
    "confidence='0.9'": ({"confidence": "0.9"}, "confidence must be a real number"),
}

#: ``run_experiment`` arguments a row may set besides the config's fields.
_RUN_ARGUMENTS = ("threads",)


@pytest.mark.parametrize("fields, match", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_fails_before_any_shot(monkeypatch, fields, match):
    def no_shots(*args):
        raise AssertionError("a shot ran before the config was checked")

    monkeypatch.setattr(harness, "_run_shot_range", no_shots)
    fields = {"p_values": (0.01,), "shots": 64, **fields}
    arguments = {name: fields.pop(name) for name in _RUN_ARGUMENTS if name in fields}
    with pytest.raises(ValueError, match=match):
        run_experiment(ExperimentConfig(**fields), **arguments)


class _ShotRan(Exception):
    """Raised in place of the shots of a config that passed its checks."""


#: Anything a caller might put in a field: a scalar or a tuple of scalars.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_ANY_VALUE = _SCALARS | st.lists(_SCALARS, max_size=3).map(tuple)


@given(
    name=st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
    value=_ANY_VALUE,
)
def test_any_field_value_builds_and_runs_or_raises_value_error(name, value):
    # One field at a time: a bad value in another field would hide it.
    def shot_ran(*args):
        raise _ShotRan

    try:
        config = ExperimentConfig(**{"p_values": (0.01,), name: value})
    except ValueError:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_run_shot_range", shot_ran)
        with pytest.raises(_ShotRan):
            run_experiment(config)


def _one_shot_draws(seed, point, shot, width):
    """The ``width`` doubles of one shot as a one-shot block, a one-shot
    range of the run's own."""
    (block,) = shot_draws(seed, point, shot, shot + 1, width)
    return block


def _shape(**fields):
    """The plan shape of a config with these fields (the rest at their
    defaults)."""
    return harness._plan_shape(ExperimentConfig((0.05,), **fields))


def test_noiseless_estimate_is_exactly_minus_one():
    result = run_experiment(ExperimentConfig((0.0,), shots=8, seed=3))
    (point,) = result.points
    assert point.count_minus == 0
    assert point.estimate == -1.0
    assert point.ci_lo <= -1.0 <= point.ci_hi


def test_pure_reference_noise_is_removed_exactly():
    # Both layers flip bank modes 9 and 11 alone; the bank count, the six
    # readouts after each layer and the final readout draw at random.
    shape = _shape(num_error_layers=2, include_reference_errors=True)
    base, plan = _exchange_start()[1], _plan(shape, 0.5)
    assert plan.width == 51
    layer = _flipping((9, 11), 18)
    rng = np.random.default_rng(5)
    for _ in range(40):
        rest = rng.random(15).tolist()
        block = np.array([layer + rest[:7] + layer + rest[7:]])
        assert run_exchange_shot(harness._HistoryMemo(base), plan, block) == +1


def test_worker_count_does_not_change_the_counts(monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # on any host
    config = ExperimentConfig(
        (0.01,), shots=300, num_error_layers=2, correction_enabled=False, seed=11
    )
    serial = run_experiment(config, threads=1)
    fanned = run_experiment(config, threads=2)
    assert [p.count_minus for p in serial.points] == [
        p.count_minus for p in fanned.points
    ]
    assert serial.points[0].estimate == fanned.points[0].estimate


def test_workers_never_outnumber_the_usable_cpus(monkeypatch):
    asked = []

    def inline_pool(max_workers):
        """A pool that records its size and runs the work units in this
        process, so no process starts."""
        asked.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(harness, "ProcessPoolExecutor", inline_pool)
    config = ExperimentConfig((0.01,), shots=64, num_error_layers=1)
    serial = run_experiment(config).points
    assert run_experiment(config, threads=10_000).points == serial
    assert all(n <= harness._usable_cpus() for n in asked)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    assert run_experiment(config, threads=10_000).points == serial
    assert asked[-1] == 3


def test_exchange_pairs_cycle_the_three_blocks():
    assert EXCHANGE_PAIRS == ((0, 2), (0, 1), (1, 2))
    touched = sorted({b for pair in EXCHANGE_PAIRS for b in pair})
    assert touched == [0, 1, 2]

#: Outcomes (+ for +1, - for -1) of the first 200 shots at p = 0.05 over
#: three layers, seed 0, point 0: a change that keeps every amplitude's
#: arithmetic must reproduce them draw for draw.
PINNED_OUTCOMES = {
    "corrected": (
        "+++++++-+++++++++++++++++++-++++++++++++++++-+++++"
        "++++++++++++++++++++++++++++++++++++++++++++++++++"
        "++++++++-++++++++++++++++++++-++++-+++++++++++++++"
        "++++++++++++++++++++++++++++++++++++++-+++++++++++"
    ),
    "uncorrected": (
        "-+-+-++-++++-++++-+-++-++++-++-+-+++-+++++++----++"
        "+--++++-+-++++-++-++++-++-++-+++--+-+---++-+++-++-"
        "+++---++++++-++--+++++-+-++++-++-++-+++-+++-++--++"
        "-+-+++++---+----++-+-++++++--+++---++-+-++-+++++-+"
    ),
    "reference": (
        "+-+++++-++++---+-+++++-++-++++++++-++++-++++-+++++"
        "-++-+++++++++-+++-++++++-+-+++-++++++-++++++++++-+"
        "++++++-+-+-+++--++++++++++--++++++++++++++++++++-+"
        "++-++-++++--+-++--+-+++-+++-++++++-+-++-++++-+++++"
    ),
}


@pytest.mark.parametrize(
    "case, correct, reference",
    [
        ("corrected", True, False),
        ("uncorrected", False, False),
        ("reference", True, True),
    ],
)
def test_first_shots_are_pinned(case, correct, reference):
    config = ExperimentConfig(
        (0.05,),
        shots=200,
        correction_enabled=correct,
        include_reference_errors=reference,
    )
    shape = harness._plan_shape(config)
    base, plan = _exchange_start()[1], _plan(shape, 0.05)
    outcomes = []
    for shot in range(config.shots):
        draws = _one_shot_draws(config.seed, 0, shot, plan.width)
        outcome = run_exchange_shot(harness._HistoryMemo(base), plan, draws)
        outcomes.append("+" if outcome > 0 else "-")
    assert "".join(outcomes) == PINNED_OUTCOMES[case]
    # the same shots walked as one block over a memo
    memo = harness._HistoryMemo(base)
    (block,) = shot_draws(config.seed, 0, 0, config.shots, plan.width)
    signs = ["+" if o > 0 else "-" for o in harness._walk_block(memo, plan, block)]
    assert "".join(signs) == PINNED_OUTCOMES[case]


def _plain_shot(code, base, layers, p, correct, reference, seed, point, shot):
    """One exchange shot of ``layers`` error layers at rate ``p``, as a
    plain loop over public functions drawing from the shot's own generator
    ``SeedSequence([seed, point, shot])`` in order.  Layer ``i`` goes in
    slot ``i % 4``, slots 0..2 before the three tunnelings and slot 3
    before the readout, and applies every flip it draws at once."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, point, shot]))
    modes = noise_modes(code.layout, reference)
    state = apply_qubit_gate(base, "h", 1)
    for slot in range(4):
        for _ in range(slot, layers, 4):
            state, _ = sample_phase_error_layer(state, p, modes, rng)
            if not correct:
                continue
            if reference:
                _, state = measure_mode_number(state, code.layout.reference_modes(), rng)
                state = recover_codespace(state, code)
            for block in range(code.num_blocks):
                s12, state = measure_stabilizer(state, code, block, "s12", rng)
                s23, state = measure_stabilizer(state, code, block, "s23", rng)
                state = correct_block(state, code, block, (s12, s23))
        if slot < 3:
            state = controlled_tunneling_logical(
                state, 1, code, *EXCHANGE_PAIRS[slot], math.pi / 2
            )
    outcome, _ = measure_qubit(state, 1, rng, "y")
    return outcome


@pytest.mark.parametrize(
    "case, correct, reference",
    [
        ("corrected", True, False),
        ("uncorrected", False, False),
        ("reference", True, True),
    ],
)
def test_plain_shots_draw_the_pinned_outcomes(case, correct, reference):
    # an oracle for the walk that uses none of its machinery
    code = RepetitionCode(RegisterLayout(*EXCHANGE_REGISTER, num_ancilla_qubits=2))
    base = logical_basis_state(code, (1, 1, 0), compressed=True)
    outcomes = [
        "+" if _plain_shot(code, base, 3, 0.05, correct, reference, 0, 0, shot) > 0 else "-"
        for shot in range(200)
    ]
    assert "".join(outcomes) == PINNED_OUTCOMES[case]


#: ``count_minus`` at p = 0.002 and 0.01 of 600 shots at seed 0, three seed
#: blocks of 256, 256 and 88 shots, recorded from the walk that ran one shot
#: at a time.
PINNED_COUNTS = {
    "corrected": ({}, [0, 0]),
    "uncorrected": ({"correction_enabled": False}, [15, 63]),
    "reference": ({"include_reference_errors": True}, [3, 38]),
}


@pytest.mark.parametrize("case", sorted(PINNED_COUNTS))
def test_counts_across_seed_blocks_are_pinned(case):
    fields, counts = PINNED_COUNTS[case]
    config = ExperimentConfig((0.002, 0.01), shots=600, seed=0, **fields)
    assert [p.count_minus for p in run_experiment(config).points] == counts


# ---------------------------------------------------------------------------
# the history memo
# ---------------------------------------------------------------------------

#: The 9+9+9+2 exchange register's code with its |1,1,0> start, built here
#: as in :func:`test_plain_shots_draw_the_pinned_outcomes` and not taken from
#: ``_exchange_start()``: the oracle :func:`_plain_shot` and the walks below
#: then share no label map with the code a run builds once per process.
_CODE = RepetitionCode(RegisterLayout(*EXCHANGE_REGISTER, num_ancilla_qubits=2))
_BASE = logical_basis_state(_CODE, (1, 1, 0), compressed=True)

#: A cap no run in these tests reaches: the memo never starts over.
_NO_START_OVER = 10**9


def _memo():
    """An empty history memo for the standard start."""
    return harness._HistoryMemo(_BASE)


@contextlib.contextmanager
def _cap(cap):
    """Every memo holds at most ``cap`` nodes inside this block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_MEMO_CAP", cap)
        yield


def _plan(shape, p):
    """The shot plan of ``shape`` at error rate ``p``."""
    return harness._shot_plan(_CODE, shape, p)


def _outcomes(memo, shape, p_values, shots, seed=0):
    """Outcomes of ``shots`` shots of ``shape`` at each p, seeded and walked
    in blocks as a run does it, sharing ``memo`` across the points."""
    out = []
    for point, p in enumerate(p_values):
        plan = _plan(shape, p)
        for block in shot_draws(seed, point, 0, shots, plan.width):
            out += harness._walk_block(memo, plan, block).tolist()
    return out


def _plain_outcomes(p_values, shots, seed=0, **fields):
    """The outcomes of :func:`_outcomes` from the same shots, each walked
    alone as a one-shot block over a fresh memo, so every visit is a first
    one and runs the plain measurement (its flips still wait as in any
    walk; :func:`_oracle_outcomes` applies each at its layer)."""
    shape = _shape(**fields)
    out = []
    for point, p in enumerate(p_values):
        plan = _plan(shape, p)
        for shot in range(shots):
            block = _one_shot_draws(seed, point, shot, plan.width)
            out.append(run_exchange_shot(_memo(), plan, block))
    return out


def _oracle_outcomes(p_values, shots, seed=0, **fields):
    """The outcomes of :func:`_outcomes` from :func:`_plain_shot`, which
    shares none of the walk's machinery and defers no flip."""
    config = ExperimentConfig(p_values, **fields)
    return [
        _plain_shot(
            _CODE, _BASE, config.num_error_layers, p, config.correction_enabled,
            config.include_reference_errors, seed, point, shot,
        )
        for point, p in enumerate(p_values)
        for shot in range(shots)
    ]


#: Config fields: 5 cases x 2 points x 200 shots.  ``reference_p0.1_5layers``
#: takes the plan of the five-layer reference run at p = 0.1, where the memo
#: hits least, and runs it at the test's p values.
MEMO_CASES = {
    "corrected": {},
    "uncorrected": {"correction_enabled": False},
    "reference": {"include_reference_errors": True},
    "corrected_5layers": {"num_error_layers": 5},
    "reference_p0.1_5layers": {"num_error_layers": 5, "include_reference_errors": True},
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memo_leaves_every_outcome_unchanged(case):
    # cap 2 starts over in the middle of the block
    shape = _shape(**MEMO_CASES[case])
    runs = {}
    for cap in (_NO_START_OVER, 2):
        with _cap(cap):
            runs[cap] = _outcomes(_memo(), shape, (0.01, 0.05), 200)
    plain = _oracle_outcomes((0.01, 0.05), 200, **MEMO_CASES[case])
    assert set(plain) <= {-1, 1}
    assert runs[_NO_START_OVER] == runs[2] == plain


def test_memo_holds_no_more_than_its_cap():
    # With reference errors at p = 0.05, 300 shots make more nodes than the
    # cap holds (595 uncapped at seed 0).  Without them, corrected runs of
    # 300 shots no longer do: 124-126 nodes at p = 0.15-0.5, where p = 0.15
    # made 588 before flips waited for the step that touches their mode.
    shape = _shape(include_reference_errors=True)
    capped, tiny, uncapped = _memo(), _memo(), _memo()
    for memo, cap in ((capped, harness._MEMO_CAP), (tiny, 2), (uncapped, _NO_START_OVER)):
        with _cap(cap):
            _outcomes(memo, shape, (0.05,), 300)
    assert len(uncapped) > harness._MEMO_CAP, "the load no longer overflows the cap"
    assert len(tiny) <= 2
    assert len(capped) <= harness._MEMO_CAP
    # a full memo that needs one more node starts over with that node alone
    full = _memo()
    with _cap(3):
        for step in range(4):
            node = full.node(full.roots, step, lambda: _BASE, (step, None))
    assert len(full) == 1 and full.roots == {3: node}


@pytest.mark.slow
@pytest.mark.parametrize("case", ["corrected", "uncorrected", "reference"])
def test_a_physical_base_draws_the_outcomes_of_the_compressed_base(case):
    # On a physical base the stabilizer readouts run the hardware gadget
    # and the reference recovery projects the physical state: a check of
    # the physical vacuum and of both against the compressed shortcuts.
    shape = _shape(**MEMO_CASES[case])
    physical = logical_basis_state(_CODE, (1, 1, 0), compressed=False)
    memo = harness._HistoryMemo(physical)
    want = _outcomes(_memo(), shape, (0.05,), 256, seed=7)
    assert -1 in want
    assert _outcomes(memo, shape, (0.05,), 256, seed=7) == want


def test_histories_that_reach_one_state_share_its_node(monkeypatch):
    monkeypatch.setattr(harness, "_MEMO_CAP", _NO_START_OVER)
    fields = {"include_reference_errors": True}
    memo = _memo()
    assert _outcomes(memo, _shape(**fields), (0.01,), 256) == _plain_outcomes(
        (0.01,), 256, **fields
    )
    nodes = {id(node) for node in memo._states.values()}
    edges = [*memo.roots.values()]
    for node in memo._states.values():
        edges += node.children.values()
    assert {id(node) for node in edges} == nodes  # every edge leads to a node
    assert len(nodes) == len(memo) < len(edges)  # some nodes have two in-edges


#: Each quarter turn ``k`` as the exact map ``a -> k * a``: it swaps and
#: negates parts and rounds nothing.
_TURNS = {
    1: lambda a: a,
    1j: lambda a: complex(-a.imag, a.real),
    -1: lambda a: complex(-a.real, -a.imag),
    -1j: lambda a: complex(a.imag, -a.real),
}


def _turned(state, k):
    """``k * state`` for a quarter turn ``k``, part by part."""
    turn = _TURNS[k]
    entries = {l: turn(a) for l, a in state.entries.items()}
    return SparseState(state.layout, entries, state.compressed)


def test_a_node_is_shared_only_by_exactly_equal_states_at_one_place():
    memo = _memo()
    place = (0, None)
    edges = {}
    first = memo.node(edges, "a", lambda: _BASE, place)
    assert memo.node(edges, "a", None, place) is first  # a hit builds nothing
    entries = list(_BASE.entries.items())

    def like_base(changed):
        """A state on ``_BASE``'s register with the entries ``changed``."""
        return SparseState(_BASE.layout, dict(changed), _BASE.compressed)

    reordered = like_base(entries[::-1])
    assert list(reordered.entries) != list(_BASE.entries)
    # the same labels and amplitudes share the node, whatever their order,
    # and so do the states a quarter-turn phase away
    shared = {"b": like_base(entries), "reordered": reordered}
    shared.update({f"turned {k}": _turned(_BASE, k) for k in (-1, 1j, -1j)})
    shared["turned reordered"] = _turned(reordered, 1j)
    for name, state in shared.items():
        assert memo.node(edges, name, lambda: state, place) is first, name
    assert edges == {"a": first, **dict.fromkeys(shared, first)}
    # one rounding step, an eighth turn or one negated amplitude does not
    lowest, top = min(_BASE.entries), max(_BASE.entries)
    amps = _BASE.entries
    eighth = cmath.exp(1j * math.pi / 4)
    others = {
        "nudged": like_base({**amps, lowest: amps[lowest] * (1 + 2**-52)}),
        "eighth turn": like_base({l: eighth * a for l, a in entries}),
        "lowest negated": like_base({**amps, lowest: -amps[lowest]}),
        "top negated": like_base({**amps, top: -amps[top]}),
    }
    for name, state in others.items():
        assert memo.node(edges, name, lambda: state, place) is not first, name
    # another step or last outcome never does
    for other in ((1, None), (0, 1)):
        node = memo.node(edges, (other, "a"), lambda: _BASE, other)
        assert node is not first
        assert memo.node(edges, (other, "reordered"), lambda: reordered, other) is node
        assert memo.node(edges, (other, "turned"), lambda: _turned(_BASE, -1), other) is node


#: Lowest-label amplitudes on and near the edges of the canonical quadrant
#: ``re > 0, im >= 0``, zero parts of either sign included.
_EDGE_AMPLITUDES = [
    complex(1.0, 0.0), complex(1.0, -0.0), complex(0.0, 1.0), complex(-0.0, 1.0),
    complex(-1.0, 0.0), complex(-1.0, -0.0), complex(0.0, -1.0), complex(-0.0, -1.0),
    complex(0.6, 0.8), complex(2.0**-40, -0.5), complex(-0.25, 2.0**-1074),
]


@pytest.mark.parametrize("amplitude", _EDGE_AMPLITUDES, ids=repr)
def test_every_quarter_turn_of_a_state_takes_one_canonical_form(amplitude):
    state = SparseState(_BASE.layout, {3: amplitude, 7: 0.3 - 0.2j, 12: -0.5j}, True)
    canonical = harness._canonical(state)
    lowest = canonical.entries[3]
    assert lowest.real > 0.0 and lowest.imag >= 0.0
    # the form is one quarter turn of the state, part by part
    assert any(canonical.entries == _turned(state, k).entries for k in _TURNS)
    memo = _memo()
    edges = {}
    node = memo.node(edges, "state", lambda: state, (0, None))
    for k in _TURNS:
        turned = _turned(state, k)
        assert harness._canonical(turned).entries == canonical.entries, k
        assert memo.node(edges, k, lambda: turned, (0, None)) is node, k
    # a zero part's sign chooses no other turn
    flipped = complex(amplitude.real or -amplitude.real, amplitude.imag or -amplitude.imag)
    resigned = SparseState(state.layout, {**state.entries, 3: flipped}, True)
    assert harness._canonical(resigned).entries == canonical.entries
    assert harness._canonical(canonical) is canonical  # no copy when k = 1


def test_a_fresh_corrected_call_makes_few_nodes(monkeypatch):
    # One 256-shot call at corrected p = 0.01, seed 0, as a run makes it:
    # 299 nodes while nodes merged only states in the same entry order, 150
    # while they merged only equal states.
    monkeypatch.setattr(harness, "_MEMO_CAP", _NO_START_OVER)
    memo = _memo()
    _outcomes(memo, _shape(), (0.01,), 256)
    assert len(memo) < 145


def test_a_fresh_reference_call_makes_few_nodes(monkeypatch):
    # The same call with reference errors made 307 nodes while nodes merged
    # only equal states, each keyed on the last outcome.
    monkeypatch.setattr(harness, "_MEMO_CAP", _NO_START_OVER)
    memo = _memo()
    _outcomes(memo, _shape(include_reference_errors=True), (0.01,), 256)
    assert len(memo) < 250


@pytest.mark.parametrize("p, nodes", [(0.002, 38), (0.01, 70)])
def test_a_corrected_call_defers_its_flips(p, nodes):
    # One fresh 256-shot corrected call at seed 3, as a run makes it: 60
    # and 126 nodes while every flip was applied at its error layer.  A
    # flip waits for its block's readout, so the histories that differ
    # only there share the nodes of the readouts before it.
    shape = _shape()
    memo, plan = harness._HistoryMemo(_exchange_start()[1]), _plan(shape, p)
    (block,) = shot_draws(3, 0, 0, 256, plan.width)
    harness._walk_block(memo, plan, block)
    assert len(memo) == nodes


@pytest.mark.parametrize(
    "case, compressed", [(case, True) for case in sorted(MEMO_CASES)] + [("reference", False)]
)
def test_no_step_changes_a_mode_bit_outside_what_it_touches(case, compressed):
    # Why a flip may wait: each step maps a label only to labels with the
    # same bits on the system modes outside ``step.touches``, so a pi flip
    # on one of them gives an amplitude the same sign before and after the
    # step.  Each label of a few states the walk reaches at each step goes
    # through the step's split branches and gates alone; on a physical base
    # the readouts run the stabilizer gadget.
    plan, by_step = _warm_nodes(case, compressed)
    layout = _CODE.layout
    modes = noise_modes(layout, MEMO_CASES[case].get("include_reference_errors", False))
    rnd = random.Random(5)
    checked = 0
    for index, step in enumerate(plan.steps):
        kept = layout.system_mask & ~step.touches
        # an error layer defers every system flip its own gates keep, no
        # other step any
        layer = step.columns.stop - step.columns.start == len(modes)
        assert step.defers == (kept if layer else 0), index
        if not kept:
            continue
        for last, state in rnd.sample(by_step[index], min(3, len(by_step[index]))):
            for label in state.entries:
                one = SparseState(layout, {label: 1.0 + 0j}, compressed)
                odds, branch = step.split(one)
                for outcome in _some_outcomes(odds, rnd):
                    after = harness._settle(branch(outcome), step.gates, (last, outcome))
                    moved = {l ^ label for l in after.entries}
                    assert all(not bits & kept for bits in moved), (index, label, outcome)
                    checked += 1
    assert checked


def test_only_a_first_visit_runs_the_plain_readout(monkeypatch):
    calls = []
    readout = harness.measure_stabilizer

    def counted(*args):
        calls.append(args)
        return readout(*args)

    monkeypatch.setattr(harness, "measure_stabilizer", counted)
    plain = _plain_outcomes((0.01,), 40)
    assert len(calls) == 40 * 3 * 6  # every readout of every shot
    calls.clear()
    memo, shape = _memo(), _shape()
    warm = _outcomes(memo, shape, (0.01,), 40)
    first_visits = sorted(args[4].doubles for args in calls)  # each reader's doubles
    calls.clear()
    replay = _outcomes(memo, shape, (0.01,), 40)
    assert plain == warm == replay
    assert 0 < len(first_visits) < 40 * 3 * 6
    assert calls == []  # the replay only revisits nodes
    # a node's plain readout is run by the shot that reaches it first when
    # the shots walk one at a time: the lowest shot of the group there
    memo = _memo()
    plan = _plan(shape, 0.01)
    for shot in range(40):
        run_exchange_shot(memo, plan, _one_shot_draws(0, 0, shot, plan.width))
    assert sorted(args[4].doubles for args in calls) == first_visits


#: The config fields a run may set that change its shots' plan.
_PLAN_FIELDS = st.fixed_dictionaries(
    {
        "num_error_layers": st.integers(0, 4),
        "correction_enabled": st.booleans(),
        "include_reference_errors": st.booleans(),
    }
)


@given(p=st.floats(0.0, 1.0), fields=_PLAN_FIELDS)
def test_no_noise_setting_crashes_a_shot(p, fields):
    memo, shape = _memo(), _shape(**fields)
    plan = _plan(shape, p)
    block = np.concatenate(
        [np.random.default_rng(shot).random((1, plan.width)) for shot in range(3)]
    )
    want = [run_exchange_shot(_memo(), plan, row[None]) for row in block]
    assert set(want) <= {-1, 1}
    for _ in range(2):  # the second pass replays the first from the memo
        assert harness._walk_block(memo, plan, block).tolist() == want


@given(
    fields=_PLAN_FIELDS,
    p_values=st.lists(st.sampled_from((0.05, 0.2, 0.5)), min_size=1, max_size=3),
    shots=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=10),
)
def test_a_memo_that_starts_over_leaves_every_outcome_unchanged(fields, p_values, shots):
    # Caps this small start over in the middle of nearly every block; seeds
    # repeat, so shots also revisit nodes that survived a start-over.  Each
    # point's shots walk as one block, over a fresh memo and over each
    # capped one, against one-shot blocks over fresh memos.
    memos = {cap: _memo() for cap in (1, 2, 3, 5)}
    shape = _shape(**fields)
    seeds = {}
    for point, seed in shots:
        seeds.setdefault(point % len(p_values), []).append(seed)
    for point, listed in seeds.items():
        p = p_values[point]
        plan = _plan(shape, p)
        rows = [np.random.default_rng(seed).random((1, plan.width)) for seed in listed]
        want = [run_exchange_shot(_memo(), plan, row) for row in rows]
        block = np.concatenate(rows)
        assert harness._walk_block(_memo(), plan, block).tolist() == want
        for cap, m in memos.items():
            with _cap(cap):
                got = harness._walk_block(m, plan, block).tolist()
            assert got == want, (point, cap)


@functools.cache
def _warm_nodes(case, compressed=True):
    """The plan of ``MEMO_CASES[case]`` and, by step index, the ``(last
    outcome, state)`` of every node a memo holds after 30 shots at each of
    p = 0.05 and 0.2, from the compressed base or a physical one."""
    base = _BASE if compressed else logical_basis_state(_CODE, (1, 1, 0), compressed=False)
    shape = _shape(**MEMO_CASES[case])
    memo = harness._HistoryMemo(base)
    with _cap(_NO_START_OVER):
        _outcomes(memo, shape, (0.05, 0.2), 30)
    by_step = {}
    for (_, index, last, _), node in memo._states.items():
        by_step.setdefault(index, []).append((last, node.state))
    return _plan(shape, 0.05), by_step


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_a_node_keys_on_the_last_outcome_only_where_a_correction_reads_it(case):
    plan, by_step = _warm_nodes(case)
    corrections = [
        any(g.__qualname__.startswith("_correct.") for g in step.gates)
        for step in plan.steps
    ]
    assert [step.reads_last for step in plan.steps] == corrections
    assert any(corrections) == MEMO_CASES[case].get("correction_enabled", True)
    for index, nodes in by_step.items():
        lasts = {last for last, _ in nodes}
        assert lasts <= {-1, 1} if corrections[index] else lasts == {None}, index


def _some_outcomes(odds, rnd):
    """Outcomes an event with these odds can end in: for an error layer,
    whose odds are its noise modes, three random flip patterns of them."""
    if isinstance(odds, tuple):
        return [tuple(m for m in odds if rnd.random() < 0.2) for _ in range(3)]
    if isinstance(odds, dict):  # the bank count
        return list(odds)
    return [o for o, q in ((1, odds), (-1, 1 - odds)) if q > 0]  # a readout


@given(case=st.sampled_from(sorted(MEMO_CASES)), seed=st.integers(0, 2**32))
def test_entry_order_changes_no_odds_and_no_later_state(case, seed):
    # Why nodes merge by content: a memo state and a copy with its entries
    # in another order give the same odds and, after every outcome and the
    # gates that follow, states with the same labels and amplitudes.
    plan, by_step = _warm_nodes(case)
    rnd = random.Random(seed)
    for index, step in enumerate(plan.steps):
        last, state = rnd.choice(by_step[index])
        entries = list(state.entries.items())
        rnd.shuffle(entries)
        odds, branch = step.split(state)
        permuted_odds, permuted_branch = step.split(
            SparseState(state.layout, dict(entries), state.compressed)
        )
        assert permuted_odds == odds, index
        for outcome in _some_outcomes(odds, rnd):
            after = [
                harness._settle(b(outcome), step.gates, (last, outcome)).entries
                for b in (branch, permuted_branch)
            ]
            assert after[0] == after[1], (index, outcome)


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
@settings(max_examples=5)
@given(seed=st.integers(0, 2**32))
def test_a_quarter_turn_changes_no_odds_and_turns_every_later_state(case, seed):
    # Why nodes merge up to a quarter-turn phase k: k * state gives the
    # same odds at every step and, after every outcome and the gates that
    # follow, k times the state it gives, part by part.
    plan, by_step = _warm_nodes(case)
    rnd = random.Random(seed)
    for index, step in enumerate(plan.steps):
        last, state = rnd.choice(by_step[index])
        odds, branch = step.split(state)
        outcomes = _some_outcomes(odds, rnd)
        for k in (-1, 1j, -1j):
            turned_odds, turned_branch = step.split(_turned(state, k))
            assert turned_odds == odds, (index, k)
            for outcome in outcomes:
                want, got = (
                    harness._settle(b(outcome), step.gates, (last, outcome))
                    for b in (branch, turned_branch)
                )
                assert got.entries == _turned(want, k).entries, (index, k, outcome)


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_no_split_depends_on_p(case):
    # Why a node keeps its split: the step at one index of the plans of two
    # error rates gives a node the same odds, never None, so the odds a
    # node keeps serve every rate that walks it.
    plan, by_step = _warm_nodes(case)
    low, high = _plan(plan.shape, 0.002), _plan(plan.shape, 0.1)
    rnd = random.Random(11)
    for index, (a, b) in enumerate(zip(low.steps, high.steps, strict=True)):
        for _, state in rnd.sample(by_step[index], min(5, len(by_step[index]))):
            odds = a.split(state)[0]
            assert odds is not None and b.split(state)[0] == odds, index


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_a_third_identical_run_builds_and_splits_nothing(monkeypatch, case):
    # Three identical runs over one memo.  The first leaves a node unsplit
    # where one row visited it, and the second splits it; every node then
    # keeps its odds, an error layer's included, so the third only follows
    # known edges.
    counts = dict.fromkeys(("builds", "splits"), 0)

    def counted(name, f):
        def wrapped(*args):
            counts[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(harness, "_canonical", counted("builds", harness._canonical))
    monkeypatch.setattr(harness, "_MEMO_CAP", _NO_START_OVER)
    shape, memo = _shape(**MEMO_CASES[case]), _memo()
    plans = [
        plan._replace(steps=tuple(s._replace(split=counted("splits", s.split)) for s in plan.steps))
        for plan in (_plan(shape, p) for p in (0.002, 0.01))
    ]
    runs = []
    for _ in range(3):
        counts.update(builds=0, splits=0)
        runs.append([
            harness._walk_block(memo, plan, block).tolist()
            for point, plan in enumerate(plans)
            for block in shot_draws(0, point, 0, 256, plan.width)
        ])
        if len(runs) == 1:
            nodes = len(memo)
            assert counts["builds"] >= nodes > 0 and counts["splits"] > 0
    assert runs[0] == runs[1] == runs[2]
    assert len(memo) == nodes
    assert counts == {"builds": 0, "splits": 0}


# ---------------------------------------------------------------------------
# a block's picks
# ---------------------------------------------------------------------------

#: The largest double a generator's ``random()`` returns.
_TOP = 1.0 - 2.0**-53


def _per_row(picks, rows):
    """The outcome of each of ``rows`` rows from a vectorized pick's
    ``(outcome, selector)`` pairs, checking that each row gets one."""
    out = [None] * rows
    for outcome, which in picks:
        for row in np.arange(rows)[which].tolist():
            assert out[row] is None
            out[row] = outcome
    assert None not in out
    return out


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_a_double_equal_to_p_flips_nothing(p):
    modes = tuple(range(9))
    below = float(np.nextafter(p, 0.0))
    u = np.array(
        [
            [p] * 9,
            [below] + [p] * 8,
            [p] * 8 + [0.0],
            [float(np.nextafter(p, 1.0))] * 9,
            [_TOP] * 9,
            *np.random.default_rng(7).random((4, 9)).tolist(),
        ]
    )
    got = _per_row(harness._pick_flips(modes, p, u), len(u))
    want = [harness._draw_flips(modes, p, harness._StepDraws(row)) for row in u.tolist()]
    assert got == want
    assert got[0] == ()
    if p > 0.0:
        assert got[1] == (0,) and got[2] == (8,)


@pytest.mark.parametrize("p_plus", [0.0, 0.3, 0.5, _TOP, 1.0])
def test_a_double_equal_to_p_plus_reads_minus(p_plus):
    doubles = [p_plus, float(np.nextafter(p_plus, 0.0)), float(np.nextafter(p_plus, 1.0))]
    doubles += [0.0, _TOP, *np.random.default_rng(8).random(4).tolist()]
    got = _per_row(harness._pick_signs(p_plus, np.array(doubles)[:, None]), len(doubles))
    assert got == [draw_sign(p_plus, harness._StepDraws([u])) for u in doubles]
    assert got[0] == -1


@pytest.mark.parametrize(
    "probs",
    [
        {0: 0.25, 1: 0.5, 3: 0.25},
        {0: 0.7, 1: 0.2, 2: 0.1},  # the sums reach 1 - 2**-53, the largest double
        {2: 0.5, 5: 0.25},  # the sums stop at 0.75
        {4: 1.0},
        {0: 0.0, 1: 0.6, 2: 0.0, 3: 0.4},
    ],
)
def test_a_double_at_or_above_the_last_sum_selects_the_largest_count(probs):
    sums = list(itertools.accumulate(probs.values(), initial=0.0))[1:]
    near = {s + d for s in sums for d in (0.0, -(2.0**-53), 2.0**-53)}
    doubles = sorted(u for u in near | {0.0, _TOP, 0.9} if 0.0 <= u <= _TOP)
    got = _per_row(harness._pick_counts(probs, np.array(doubles)[:, None]), len(doubles))
    assert got == [select_count(probs, u) for u in doubles]
    assert all(c == max(probs) for c, u in zip(got, doubles) if u >= sums[-1])


@pytest.mark.parametrize("compressed", [False, True])
def test_the_final_readout_draws_the_outcome_measure_qubit_draws(compressed):
    lay = RegisterLayout(3, 4, 4, num_ancilla_qubits=2)
    read = _plan(_shape(), 0.05).steps[-1].measure
    for seed in range(6):
        state = spread_h_state(lay, seed)
        state = compress(state) if compressed else state
        p0, _ = split_qubit(state, 1)
        doubles = [p0, float(np.nextafter(p0, 0.0)), float(np.nextafter(p0, 1.0))]
        doubles += [0.0, _TOP, *np.random.default_rng(seed).random(4).tolist()]
        for u in doubles:
            want, _ = measure_qubit(state, 1, harness._StepDraws([u]))
            assert read(state, harness._StepDraws([u])) == (want, None), u
        assert read(state, harness._StepDraws([p0]))[0] == -1  # u == p0 reads -1


@pytest.mark.parametrize("case", ["corrected", "uncorrected", "reference"])
def test_a_block_where_every_shot_branches_gives_each_shot_its_own_outcome(monkeypatch, case):
    monkeypatch.setattr(harness, "_MEMO_CAP", _NO_START_OVER)
    shape = _shape(**MEMO_CASES[case])
    memo = _memo()
    plan = _plan(shape, 0.5)
    first = plan.steps[0].columns
    width = first.stop - first.start
    # row 0 flips nothing in the first layer and row i + 1 flips mode i
    # alone; at p = 0.5 the later events part the rows further
    block = np.random.default_rng(3).random((width + 1, plan.width))
    block[:, first] = np.vstack([np.full(width, _TOP), np.where(np.eye(width), 0.0, _TOP)])
    want = [run_exchange_shot(_memo(), plan, row[None]) for row in block]
    for _ in range(2):  # first visits, then a replay on the warm memo
        assert harness._walk_block(memo, plan, block).tolist() == want
    # every shot its own history: the root has an edge for each flip the
    # layer applies at once, and the rows whose flip it leaves pending (on
    # every block in the corrected plan) share the no-flip edge, each with
    # its own pending flip
    defers = plan.steps[0].defers
    (root,) = memo.roots.values()
    assert set(root.children) == {(), *((m,) for m in range(width) if not defers >> m & 1)}
    assert set(want) == {-1, 1}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_plan_width_is_what_a_shot_draws(case):
    memo, shape = _memo(), _shape(**MEMO_CASES[case])
    plan = _plan(shape, 0.2)
    # the events read the columns of a row in order, each its own, and
    # nothing past the width
    columns = [step.columns for step in plan.steps]
    assert [c.start for c in columns] == [0] + [c.stop for c in columns[:-1]]
    assert columns[-1].stop == plan.width
    for seed in range(3):  # first visits, then second visits on the memo
        block = np.random.default_rng(seed).random((1, plan.width))
        for m in (_memo(), memo, memo):
            # a plain measurement draws exactly its event's columns
            # (``_StepDraws`` raises otherwise)
            assert run_exchange_shot(m, plan, block) in (-1, 1)


def test_a_shot_cannot_draw_past_its_width():
    plan = _plan(_shape(), 0.05)
    width = plan.width
    for size in ((1, width - 1), (1, width + 1), (width,), (1, 1, width)):
        with pytest.raises(ValueError, match=f"reads {width} doubles"):
            run_exchange_shot(_memo(), plan, np.zeros(size))
    # an event's plain measurement draws its own doubles and no others
    for doubles, ask in (([0.5], 2), ([0.5, 0.25], None), ([0.5, 0.25], 3)):
        with pytest.raises(ValueError, match="asked for"):
            harness._StepDraws(doubles).random(ask)
    assert harness._StepDraws([0.5]).random() == 0.5
    assert harness._StepDraws([0.5, 0.25]).random(2) == [0.5, 0.25]


@pytest.mark.parametrize(
    "correct, reference", [(True, False), (False, False), (True, True)]
)
def test_a_run_counts_what_plain_numpy_shots_count(correct, reference):
    config = ExperimentConfig(
        (0.05, 0.2),
        shots=24,
        correction_enabled=correct,
        include_reference_errors=reference,
        seed=9,
    )
    base, shape = _exchange_start()[1], harness._plan_shape(config)
    plain = []
    for point, p in enumerate(config.p_values):
        plan = _plan(shape, p)
        outcomes = [
            run_exchange_shot(
                harness._HistoryMemo(base), plan,
                np.random.default_rng(
                    np.random.SeedSequence([config.seed, point, shot])
                ).random((1, plan.width)),
            )
            for shot in range(config.shots)
        ]
        plain.append(outcomes.count(-1))
    assert [p.count_minus for p in run_experiment(config).points] == plain


def test_draws_held_do_not_grow_with_the_shot_count(monkeypatch):
    # Shots seed and walk in blocks: the memory a range holds for its draws
    # is one block's, however many shots it runs.
    def take_all(memo, plan, block):
        assert block.shape == (len(block), plan.width)
        return np.ones(len(block), np.int64)

    monkeypatch.setattr(harness, "_walk_block", take_all)

    def peak(shots):
        config = ExperimentConfig((0.01,), shots=shots, include_reference_errors=True)
        tracemalloc.start()
        try:
            harness._run_shot_range(config, 0, shots)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # leaves out what a first call caches, the process's code too
    assert peak(2048) <= peak(256) + 16 * 1024


# ---------------------------------------------------------------------------
# the exchange start, built once per process
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """Counts, from now on, of the codes constructed and of the label
    images derived; ``monkeypatch`` puts both methods back afterwards."""
    counts = {"codes": 0, "images": 0}
    init, missing = RepetitionCode.__init__, LabelMap.__missing__

    def counted_init(self, *args):
        counts["codes"] += 1
        init(self, *args)

    def counted_missing(self, label):
        counts["images"] += 1
        return missing(self, label)

    monkeypatch.setattr(RepetitionCode, "__init__", counted_init)
    monkeypatch.setattr(LabelMap, "__missing__", counted_missing)
    return counts


@pytest.mark.parametrize(
    "case", ["corrected", "uncorrected", "reference", "reference_p0.1_5layers"]
)
def test_a_reused_code_changes_no_result(monkeypatch, case):
    # A second run on the process's code gives the fresh code's results and
    # derives nothing; a run at another seed derives nothing either, so the
    # code a long-lived process holds does not grow with the runs it makes,
    # even on the five-layer p = 0.1 reference run, where the memo hits least
    # (the slowest shape by far: 128 shots of it keep the test under a second).
    # Each later run starts on an empty process memo, so it builds every
    # state again from the reused code.
    slowest = case == "reference_p0.1_5layers"
    p_values, shots = ((0.1,), 128) if slowest else ((0.002, 0.01), 512)
    config = ExperimentConfig(p_values, shots=shots, **MEMO_CASES[case])
    harness._exchange_start.cache_clear()
    counts = _count_builds(monkeypatch)
    fresh = run_experiment(config).points
    assert counts["codes"] == 1 and counts["images"] > 0
    code = harness._exchange_start()[0]

    def held():
        return {key: len(entry) for key, entry in code._cache.items()}

    first = held()
    counts.update(codes=0, images=0)
    memo = harness._exchange_start()[2]
    memo.clear()
    assert run_experiment(config).points == fresh
    assert len(memo) > 0
    memo.clear()
    run_experiment(dataclasses.replace(config, seed=7))
    assert counts == {"codes": 0, "images": 0}
    assert held() == first
    assert harness._exchange_start()[0] is code


def test_a_warm_process_memo_changes_no_result():
    # Each shape's counts on a cold process memo equal its counts on the
    # memo that runs of every other shape and of seed 7 have warmed; the
    # memo stays within its cap, and clearing the start drops the memo.
    configs = {
        case: ExperimentConfig((0.01, 0.05), shots=64, **fields)
        for case, fields in MEMO_CASES.items()
    }
    cold = {}
    for case, config in configs.items():
        harness._exchange_start.cache_clear()
        cold[case] = [p.count_minus for p in run_experiment(config).points]
    harness._exchange_start.cache_clear()
    memo = harness._exchange_start()[2]
    for config in configs.values():
        run_experiment(dataclasses.replace(config, seed=7))
    for case, config in configs.items():
        assert len(memo) > 0
        assert [p.count_minus for p in run_experiment(config).points] == cold[case], case
    assert 0 < len(memo) <= harness._MEMO_CAP
    harness._exchange_start.cache_clear()
    fresh = harness._exchange_start()[2]
    assert fresh is not memo
    assert len(fresh) == 0 and fresh.roots == {}


def test_a_run_whose_memo_starts_over_at_its_cap_keeps_its_counts(monkeypatch):
    # A cap of 40 makes the process memo start over several times within
    # one run, each time at the cap; the run ends with at most 40 nodes and
    # counts what a run at the default cap counts.
    config = ExperimentConfig((0.05, 0.01), shots=256, include_reference_errors=True)
    harness._exchange_start.cache_clear()
    cold = [p.count_minus for p in run_experiment(config).points]
    starts, clear = [], harness._HistoryMemo.clear

    def counted(memo):
        starts.append(len(memo))
        clear(memo)

    monkeypatch.setattr(harness._HistoryMemo, "clear", counted)
    monkeypatch.setattr(harness, "_MEMO_CAP", 40)
    harness._exchange_start.cache_clear()
    memo = harness._exchange_start()[2]
    assert [p.count_minus for p in run_experiment(config).points] == cold
    assert len(starts) > 1 and set(starts) == {40}
    assert 0 < len(memo) <= 40
    harness._exchange_start.cache_clear()


def test_a_node_holds_its_state_in_under_12_kb():
    # A memo filled to near its cap on the shape where it hits least, each
    # node holding its state as a dict of Python complexes: 9.6 KB a node,
    # so a full memo holds about 5 MB.
    shape, p, cap = _shape(**MEMO_CASES["reference_p0.1_5layers"]), 0.1, harness._MEMO_CAP
    # the blocks that fill an uncapped memo to between 90% of the cap and
    # the cap, walked there first so the code's label maps grow outside
    # the count
    warm, blocks, plan = _memo(), [], _plan(shape, p)
    with _cap(_NO_START_OVER):
        for shot in range(4096):
            block = _one_shot_draws(0, 0, shot, plan.width)
            harness._walk_block(warm, plan, block)
            if len(warm) > cap:
                break
            blocks.append(block)
    memo = _memo()
    tracemalloc.start()
    try:
        for block in blocks:
            harness._walk_block(memo, plan, block)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0.9 * cap <= len(memo) <= cap
    assert held / len(memo) < 12 * 1024
