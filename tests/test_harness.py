"""Noise injection and the exchange-interferometry driver."""

import contextlib
import dataclasses
import functools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CountingRng
from hypothesis import given
from hypothesis import strategies as st

from fermiqec import harness
from fermiqec.backend import compress
from fermiqec.harness import (
    EXCHANGE_PAIRS,
    _exchange_start,
    ExperimentConfig,
    noise_modes,
    run_exchange_shot,
    run_experiment,
    sample_phase_error_layer,
)
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
    phys, flipped = sample_phase_error_layer(psi, 0.5, modes, harness._Draws(doubles))
    comp, _ = sample_phase_error_layer(compress(psi), 0.5, modes, harness._Draws(doubles))
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


def _one_shot_draws(seed, point, shot, memo, p):
    """The draw source of one shot, a one-shot range of the run's own."""
    (draws,) = harness._shot_draws(seed, point, shot, shot + 1, memo.plan(p).width)
    return draws


def test_noiseless_estimate_is_exactly_minus_one():
    result = run_experiment(ExperimentConfig((0.0,), shots=8, seed=3))
    (point,) = result.points
    assert point.count_minus == 0
    assert point.estimate == -1.0
    assert point.ci_lo <= -1.0 <= point.ci_hi


def test_pure_reference_noise_is_removed_exactly():
    # Both layers flip bank modes 9 and 11 alone; the bank count, the six
    # readouts after each layer and the final readout draw at random.
    config = ExperimentConfig((0.5,), num_error_layers=2, include_reference_errors=True)
    memo = harness._HistoryMemo(config, *_exchange_start(), 0)
    assert memo.plan(0.5).width == 51
    layer = _flipping((9, 11), 18)
    rng = np.random.default_rng(5)
    for _ in range(40):
        rest = rng.random(15).tolist()
        draws = harness._Draws(layer + rest[:7] + layer + rest[7:])
        assert run_exchange_shot(memo, 0.5, draws) == +1


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
    memo = harness._HistoryMemo(config, *_exchange_start(), 0)
    outcomes = []
    for shot in range(config.shots):
        draws = _one_shot_draws(config.seed, 0, shot, memo, 0.05)
        outcome = run_exchange_shot(memo, 0.05, draws)
        outcomes.append("+" if outcome > 0 else "-")
    assert "".join(outcomes) == PINNED_OUTCOMES[case]


# ---------------------------------------------------------------------------
# the history memo
# ---------------------------------------------------------------------------

#: The 9+9+9+2 exchange register's code with its |1,1,0> start.
_CODE, _BASE = _exchange_start()

#: A cap no run in these tests reaches: the memo never starts over.
_NO_START_OVER = 10**9


def _memo(cap, **fields):
    """A history memo for the standard start, holding at most ``cap``
    nodes, of a config with these fields (the rest at their defaults)."""
    return harness._HistoryMemo(ExperimentConfig((0.05,), **fields), _CODE, _BASE, cap)


def _outcomes(memo, p_values, shots, seed=0):
    """Outcomes of ``shots`` shots at each p, seeded as a run seeds them and
    sharing ``memo`` across the points."""
    out = []
    for point, p in enumerate(p_values):
        for draws in harness._shot_draws(seed, point, 0, shots, memo.plan(p).width):
            out.append(run_exchange_shot(memo, p, draws))
    return out


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
    runs = {
        cap: _outcomes(_memo(cap, **MEMO_CASES[case]), (0.01, 0.05), 200)
        for cap in (_NO_START_OVER, 0, 2)
    }
    assert set(runs[_NO_START_OVER]) <= {-1, 1}
    assert runs[_NO_START_OVER] == runs[0] == runs[2]


def test_memo_holds_no_more_than_its_cap():
    # At p = 0.1 300 shots make more nodes than the cap holds.
    capped, tiny, uncapped = _memo(harness._MEMO_CAP), _memo(2), _memo(_NO_START_OVER)
    for memo in (capped, tiny, uncapped):
        _outcomes(memo, (0.1,), 300)
    assert len(tiny) <= 2
    assert len(capped) <= harness._MEMO_CAP < len(uncapped)
    # a full memo that needs one more node starts over with that node alone
    full = _memo(3)
    for step in range(4):
        node = full.node(full.roots, step, lambda: _BASE, (step, None))
    assert len(full) == 1 and full.roots == {3: node}
    assert len(_memo(0)) == 0
    with pytest.raises(ValueError, match="cap"):
        _memo(-1)
    with pytest.raises(TypeError):
        _memo(None)


def test_histories_that_reach_one_state_share_its_node():
    fields = {"include_reference_errors": True}
    memo, plain = _memo(_NO_START_OVER, **fields), _memo(0, **fields)
    assert _outcomes(memo, (0.01,), 256) == _outcomes(plain, (0.01,), 256)
    nodes = {id(node) for node in memo._states.values()}
    edges = [*memo.roots.values()]
    for node in memo._states.values():
        edges += node.children.values()
    assert {id(node) for node in edges} == nodes  # every edge leads to a node
    assert len(nodes) == len(memo) < len(edges)  # some nodes have two in-edges


def test_a_node_is_shared_only_by_exactly_equal_states_at_one_place():
    memo = _memo(harness._MEMO_CAP)
    place = (0, None)
    edges = {}
    first = memo.node(edges, "a", lambda: _BASE, place)
    assert memo.node(edges, "a", None, place) is first  # a hit builds nothing
    entries = list(_BASE.entries.items())
    label, amp = entries[0]
    reordered = SparseState(_BASE.layout, dict(entries[::-1]), _BASE.compressed)
    nudged = {**_BASE.entries, label: amp * (1 + 2**-52)}
    nudged = SparseState(_BASE.layout, nudged, _BASE.compressed)
    assert list(reordered.entries) != list(_BASE.entries)
    # the same labels and amplitudes share the node, whatever their order
    equal = SparseState(_BASE.layout, dict(entries), _BASE.compressed)
    for name, state in (("b", equal), ("reordered", reordered)):
        assert memo.node(edges, name, lambda: state, place) is first
    assert edges == {"a": first, "b": first, "reordered": first}
    assert memo.node(edges, "nudged", lambda: nudged, place) is not first
    # another step or last outcome never does
    for other in ((1, None), (0, 1)):
        node = memo.node(edges, (other, "a"), lambda: _BASE, other)
        assert node is not first
        assert memo.node(edges, (other, "reordered"), lambda: reordered, other) is node


def test_a_fresh_corrected_call_makes_few_nodes():
    # One 256-shot call at corrected p = 0.01, seed 0, as a run makes it:
    # 299 nodes while nodes merged only states in the same entry order.
    memo = _memo(_NO_START_OVER)
    _outcomes(memo, (0.01,), 256)
    assert len(memo) < 200


def test_only_a_first_visit_runs_the_plain_readout(monkeypatch):
    calls = []
    readout = harness.measure_stabilizer

    def counted(*args):
        calls.append(args)
        return readout(*args)

    monkeypatch.setattr(harness, "measure_stabilizer", counted)
    plain = _outcomes(_memo(0), (0.01,), 40)
    assert len(calls) == 40 * 3 * 6  # every readout of every shot
    calls.clear()
    memo = _memo(harness._MEMO_CAP)
    warm = _outcomes(memo, (0.01,), 40)
    first_visits = len(calls)
    calls.clear()
    replay = _outcomes(memo, (0.01,), 40)
    assert plain == warm == replay
    assert 0 < first_visits < 40 * 3 * 6
    assert calls == []  # the replay only revisits nodes


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
    memo, plain = _memo(harness._MEMO_CAP, **fields), _memo(0, **fields)
    for _ in range(2):  # the second pass replays the first from the memo
        for shot in range(3):
            outcomes = [
                run_exchange_shot(m, p, np.random.default_rng(shot)) for m in (memo, plain)
            ]
            assert outcomes[0] == outcomes[1]
            assert outcomes[0] in (-1, 1)


@given(
    fields=_PLAN_FIELDS,
    p_values=st.lists(st.sampled_from((0.05, 0.2, 0.5)), min_size=1, max_size=3),
    shots=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=10),
)
def test_a_memo_that_starts_over_leaves_every_outcome_unchanged(fields, p_values, shots):
    # Caps this small start over in the middle of nearly every shot; seeds
    # repeat, so shots also revisit nodes that survived a start-over.
    memos = [_memo(cap, **fields) for cap in (0, 1, 2, 3, 5)]
    for point, seed in shots:
        p = p_values[point % len(p_values)]
        outcomes = {run_exchange_shot(m, p, np.random.default_rng(seed)) for m in memos}
        assert len(outcomes) == 1, (point, seed)


@functools.cache
def _warm_nodes(case):
    """The plan of ``MEMO_CASES[case]`` and, by step index, the ``(last
    outcome, state)`` of every node a memo holds after 30 shots at each of
    p = 0.05 and 0.2."""
    memo = _memo(_NO_START_OVER, **MEMO_CASES[case])
    _outcomes(memo, (0.05, 0.2), 30)
    by_step = {}
    for (index, last, _), node in memo._states.items():
        by_step.setdefault(index, []).append((last, node.state))
    return memo.plan(0.05), by_step


@given(case=st.sampled_from(sorted(MEMO_CASES)), seed=st.integers(0, 2**32))
def test_entry_order_changes_no_odds_and_no_later_state(case, seed):
    # Why nodes merge by content: a memo state and a copy with its entries
    # in another order give the same odds and, after every outcome and the
    # gates that follow, states with the same labels and amplitudes.
    plan, by_step = _warm_nodes(case)
    rnd = random.Random(seed)
    modes = noise_modes(_CODE.layout, MEMO_CASES[case].get("include_reference_errors", False))
    for index, step in enumerate(plan.steps):
        last, state = rnd.choice(by_step[index])
        entries = list(state.entries.items())
        rnd.shuffle(entries)
        odds, branch = step.split(state)
        permuted_odds, permuted_branch = step.split(
            SparseState(state.layout, dict(entries), state.compressed)
        )
        assert permuted_odds == odds, index
        if odds is None:  # an error layer: any flips
            outcomes = [tuple(m for m in modes if rnd.random() < 0.2) for _ in range(3)]
        elif isinstance(odds, dict):  # the bank count
            outcomes = list(odds)
        else:  # a readout: the signs it can give
            outcomes = [o for o, q in ((1, odds), (-1, 1 - odds)) if q > 0]
        for outcome in outcomes:
            after = [
                harness._settle(b(outcome), step.gates, (last, outcome)).entries
                for b in (branch, permuted_branch)
            ]
            assert after[0] == after[1], (index, outcome)


# ---------------------------------------------------------------------------
# a shot's draws
# ---------------------------------------------------------------------------


def _numpy_doubles(seed, point, shot, width):
    """The oracle: a shot's first ``width`` doubles from numpy's own seeding."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, point, shot]))
    return rng.random(width).tolist()


@pytest.mark.parametrize(
    "seed, point, start, stop",
    [
        (0, 0, 0, 600),  # three seed blocks
        (2**32 + 7, 0, 0, 5),  # a two-word seed
        (2**64 + 7, 0, 3, 8),  # a three-word seed
        (5, 3, 100, 110),
        (5, 2**40, 100, 103),  # a two-word point
        (1, 1, 2**32 - 4, 2**32 + 4),  # one- then two-word shots
        (1, 0, 2**64 - 2, 2**64 + 2),  # two- then three-word shots
    ],
)
def test_batched_draws_are_numpys_per_shot_draws(seed, point, start, stop):
    got = [d.random(11) for d in harness._shot_draws(seed, point, start, stop, 11)]
    assert got == [_numpy_doubles(seed, point, s, 11) for s in range(start, stop)]


@given(
    seed=st.integers(0, 2**96),
    point=st.integers(0, 2**40),
    start=st.integers(0, 2**70),
)
def test_any_shot_draws_what_numpy_draws(seed, point, start):
    got = [d.random(4) for d in harness._shot_draws(seed, point, start, start + 3, 4)]
    assert got == [_numpy_doubles(seed, point, s, 4) for s in range(start, start + 3)]


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_plan_width_is_what_a_shot_draws(case):
    memo, plain = _memo(harness._MEMO_CAP, **MEMO_CASES[case]), _memo(0, **MEMO_CASES[case])
    width = memo.plan(0.2).width
    for seed in range(3):  # first visits, then second visits on the memo
        for m in (plain, memo, memo):
            rng = CountingRng(seed)
            run_exchange_shot(m, 0.2, rng)
            assert rng.draws == width


def test_a_shot_cannot_draw_past_its_width():
    for ask in ([None, None, None, None], [2, 2], [3, None], [4]):
        (draws,) = harness._shot_draws(0, 0, 0, 1, 3)
        with pytest.raises(ValueError, match="more than its 3 doubles"):
            for size in ask:
                draws.random(size)
    (draws,) = harness._shot_draws(0, 0, 0, 1, 3)
    assert [draws.random(2), draws.random()] == [
        _numpy_doubles(0, 0, 0, 2), _numpy_doubles(0, 0, 0, 3)[2]
    ]


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
    memo = harness._HistoryMemo(config, *_exchange_start(), 0)
    plain = []
    for point, p in enumerate(config.p_values):
        outcomes = [
            run_exchange_shot(
                memo, p,
                np.random.default_rng(np.random.SeedSequence([config.seed, point, shot])),
            )
            for shot in range(config.shots)
        ]
        plain.append(outcomes.count(-1))
    assert [p.count_minus for p in run_experiment(config).points] == plain


def test_draws_held_do_not_grow_with_the_shot_count(monkeypatch):
    # Shots seed in blocks and draw one at a time: the memory a range holds
    # for its draws is one block's, however many shots it runs.
    def take_all(memo, p, draws):
        draws.random(memo.plan(p).width)
        return 1

    monkeypatch.setattr(harness, "_exchange_start", lambda: (_CODE, _BASE))
    monkeypatch.setattr(harness, "run_exchange_shot", take_all)

    def peak(shots):
        config = ExperimentConfig((0.01,), shots=shots, include_reference_errors=True)
        tracemalloc.start()
        try:
            harness._run_shot_range(config, 0, shots)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # leaves out what a first call caches
    assert peak(2048) <= peak(256) + 16 * 1024
