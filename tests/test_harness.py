"""Noise injection and the exchange-interferometry driver."""

import math

import numpy as np
import pytest

from fermiqec.backend import compress
from fermiqec.codes import RepetitionCode, logical_basis_state
from fermiqec.harness import (
    EXCHANGE_PAIRS,
    _build_code,
    _resolve_schedule,
    ExperimentConfig,
    NoiseSpec,
    noise_modes,
    run_exchange_shot,
    run_experiment,
    sample_phase_error_layer,
)
from fermiqec.reference import random_h_state
from fermiqec.registers import RegisterLayout
from fermiqec.states import difference_norm


class CountingRng:
    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return float(self._rng.random())


def test_noise_modes_selection():
    lay = RegisterLayout(3, 4, 4)
    assert noise_modes(NoiseSpec(0.1), lay) == (0, 1, 2)
    assert noise_modes(NoiseSpec(0.1, include_reference=True), lay) == (
        0, 1, 2, 3, 4, 5, 6,
    )
    assert noise_modes(NoiseSpec(0.1, targets=(5, 0)), lay) == (0, 5)


def test_error_layer_draw_budget_is_fixed():
    lay = RegisterLayout(3, 4, 4)
    psi = random_h_state(lay, np.random.default_rng(71))
    for spec, expected in [
        (NoiseSpec(0.0), 3),
        (NoiseSpec(0.0, include_reference=True), 7),
        (NoiseSpec(0.0, targets=(1,)), 1),
    ]:
        rng = CountingRng(72)
        out, flipped = sample_phase_error_layer(psi, spec, rng)
        assert rng.draws == expected
        assert flipped == ()
        assert difference_norm(out, psi) == 0.0


def test_error_layer_at_unit_rate_flips_every_target():
    lay = RegisterLayout(3, 4, 4)
    psi = random_h_state(lay, np.random.default_rng(73))
    rng = np.random.default_rng(74)
    out, flipped = sample_phase_error_layer(psi, NoiseSpec(1.0, targets=(0, 2)), rng)
    assert flipped == (0, 2)
    want = psi.with_entries(
        {
            l: (-a if ((l & 0b101).bit_count() & 1) else a)
            for l, a in psi.entries.items()
        }
    )
    assert difference_norm(out, want) == 0.0


def test_reference_flips_agree_between_representations():
    lay = RegisterLayout(3, 4, 4)
    psi = random_h_state(lay, np.random.default_rng(75))
    spec = NoiseSpec(1.0, targets=(3, 5))
    phys, _ = sample_phase_error_layer(psi, spec, np.random.default_rng(76))
    comp, _ = sample_phase_error_layer(
        compress(psi), spec, np.random.default_rng(76)
    )
    assert difference_norm(compress(phys), comp) < 1e-13


def test_schedule_validation():
    with pytest.raises(ValueError, match="length"):
        run_experiment(
            ExperimentConfig((0.0,), shots=1, layer_schedule=(0, 1))
        )
    with pytest.raises(ValueError, match="slots"):
        run_experiment(
            ExperimentConfig(
                (0.0,), shots=1, num_error_layers=1, layer_schedule=(4,)
            )
        )


def test_register_must_hold_three_blocks():
    with pytest.raises(ValueError, match="three logical"):
        run_experiment(ExperimentConfig((0.0,), shots=1, register=(6, 6, 6)))


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="seed"):
        run_experiment(ExperimentConfig((0.0,), shots=1, seed=-1))


def test_noiseless_estimate_is_exactly_minus_one():
    result = run_experiment(ExperimentConfig((0.0,), shots=8, seed=3))
    (point,) = result.points
    assert point.count_minus == 0
    assert point.estimate == -1.0
    assert point.ci_lo <= -1.0 <= point.ci_hi


def test_pure_reference_noise_is_removed_exactly():
    config = ExperimentConfig((1.0,), shots=4, num_error_layers=2, seed=5)
    code_lay = RegisterLayout(9, 9, 9, num_ancilla_qubits=2)
    code = RepetitionCode(code_lay)
    base = logical_basis_state(code, (1, 1, 0), compressed=True)
    spec = NoiseSpec(1.0, targets=(9, 11))  # bank modes only
    for shot in range(config.shots):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0, shot])
        )
        outcome = run_exchange_shot(base, code, spec, (0, 2), True, rng)
        assert outcome == +1


def test_worker_count_does_not_change_the_counts():
    config = ExperimentConfig(
        (0.01,), shots=300, num_error_layers=2, correction_enabled=False, seed=11
    )
    serial = run_experiment(config, threads=1)
    fanned = run_experiment(config, threads=2)
    assert [p.count_minus for p in serial.points] == [
        p.count_minus for p in fanned.points
    ]
    assert serial.points[0].estimate == fanned.points[0].estimate


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
    code = _build_code(config)
    base = logical_basis_state(code, (1, 1, 0), compressed=True)
    spec = NoiseSpec(0.05, include_reference=reference)
    schedule = _resolve_schedule(config)
    outcomes = []
    for shot in range(config.shots):  # the seeding of harness._run_shot_range
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, shot]))
        outcome = run_exchange_shot(base, code, spec, schedule, correct, rng)
        outcomes.append("+" if outcome > 0 else "-")
    assert "".join(outcomes) == PINNED_OUTCOMES[case]
