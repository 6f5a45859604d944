"""Logical exchange interferometry with injected phase noise.

Three code blocks hold |1, 1, 0>; an interferometer ancilla in superposition
controls a cycle of three logical pi/2 tunnelings (blocks 1-3, 1-2, 2-3)
whose net effect on the occupied pair is a pure exchange phase i.  The
ancilla therefore ends in |+i> and the y-basis estimate sits at exactly -1
in the noiseless case; phase errors push it up, and the deviation epsilon
scales linearly in the error rate without correction and quadratically with
the repetition-code rounds enabled.

Every shot owns an rng seeded from (seed, point, shot), so results are
independent of how shots are distributed over worker processes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codes import RepetitionCode, logical_basis_state
from .gates import apply_qubit_gate, measure_qubit
from .logical import controlled_tunneling_logical
from .qec import measure_reference_and_recover, qec_round
from .registers import RegisterLayout
from .states import SparseState, apply_map
from .stats import clopper_pearson

__all__ = [
    "NoiseSpec",
    "noise_modes",
    "sample_phase_error_layer",
    "ExperimentConfig",
    "PointResult",
    "ExperimentResult",
    "run_exchange_shot",
    "run_experiment",
    "EXCHANGE_PAIRS",
]

#: Block pairs of the three controlled tunnelings, in time order.
EXCHANGE_PAIRS = ((0, 2), (0, 1), (1, 2))

_INTERFEROMETER = 0  # ancilla carrying the exchange phase
_GADGET = 1  # ancilla reserved for in-shot correction machinery


@dataclass(frozen=True)
class NoiseSpec:
    """Single-mode pi phase flips, each firing independently with
    probability ``p`` per layer.

    ``targets`` picks explicit fermionic modes; by default the system modes
    are hit, plus the reference modes when ``include_reference`` is set.
    """

    p: float
    targets: tuple[int, ...] | None = None
    include_reference: bool = False


def noise_modes(spec: NoiseSpec, layout: RegisterLayout) -> tuple[int, ...]:
    if spec.targets is not None:
        return tuple(sorted(spec.targets))
    modes = list(range(layout.num_system_modes))
    if spec.include_reference:
        modes += list(range(layout.num_system_modes, layout.num_fermion_modes))
    return tuple(modes)


def sample_phase_error_layer(
    state: SparseState, spec: NoiseSpec, rng: np.random.Generator
) -> tuple[SparseState, tuple[int, ...]]:
    """One error layer: a draw per target mode (ascending, system before
    reference), then a single diagonal pass applying the sampled flips.

    Draws are consumed even at p = 0 so rng streams stay aligned across
    noise settings.
    """
    lay = state.layout
    flipped = [m for m in noise_modes(spec, lay) if rng.random() < spec.p]
    if not flipped:
        return state.copy(), ()
    flip_mask = sum(1 << m for m in flipped)
    compressed = state.compressed

    def image(l: int) -> tuple[tuple[int, complex]]:
        return ((l, -1.0 if lay.occupation(l, flip_mask, compressed) & 1 else 1.0),)

    return apply_map(state, image), tuple(flipped)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    p_values: tuple[float, ...]
    shots: int = 100_000
    num_error_layers: int = 3
    correction_enabled: bool = True
    include_reference_errors: bool = False
    seed: int = 0
    layer_schedule: tuple[int, ...] | None = None
    register: tuple[int, int, int] = (9, 9, 9)


def _resolve_schedule(config: ExperimentConfig) -> tuple[int, ...]:
    """Slot of each error layer: 0..2 precede the three tunnelings, slot 3
    precedes the final measurement.  Defaults to cycling through the slots."""
    if config.layer_schedule is None:
        return tuple(i % 4 for i in range(config.num_error_layers))
    sched = tuple(int(s) for s in config.layer_schedule)
    if len(sched) != config.num_error_layers:
        raise ValueError("layer schedule length must match num_error_layers")
    if any(not 0 <= s <= 3 for s in sched):
        raise ValueError("layer slots run from 0 to 3")
    return sched


def _build_code(config: ExperimentConfig) -> RepetitionCode:
    lay = RegisterLayout(*config.register, num_ancilla_qubits=2)
    code = RepetitionCode(lay)
    if code.num_blocks != 3:
        raise ValueError("the exchange sequence runs on three logical modes")
    return code


# ---------------------------------------------------------------------------
# one shot
# ---------------------------------------------------------------------------


def run_exchange_shot(
    base: SparseState,
    code: RepetitionCode,
    spec: NoiseSpec,
    schedule: tuple[int, ...],
    correction_enabled: bool,
    rng: np.random.Generator,
) -> int:
    """One interferometry shot; returns the y-basis outcome (+1 or -1).

    ``base`` is the prepared |1,1,0> logical state without ancilla
    activity.  Error layers fire at their scheduled slots; with correction
    enabled each layer is followed by a full round, preceded by a bank
    number measurement plus re-encoding when the layer can dephase the
    reference.  That re-encoding is exact for reference phases alone; a
    system flip landing in the same layer aliases under it, so mixed
    layers are only approximately corrected (the combined error set fails
    the exact-correctability conditions).
    """
    lay = base.layout
    state = apply_qubit_gate(base, "h", _INTERFEROMETER)
    qec_method = "projection" if state.compressed else "gadget"
    for slot in range(4):
        for layer, layer_slot in enumerate(schedule):
            if layer_slot != slot:
                continue
            state, _ = sample_phase_error_layer(state, spec, rng)
            if correction_enabled:
                if spec.include_reference or (
                    spec.targets is not None
                    and any(m >= lay.num_system_modes for m in spec.targets)
                ):
                    state = measure_reference_and_recover(state, code, rng)
                state, _ = qec_round(state, code, rng, _GADGET, qec_method)
        if slot < 3:
            block_a, block_b = EXCHANGE_PAIRS[slot]
            state = controlled_tunneling_logical(
                state, _INTERFEROMETER, code, block_a, block_b, math.pi / 2
            )
    outcome, _ = measure_qubit(state, _INTERFEROMETER, rng, basis="y")
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
    config: ExperimentConfig
    points: list[PointResult]
    elapsed_seconds: float


def _run_shot_range(config: ExperimentConfig, start: int, stop: int) -> list[int]:
    """Count -1 outcomes of shots ``start..stop-1`` at every point (one
    picklable work unit; the code and its label-map memos serve them all)."""
    code = _build_code(config)
    base = logical_basis_state(code, (1, 1, 0), compressed=True)
    schedule = _resolve_schedule(config)
    counts = []
    for point_index, p in enumerate(config.p_values):
        spec = NoiseSpec(p, include_reference=config.include_reference_errors)
        minus = 0
        for shot in range(start, stop):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, point_index, shot])
            )
            outcome = run_exchange_shot(
                base, code, spec, schedule, config.correction_enabled, rng
            )
            if outcome < 0:
                minus += 1
        counts.append(minus)
    return counts


def run_experiment(
    config: ExperimentConfig, confidence: float = 0.99, threads: int = 1
) -> ExperimentResult:
    """Run every noise point; estimate = -<Y> with an exact binomial CI.

    ``threads`` only sets how many processes share the shots, each taking a
    contiguous shot range of every point; the per-shot seeding makes the
    counts — and therefore every number in the result — identical for any
    worker count.
    """
    if config.seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    t0 = time.perf_counter()
    workers = min(threads, config.shots)
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
        lo, hi = clopper_pearson(minus, config.shots, confidence)
        points.append(
            PointResult(p, config.shots, minus, estimate, 2 * lo - 1, 2 * hi - 1)
        )
    return ExperimentResult(config, points, time.perf_counter() - t0)
