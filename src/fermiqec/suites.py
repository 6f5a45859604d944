"""Each structural claim of the paper as one check, and the ``verify`` suites.

``check_<claim>(rng, ...)`` returns the worst deviation from an exact
identity.  It takes only the rng (none if it draws nothing) and what differs
between a quick and a thorough run: trials, layout, angles, Majorana kinds,
circuit seeds, bank flips.  Where the claim also states an exact fact, the
check returns whether it held next to the deviation.  ``fermiqec verify``
runs every check small, in about a second; ``tests/test_acceptance.py`` runs
the same checks at full size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .backend import compress, decompress, random_h_circuit, run_dual
from .codes import (
    KLReport,
    RepetitionCode,
    apply_logical_C,
    apply_logical_C_dagger,
    kl_check,
    logical_basis_state,
    prepare_logical_vacuum,
    random_codespace_state,
    stabilizer_expectation,
    steane_projector_check,
)
from .gates import (
    apply_annihilation,
    apply_creation,
    apply_local_phase,
    number_expectation,
)
from .logical import (
    density_gadget_logical,
    fswap_logical,
    logical_density_exact,
    logical_phase_exact,
    phase_gadget_logical,
    quarter_turn_tunneling_gadget,
    tunneling_logical,
)
from .qec import (
    SYNDROME_TABLE,
    generate_syndrome_table,
    measure_reference_and_recover,
    measure_stabilizer,
    qec_round,
)
from .reference import (
    apply_c,
    apply_c_dagger,
    apply_D_decomposed,
    apply_D_exact,
    apply_R,
    apply_R_dagger,
    random_h_state,
)
from .registers import RegisterLayout
from .states import add_states, difference_norm, random_full_state

__all__ = [
    "CheckResult",
    "SUITES",
    "check_bank_recovery",
    "check_decomposed_rotation",
    "check_dephasing_correctability",
    "check_dressed_anticommutators",
    "check_dressed_bilinears",
    "check_dual_backends",
    "check_edge_commutator",
    "check_edge_site_anticommutation",
    "check_fswap_conjugation",
    "check_gadget_oracles",
    "check_loss_channel",
    "check_repetition_code",
    "check_single_flip_recovery",
    "check_stabilizer_readout",
    "run_suites",
]

SQUARE = RegisterLayout(3, 3, 3)  # M_s = N = M_r
Rng = np.random.Generator


def check_dressed_anticommutators(rng: Rng, trials: int) -> float:
    """``{c_i, c_j^dagger} = delta_ij`` on random consistent states."""
    worst = 0.0
    for _ in range(trials):
        psi = random_h_state(SQUARE, rng)
        for i in range(3):
            for j in range(3):
                acc = add_states(
                    apply_c_dagger(apply_c(psi, j), i),
                    apply_c(apply_c_dagger(psi, i), j),
                )
                if i == j:
                    acc = add_states(acc, psi, 1.0, -1.0)
                worst = max(worst, acc.norm())
    return worst


def check_edge_commutator(rng: Rng, layout: RegisterLayout, trials: int) -> float:
    """``[R, R^dagger] = 0`` on random consistent states of ``layout``."""
    worst = 0.0
    for _ in range(trials):
        psi = random_h_state(layout, rng)
        comm = add_states(
            apply_R(apply_R_dagger(psi)), apply_R_dagger(apply_R(psi)), 1.0, -1.0
        )
        worst = max(worst, comm.norm())
    return worst


def check_edge_site_anticommutation(rng: Rng, trials: int) -> float:
    """``R`` anticommutes with every site annihilator and creator, on random
    states over all occupation patterns."""
    worst = 0.0
    for _ in range(trials):
        psi = random_full_state(SQUARE, rng)
        for i in range(3):
            for site in (apply_annihilation, apply_creation):
                anti = add_states(apply_R(site(psi, i)), site(apply_R(psi), i))
                worst = max(worst, anti.norm())
    return worst


def check_dressed_bilinears(rng: Rng, trials: int) -> float:
    """``c_i^dagger c_j`` equals the site bilinear ``a_i^dagger a_j``."""
    worst = 0.0
    for _ in range(trials):
        psi = random_h_state(SQUARE, rng)
        for i in range(3):
            for j in range(3):
                dressed = apply_c_dagger(apply_c(psi, j), i)
                site = apply_creation(apply_annihilation(psi, j), i)
                worst = max(worst, difference_norm(dressed, site))
    return worst


def check_decomposed_rotation(
    rng: Rng, trials: int, thetas: Iterable[float], kinds: Sequence[str]
) -> float:
    """The gate sequence for ``exp(i theta x_mode)`` (``kind`` x or y) equals
    the exact rotation, for every mode and angle."""
    worst = 0.0
    for _ in range(trials):
        psi = random_h_state(SQUARE, rng)
        for mode in range(3):
            for theta in thetas:
                for kind in kinds:
                    exact = apply_D_exact(psi, mode, theta, kind)
                    decomposed = apply_D_decomposed(psi, mode, theta, kind)
                    worst = max(worst, difference_norm(exact, decomposed))
    return worst


def check_repetition_code(rng: Rng, trials: int) -> tuple[float, float, float, float]:
    """On one, two and three blocks, the worst deviation of: each stabilizer
    from +1 and each mode occupation from 1/2 on every codeword; each logical
    lowering operator on the logical vacuum from zero; ``{C_b, C_b^dagger}``
    from 1 on random code-space states."""
    stabilizers = filling = vacuum = anticommutator = 0.0
    for m in (3, 6, 9):
        code = RepetitionCode(RegisterLayout(m, m, m))
        for word in code.codespace_states():
            for b in range(code.num_blocks):
                for which in ("s12", "s23"):
                    dev = abs(stabilizer_expectation(word, code, b, which) - 1.0)
                    stabilizers = max(stabilizers, dev)
            for mode in range(m):
                filling = max(filling, abs(number_expectation(word, mode) - 0.5))
        vac = prepare_logical_vacuum(code)
        for b in range(code.num_blocks):
            vacuum = max(vacuum, apply_logical_C(vac, code, b).norm())
        for _ in range(trials):
            psi = random_codespace_state(code, rng)
            for b in range(code.num_blocks):
                acc = add_states(
                    apply_logical_C(apply_logical_C_dagger(psi, code, b), code, b),
                    apply_logical_C_dagger(apply_logical_C(psi, code, b), code, b),
                )
                dev = add_states(acc, psi, 1.0, -1.0).norm()
                anticommutator = max(anticommutator, dev)
    return stabilizers, filling, vacuum, anticommutator


def check_dephasing_correctability() -> KLReport:
    """Knill-Laflamme matrix of no error and the single-mode pi phases on the
    one-block code; its two violations are the deviations."""
    errors = [lambda s: s] + [
        (lambda s, m=m: apply_local_phase(s, m, math.pi)) for m in range(3)
    ]
    words = RepetitionCode(SQUARE).codespace_states()
    return kl_check(words, errors)


def check_loss_channel() -> tuple[float, float]:
    """Seven-mode loss channel at p = 0.01: the worst entry of each
    annihilation Kraus block minus (p/2) x identity on the code space, and
    the worst cross term with one, which must both vanish."""
    p = 0.01
    matrix = steane_projector_check(p).matrix
    eye = np.eye(matrix.shape[1])
    ladder = range(1, 8)
    diagonal = max(np.max(np.abs(matrix[a, :, a, :] - (p / 2) * eye)) for a in ladder)
    cross = max(
        np.max(np.abs(matrix[a, :, b, :]))
        for a in ladder
        for b in range(matrix.shape[0])
        if b != a
    )
    return float(diagonal), float(cross)


def check_single_flip_recovery(rng: Rng, trials: int) -> tuple[float, bool]:
    """One QEC round undoes a pi phase on any one system mode: the worst
    infidelity, and whether exactly one block saw each flip."""
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=1))
    worst = 0.0
    one_block_each = True
    for _ in range(trials):
        psi = random_codespace_state(code, rng)
        for mode in range(6):
            flipped = apply_local_phase(psi, mode, math.pi)
            recovered, syndromes = qec_round(flipped, code, rng)
            worst = max(worst, 1.0 - recovered.fidelity(psi))
            hit = [s for s in syndromes if s != (1, 1)]
            one_block_each = one_block_each and len(hit) == 1
    return worst, one_block_each


def check_bank_recovery(
    rng: Rng, trials: int, flips: Callable[[Rng], Iterable[int]]
) -> float:
    """Reading the bank undoes pi phases on the bank modes ``flips`` draws.

    The states are random superpositions of one logical atom shared between
    two blocks (superselection keeps the physical state at a fixed logical
    number).  Returns the worst infidelity.
    """
    code = RepetitionCode(RegisterLayout(6, 5, 5))
    words = [logical_basis_state(code, bits) for bits in ((0, 1), (1, 0))]
    worst = 0.0
    for _ in range(trials):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        psi = add_states(words[0], words[1], complex(amps[0]), complex(amps[1]))
        noisy = psi
        for j in flips(rng):
            noisy = apply_local_phase(noisy, psi.layout.reference_mode(j), math.pi)
        recovered = measure_reference_and_recover(noisy, code, rng)
        worst = max(worst, 1.0 - recovered.fidelity(psi))
    return worst


def check_stabilizer_readout(rng: Rng, trials: int, seed: int) -> tuple[float, bool]:
    """The physical readout gadget and the compressed ``(1+S)/2`` projection,
    fed the same rng stream, leave the same state: the worst deviation, and
    whether every outcome agreed.  Trials after the first carry a pi phase
    on one mode, so that the -1 branches are exercised too."""
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=2))
    worst = 0.0
    agree = True
    for trial in range(trials):
        psi = random_codespace_state(code, rng, compressed=True)
        if trial:
            psi = apply_local_phase(psi, trial, math.pi)
        for b in range(code.num_blocks):
            for which in ("s12", "s23"):
                rng_g = np.random.default_rng(seed)
                rng_p = np.random.default_rng(seed)
                og, sg = measure_stabilizer(decompress(psi), code, b, which, rng_g)
                op, sp = measure_stabilizer(psi, code, b, which, rng_p)
                agree = agree and og == op
                worst = max(worst, difference_norm(compress(sg), sp))
    return worst, agree


def check_gadget_oracles(
    rng: Rng, trials: int, thetas: Iterable[float]
) -> tuple[float, float, float]:
    """The worst deviation of the phase gadget, the density gadget and the
    quarter-turn hardware tunneling from their exact logical unitaries, all
    three on the same random states."""
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=2))
    worst_phase = 0.0
    worst_density = 0.0
    worst_tunnel = 0.0
    for _ in range(trials):
        psi = random_codespace_state(code, rng, compressed=True)
        for theta in thetas:
            for b in range(2):
                gadget = phase_gadget_logical(psi, code, b, theta)
                exact = logical_phase_exact(psi, code, b, theta)
                worst_phase = max(worst_phase, difference_norm(gadget, exact))
            gadget = density_gadget_logical(psi, code, 0, 1, theta)
            exact = logical_density_exact(psi, code, 0, 1, theta)
            worst_density = max(worst_density, difference_norm(gadget, exact))
        hardware = quarter_turn_tunneling_gadget(psi, code, 0, 1)
        exact = tunneling_logical(psi, code, 0, 1, math.pi / 2)
        worst_tunnel = max(worst_tunnel, difference_norm(hardware, exact))
    return worst_phase, worst_density, worst_tunnel


def check_fswap_conjugation(rng: Rng, trials: int) -> float:
    """Conjugation by the block swap relabels the logical ladder operators."""
    code = RepetitionCode(RegisterLayout(6, 6, 6))
    worst = 0.0
    for _ in range(trials):
        psi = random_codespace_state(code, rng)
        for op in (apply_logical_C, apply_logical_C_dagger):
            conjugated = fswap_logical(
                op(fswap_logical(psi, code, 0, 1), code, 0), code, 0, 1
            )
            worst = max(worst, difference_norm(conjugated, op(psi, code, 1)))
    return worst


def check_dual_backends(
    rng: Rng, seeds: Iterable[int], length: int
) -> tuple[float, bool]:
    """Physical and compressed runs of one random circuit per seed: the worst
    final-state deviation, and whether every readout outcome matched."""
    lay = RegisterLayout(3, 4, 4, num_ancilla_qubits=2)
    code = RepetitionCode(lay)
    worst = 0.0
    matched = True
    for seed in seeds:
        ops = random_h_circuit(lay, rng, length=length)
        report = run_dual(random_h_state(lay, rng), ops, seed, code)
        worst = max(worst, report.deviation)
        matched = matched and report.outcomes_match
    return worst, matched


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _deviation_check(
    name: str, worst: float, tol: float = 1e-12, fact: str = "", holds: bool = True
) -> CheckResult:
    """Passes when ``worst <= tol`` and the claim's exact ``fact``, if any,
    ``holds``."""
    detail = f"max deviation {worst:.3e} (tol {tol:.0e})"
    if fact:
        detail = f"{fact} {'holds' if holds else 'FAILS'}, {detail}"
    return CheckResult(name, holds and worst <= tol, detail)


def _deviation_checks(worst: dict[str, float]) -> list[CheckResult]:
    return [_deviation_check(name, w) for name, w in worst.items()]


def suite_reference(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    tall = RegisterLayout(3, 5, 4)  # the commutator needs M_s < N < M_r
    worst = {
        "dressed anticommutators": check_dressed_anticommutators(rng, 5),
        "edge operator commutator": check_edge_commutator(rng, tall, 5),
        "edge/site anticommutation": check_edge_site_anticommutation(rng, 5),
        "dressed bilinears": check_dressed_bilinears(rng, 5),
    }
    return _deviation_checks(worst)


def suite_rotations(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = check_decomposed_rotation(rng, 3, (0.3, -1.1, 2.0), ("x", "y"))
    return [_deviation_check("decomposed Majorana rotation", worst, 1e-10)]


def suite_codes(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    stabilizers, filling, vacuum, anticommutator = check_repetition_code(rng, 2)
    worst = {
        "stabilizers fix codewords": stabilizers,
        "codewords at half filling": filling,
        "lowering kills logical vacuum": vacuum,
        "logical ladder anticommutator": anticommutator,
    }
    matches = generate_syndrome_table() == SYNDROME_TABLE
    table = f"brute-force map {'matches' if matches else 'differs from'} stored table"
    kl = check_dephasing_correctability()
    kl_worst = max(kl.max_offdiagonal_violation, kl.max_codeword_dependence)
    return _deviation_checks(worst) + [
        CheckResult("syndrome table", matches, table),
        _deviation_check("dephasing correctability", kl_worst),
    ]


def suite_gadgets(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    phase, density, tunnel = check_gadget_oracles(rng, 3, (0.7, -2.1))
    worst = {
        "phase gadget": phase,
        "density gadget": density,
        "hardware tunneling": tunnel,
        "fswap conjugation": check_fswap_conjugation(rng, 3),
    }
    readout, agree = check_stabilizer_readout(rng, 3, seed + 17)
    return _deviation_checks(worst) + [
        _deviation_check("stabilizer readout", readout, 1e-12, "outcome match", agree)
    ]


def suite_dual(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst, matched = check_dual_backends(rng, (seed, seed + 1), length=30)
    name = "dual-representation run"
    return [_deviation_check(name, worst, 1e-10, "outcome match", matched)]


def suite_steane(seed: int) -> list[CheckResult]:
    diagonal, cross = check_loss_channel()
    worst = {"loss ladder weights": diagonal, "loss cross terms": cross}
    return _deviation_checks(worst)


def _any_bank_modes(rng: Rng) -> list[int]:
    """Each of the five bank modes flips with probability 1/2."""
    return [j for j in range(5) if rng.random() < 0.5]


def suite_recovery(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    flip, one_block = check_single_flip_recovery(rng, 2)
    bank = check_bank_recovery(rng, 3, _any_bank_modes)
    fact = "one block per flip"
    return [
        _deviation_check("single-flip correction", flip, 1e-12, fact, one_block),
        _deviation_check("bank dephasing recovery", bank),
    ]


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "reference": suite_reference,
    "rotations": suite_rotations,
    "codes": suite_codes,
    "steane": suite_steane,
    "gadgets": suite_gadgets,
    "dual": suite_dual,
    "recovery": suite_recovery,
}


def run_suites(names: list[str], seed: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(
            CheckResult(f"{name}: {r.name}", r.passed, r.detail)
            for r in SUITES[name](seed)
        )
    return results
