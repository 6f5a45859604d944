"""Quick self-check suites behind the ``verify`` CLI command.

These are smoke tests: a few random states per identity rather than the
hundreds the test-suite runs, so the whole battery finishes in seconds.
Each check returns a :class:`CheckResult`; a suite is a list of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backend import compress, decompress, random_h_circuit, run_dual
from .codes import (
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
    logical_density_exact,
    logical_phase_exact,
    phase_gadget_logical,
    tunneling_logical,
)
from .qec import (
    SYNDROME_TABLE,
    generate_syndrome_table,
    measure_reference_and_recover,
    measure_stabilizer,
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

__all__ = ["CheckResult", "SUITES", "run_suites"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _deviation_check(name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(name, worst <= tol, f"max deviation {worst:.3e} (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_reference(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    lay = RegisterLayout(3, 3, 3)
    out: list[CheckResult] = []

    worst = 0.0
    for _ in range(5):
        psi = random_h_state(lay, rng)
        for i in range(3):
            for j in range(3):
                acc = add_states(
                    apply_c_dagger(apply_c(psi, j), i),
                    apply_c(apply_c_dagger(psi, i), j),
                )
                if i == j:
                    acc = add_states(acc, psi, 1.0, -1.0)
                worst = max(worst, acc.norm())
    out.append(_deviation_check("dressed anticommutators", worst, 1e-12))

    tall = RegisterLayout(3, 5, 4)
    worst = 0.0
    for _ in range(5):
        psi = random_h_state(tall, rng)
        comm = add_states(
            apply_R(apply_R_dagger(psi)), apply_R_dagger(apply_R(psi)), 1.0, -1.0
        )
        worst = max(worst, comm.norm())
    out.append(_deviation_check("edge operator commutator", worst, 1e-12))

    worst = 0.0
    for _ in range(5):
        psi = random_full_state(lay, rng)
        for i in range(3):
            for site in (apply_annihilation, apply_creation):
                anti = add_states(apply_R(site(psi, i)), site(apply_R(psi), i))
                worst = max(worst, anti.norm())
    out.append(_deviation_check("edge/site anticommutation", worst, 1e-12))
    return out


def suite_rotations(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    lay = RegisterLayout(3, 3, 3)
    worst = 0.0
    for _ in range(3):
        psi = random_h_state(lay, rng)
        for mode in range(3):
            for theta in (0.3, -1.1, 2.0):
                for kind in ("x", "y"):
                    worst = max(
                        worst,
                        difference_norm(
                            apply_D_exact(psi, mode, theta, kind),
                            apply_D_decomposed(psi, mode, theta, kind),
                        ),
                    )
    return [_deviation_check("decomposed Majorana rotation", worst, 1e-10)]


def suite_codes(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    worst_stab = 0.0
    worst_fill = 0.0
    for num_blocks in (1, 2):
        m = 3 * num_blocks
        code = RepetitionCode(RegisterLayout(m, m, m))
        for word in code.codespace_states():
            for b in range(num_blocks):
                for which in ("s12", "s23"):
                    worst_stab = max(
                        worst_stab,
                        abs(stabilizer_expectation(word, code, b, which) - 1.0),
                    )
            for mode in range(m):
                worst_fill = max(worst_fill, abs(number_expectation(word, mode) - 0.5))
    out.append(_deviation_check("stabilizers fix codewords", worst_stab, 1e-12))
    out.append(_deviation_check("codewords at half filling", worst_fill, 1e-12))

    code = RepetitionCode(RegisterLayout(6, 6, 6))
    vac = prepare_logical_vacuum(code)
    worst = max(apply_logical_C(vac, code, b).norm() for b in range(2))
    out.append(_deviation_check("lowering kills logical vacuum", worst, 1e-12))

    worst = 0.0
    for _ in range(3):
        psi = random_codespace_state(code, rng)
        for b in range(2):
            acc = add_states(
                apply_logical_C(apply_logical_C_dagger(psi, code, b), code, b),
                apply_logical_C_dagger(apply_logical_C(psi, code, b), code, b),
            )
            worst = max(worst, add_states(acc, psi, 1.0, -1.0).norm())
    out.append(_deviation_check("logical ladder anticommutator", worst, 1e-12))

    matches = generate_syndrome_table() == SYNDROME_TABLE
    out.append(
        CheckResult(
            "syndrome table", matches, "brute-force map matches the stored table"
        )
    )

    code1 = RepetitionCode(RegisterLayout(3, 3, 3))
    errors = [lambda s: s.copy()] + [
        (lambda s, m=m: apply_local_phase(s, m, math.pi)) for m in range(3)
    ]
    report = kl_check(code1.codespace_states(), errors)
    out.append(
        CheckResult(
            "dephasing correctability",
            report.passed,
            f"off-diagonal {report.max_offdiagonal_violation:.3e}, "
            f"codeword dependence {report.max_codeword_dependence:.3e}",
        )
    )
    return out


def suite_gadgets(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    code = RepetitionCode(RegisterLayout(6, 6, 6, num_ancilla_qubits=2))
    out: list[CheckResult] = []

    worst_phase = 0.0
    worst_density = 0.0
    worst_tunnel = 0.0
    for _ in range(3):
        psi = random_codespace_state(code, rng, compressed=True)
        for theta in (0.7, -2.1):
            for b in range(2):
                worst_phase = max(
                    worst_phase,
                    difference_norm(
                        phase_gadget_logical(psi, code, b, theta),
                        logical_phase_exact(psi, code, b, theta),
                    ),
                )
            worst_density = max(
                worst_density,
                difference_norm(
                    density_gadget_logical(psi, code, 0, 1, theta),
                    logical_density_exact(psi, code, 0, 1, theta),
                ),
            )
        worst_tunnel = max(
            worst_tunnel,
            difference_norm(
                tunneling_logical(psi, code, 0, 1, math.pi / 2, method="hardware"),
                tunneling_logical(psi, code, 0, 1, math.pi / 2, method="exact"),
            ),
        )
    out.append(_deviation_check("phase gadget", worst_phase, 1e-12))
    out.append(_deviation_check("density gadget", worst_density, 1e-12))
    out.append(_deviation_check("hardware tunneling", worst_tunnel, 1e-12))

    worst = 0.0
    agree = True
    for trial in range(3):
        psi = random_codespace_state(code, rng, compressed=True)
        if trial:  # inject an error so the -1 branches get exercised too
            psi = apply_local_phase(psi, trial, math.pi)
        for b in range(2):
            for which in ("s12", "s23"):
                rng_g = np.random.default_rng(seed + 17)
                rng_p = np.random.default_rng(seed + 17)
                og, sg = measure_stabilizer(decompress(psi), code, b, which, rng_g)
                op, sp = measure_stabilizer(psi, code, b, which, rng_p)
                agree = agree and og == op
                worst = max(worst, difference_norm(compress(sg), sp))
    out.append(
        CheckResult(
            "stabilizer readout",
            agree and worst <= 1e-12,
            "physical gadget vs compressed projection: "
            f"outcomes {'match' if agree else 'differ'}, state deviation {worst:.3e}",
        )
    )
    return out


def suite_dual(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    lay = RegisterLayout(3, 4, 4, num_ancilla_qubits=2)
    code = RepetitionCode(lay)
    worst = 0.0
    matched = True
    for k in range(2):
        ops = random_h_circuit(lay, rng, length=30)
        report = run_dual(random_h_state(lay, rng), ops, seed + k, code)
        worst = max(worst, report.deviation)
        matched = matched and report.outcomes_match
    return [
        CheckResult(
            "dual-representation run",
            matched and worst <= 1e-10,
            f"outcomes {'match' if matched else 'differ'}, deviation {worst:.3e}",
        )
    ]


def suite_steane(seed: int) -> list[CheckResult]:
    report = steane_projector_check(0.01)
    ladder_dev = float(np.max(np.abs(report.ladder_weights - 0.005)))
    ladder = ", ".join(f"{w:.4f}" for w in report.ladder_weights)
    return [
        CheckResult(
            "loss ladder weights",
            ladder_dev <= 1e-12,
            f"diagonal coefficients [{ladder}], want p/2 = 0.005",
        ),
        _deviation_check("loss cross terms", report.max_ladder_cross, 1e-12),
    ]


def suite_recovery(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    code = RepetitionCode(RegisterLayout(6, 5, 5))
    # one logical atom shared between two blocks (superselection keeps the
    # physical state at a fixed logical number)
    words = [logical_basis_state(code, bits) for bits in ((0, 1), (1, 0))]
    worst = 0.0
    for _ in range(3):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        psi = add_states(words[0], words[1], complex(amps[0]), complex(amps[1]))
        noisy = psi
        for j in range(5):
            if rng.random() < 0.5:
                noisy = apply_local_phase(
                    noisy, psi.layout.reference_mode(j), math.pi
                )
        recovered = measure_reference_and_recover(noisy, code, rng)
        worst = max(worst, 1.0 - recovered.fidelity(psi))
    return [_deviation_check("bank dephasing recovery", worst, 1e-12)]


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
