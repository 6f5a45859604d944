"""Sparse state vectors over occupation-number labels.

A state is a dict from int basis labels (see :mod:`fermiqec.registers`) to
complex amplitudes.  Exact states in this simulator have few nonzero
amplitudes, so a dict beats a dense vector by orders of magnitude.

Every gate in the package acts on one basis label at a time: a label goes
to at most one other label with a phase (swaps, phases, stabilizers), or to
a sum of two such terms (tunneling, Hadamard, projectors).  :func:`apply_map`
is the one kernel for all of them; a gate only supplies ``image(label)``,
the ``(label, coefficient)`` pairs that label is sent to.

All operations in this package are functional: they return new states and
never mutate their inputs.  Amplitudes below ``PRUNE_EPS`` are dropped on
construction; norms and probabilities are accumulated with ``math.fsum`` so
they do not depend on dict iteration order (this is what makes the two
backends agree bit-for-bit on measurement draws).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .registers import RegisterLayout

__all__ = [
    "PRUNE_EPS",
    "SparseState",
    "basis_state",
    "zero_state",
    "add_states",
    "scale_state",
    "difference_norm",
    "random_full_state",
    "phase_factor",
    "apply_map",
]

PRUNE_EPS = 1e-14


def _pruned(entries: dict[int, complex]) -> dict[int, complex]:
    return {l: a for l, a in entries.items() if abs(a) >= PRUNE_EPS}


@dataclass
class SparseState:
    """Sparse complex vector over basis labels.

    ``compressed`` marks the reference-free representation where labels
    carry system bits plus ancilla bits only (reference occupations are
    implied by the system count; see :mod:`fermiqec.backend`).
    """

    layout: RegisterLayout
    entries: dict[int, complex] = field(default_factory=dict)
    compressed: bool = False

    def copy(self) -> "SparseState":
        return SparseState(self.layout, dict(self.entries), self.compressed)

    def with_entries(self, entries: dict[int, complex]) -> "SparseState":
        """New state with the same layout/representation, pruned."""
        return SparseState(self.layout, _pruned(entries), self.compressed)

    # -- norms and overlaps ------------------------------------------------

    def norm_sq(self) -> float:
        return math.fsum(
            [a.real * a.real + a.imag * a.imag for a in self.entries.values()]
        )

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n < PRUNE_EPS:
            raise ValueError("cannot normalize a (numerically) zero state")
        inv = 1.0 / n
        return self.with_entries({l: a * inv for l, a in self.entries.items()})

    def inner(self, other: "SparseState") -> complex:
        """<self|other>; both states must share layout and representation."""
        self._check_compatible(other)
        small, big = self.entries, other.entries
        conj_small = True
        if len(big) < len(small):
            small, big = big, small
            conj_small = False
        re: list[float] = []
        im: list[float] = []
        for l, a in small.items():
            b = big.get(l)
            if b is None:
                continue
            t = a.conjugate() * b if conj_small else b.conjugate() * a
            re.append(t.real)
            im.append(t.imag)
        return complex(math.fsum(re), math.fsum(im))

    def fidelity(self, other: "SparseState") -> float:
        """|<self|other>|^2 for normalized states (global phase dropped)."""
        return abs(self.inner(other)) ** 2

    def _check_compatible(self, other: "SparseState") -> None:
        if self.layout != other.layout or self.compressed != other.compressed:
            raise ValueError("states live on different registers/representations")

    def is_zero(self) -> bool:
        return not self.entries


def basis_state(
    layout: RegisterLayout, label: int, compressed: bool = False
) -> SparseState:
    return SparseState(layout, {label: 1.0 + 0.0j}, compressed)


def zero_state(layout: RegisterLayout, compressed: bool = False) -> SparseState:
    """The zero vector (legal output of non-unitary linear maps)."""
    return SparseState(layout, {}, compressed)


def add_states(
    a: SparseState,
    b: SparseState,
    ca: complex = 1.0,
    cb: complex = 1.0,
) -> SparseState:
    """ca*a + cb*b as a new (pruned, generally unnormalized) state."""
    a._check_compatible(b)
    out = {l: ca * amp for l, amp in a.entries.items()}
    for l, amp in b.entries.items():
        out[l] = out.get(l, 0.0) + cb * amp
    return a.with_entries(out)


def apply_map(
    state: SparseState,
    image: Callable[[int], Iterable[tuple[int, complex]]],
) -> SparseState:
    """The linear map sending each basis label ``l`` to ``sum(c * |t>)``
    over the pairs ``(t, c)`` of ``image(l)``.

    An empty image annihilates the label, one pair is a monomial (or
    diagonal) map, two pairs a sum of two.  Output amplitudes accumulate in
    the order of the input entries and of each image's pairs; the result is
    pruned like any other state.
    """
    out: dict[int, complex] = {}
    get = out.get
    for l, a in state.entries.items():
        for t, c in image(l):
            out[t] = get(t, 0j) + c * a
    return state.with_entries(out)


def scale_state(a: SparseState, c: complex) -> SparseState:
    return a.with_entries({l: c * amp for l, amp in a.entries.items()})


def difference_norm(a: SparseState, b: SparseState) -> float:
    """2-norm of (a - b); the deviation measure used by equivalence checks."""
    a._check_compatible(b)
    terms = []
    for l in a.entries.keys() | b.entries.keys():
        d = a.entries.get(l, 0.0) - b.entries.get(l, 0.0)
        terms.append(d.real * d.real + d.imag * d.imag)
    return math.sqrt(math.fsum(terms))


def random_full_state(layout: RegisterLayout, rng: np.random.Generator) -> SparseState:
    """Random normalized state over every fermionic occupation pattern.

    Spans all ``2**(M_s+M_r)`` fermion configurations (any atom number);
    ancilla bits stay |0>.
    """
    dim = 1 << layout.num_fermion_modes
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    entries = {label: complex(amps[label]) for label in range(dim)}
    return SparseState(layout, _pruned(entries), False)


def phase_factor(theta: float) -> complex:
    """e^{i theta}, exact at multiples of pi/2 so parity phases stay crisp."""
    half_pi = theta / (math.pi / 2)
    r = round(half_pi)
    if abs(half_pi - r) < 1e-15:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[r % 4]
    return cmath.exp(1j * theta)
