"""Fermionic stabilizer codes.

Two constructions live here:

* a three-mode repetition code against single-mode phase errors, tiled over
  the system register in blocks of three, with stabilizers ``i x1 x2`` and
  ``i y2 y3`` and logical raising/lowering operators built from the dressed
  ladder operators, and

* a seven-mode CSS code whose code space is extracted by projector plus
  Gram-Schmidt and which is used to analyse atom-loss Kraus channels through
  the Knill-Laflamme matrix.

All constructions go through :func:`fermiqec.reference.apply_c` and friends,
so they work identically on physical and compressed states.  Maps that the
shots apply over and over (stabilizers, the transversal swap, the logical
tunnelings built on it) are :class:`LabelMap` memos owned by the code: each
label's image is derived once and then looked up.  The stabilizer and swap
images compose the label images that the gates themselves hand to
:func:`fermiqec.states.apply_map` (the dressed ladders' and the mode
fswaps'), so deriving one builds no state.  A code holds everything it
derives in one cache, :meth:`RepetitionCode.cached`, under a key that
names all the entry depends on, so no entry is ever replaced.

The code space is the stabilizers' +1 eigenspace: the logical vacuum is
the empty register under every stabilizer's projection ``(1 + s)/2``.  A
code caches, once per representation, the :func:`logical_basis_state` of
each pattern the register can hold, and a table from each label to the
words that hold it and their conjugated amplitudes.
:func:`project_codespace` reads each amplitude of a state once against
that table and sums each overlap with ``math.fsum``; the products and the
exact sums are those of one :meth:`SparseState.inner` per word, so the
projection is the same bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from .gates import apply_annihilation, fswap_image
from .reference import (
    apply_c,
    apply_c_dagger,
    apply_majorana,
    compressed_ladder_image,
    h_basis_state,
)
from .registers import RegisterLayout
from .states import SparseState, add_states, apply_map, basis_state, scale_state

__all__ = [
    "LabelMap",
    "RepetitionCode",
    "apply_stabilizer",
    "stabilizer_majoranas",
    "stabilizer_expectation",
    "prepare_logical_vacuum",
    "apply_logical_C",
    "apply_logical_C_dagger",
    "logical_basis_state",
    "block_parity",
    "random_codespace_state",
    "project_codespace",
    "SteaneCode",
    "apply_loss_kraus",
    "KL_ATOL",
    "KLReport",
    "kl_check",
    "steane_projector_check",
]

_T = TypeVar("_T")


class LabelMap(dict):
    """Memoized ``image`` for :func:`fermiqec.states.apply_map`.

    The map acts on the bits under ``mask`` only: ``derive(part)`` gives the
    image of ``part = label & mask`` and every other bit of the label passes
    through.  ``derive`` runs once per part and works on the label alone:
    the code's maps compose the gates' own label images, or other maps'
    parts, and build no state.  The image of each full label is then
    cached, so applying the map costs one dict lookup per label.
    """

    __call__ = dict.__getitem__

    def __init__(
        self, mask: int, derive: Callable[[int], tuple[tuple[int, complex], ...]]
    ):
        super().__init__()
        self.mask = mask
        self.part = functools.cache(derive)

    def __missing__(self, label: int) -> tuple[tuple[int, complex], ...]:
        part = label & self.mask
        rest = label ^ part
        image = self.part(part)
        if rest:
            image = tuple((t | rest, c) for t, c in image)
        self[label] = image
        return image


class RepetitionCode:
    """Three-mode repetition blocks over the system register.

    Block ``b`` occupies modes ``3b, 3b+1, 3b+2``.  Its code space is the
    span of the two-atom "empty" word and the odd-parity "occupied" word;
    the logical occupation is simply the block parity.
    """

    def __init__(self, layout: RegisterLayout):
        if layout.num_system_modes % 3:
            raise ValueError("system register must tile into three-mode blocks")
        self.layout = layout
        self.num_blocks = layout.num_system_modes // 3
        self._cache: dict[Hashable, object] = {}

    def block_modes(self, block: int) -> tuple[int, int, int]:
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} outside register")
        base = 3 * block
        return (base, base + 1, base + 2)

    def block_mask(self, block: int) -> int:
        return 0b111 << self.block_modes(block)[0]

    def cached(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The entry stored under ``key``; ``build()`` makes it on the first
        request.  A key names everything its entry depends on, so every
        entry is a pure function of its key and is never replaced."""
        entry = self._cache.get(key)
        if entry is None:
            entry = self._cache[key] = build()
        return entry

    def compiled_stabilizer(self, which: str, block: int) -> LabelMap:
        """A stabilizer as a label map on compressed labels.

        A stabilizer sends every occupation label to at most one label with
        a phase.  A system label's image composes the label images of the
        dressed ladders (:func:`fermiqec.reference.compressed_ladder_image`)
        that its two Majoranas fire, higher mode first; ancilla bits pass
        through.  Labels whose system count cannot occur in a valid
        compressed state are annihilated.
        """

        def build() -> LabelMap:
            lay = self.layout
            hi, lo, kind = stabilizer_majoranas(self, block, which)
            ladders = {
                (mode, create): compressed_ladder_image(lay, mode, create)
                for mode in (hi, lo)
                for create in (False, True)
            }

            def derive(sys: int) -> tuple[tuple[int, complex], ...]:
                if not lay.holds(sys.bit_count()):
                    return ()
                coef = 1.0 + 0.0j
                for mode in (hi, lo):
                    # a Majorana on one label is the one ladder that fires
                    create = not sys >> mode & 1
                    image = ladders[mode, create](sys)
                    if not image:
                        return ()
                    ((sys, sign),) = image
                    coef = sign * coef
                    if kind == "y":
                        coef = (1j if create else -1j) * coef
                return ((sys, 1j * coef),)

            return LabelMap(lay.system_mask, derive)

        return self.cached(("stabilizer", which, block), build)

    def compiled_fswap(self, block_a: int, block_b: int) -> LabelMap:
        """The transversal block fswap as a label map on system bits.

        A system label's image chains the label images of the three mode
        pairs' fswaps (:func:`fermiqec.gates.fswap_image`).  Its signs only
        count system modes, so the map serves both representations:
        reference and ancilla bits pass through.
        """

        def build() -> LabelMap:
            swaps = [
                fswap_image(ma, mb)
                for ma, mb in zip(self.block_modes(block_a), self.block_modes(block_b))
            ]

            def derive(sys: int) -> tuple[tuple[int, complex], ...]:
                coef = 1.0
                for swap in swaps:
                    ((sys, sign),) = swap(sys)
                    coef *= sign
                return ((sys, complex(coef)),)

            return LabelMap(self.layout.system_mask, derive)

        return self.cached(("fswap", block_a, block_b), build)

    def codespace_states(self, compressed: bool = False) -> list[SparseState]:
        """Orthonormal logical basis states the register can hold: the
        :func:`logical_basis_state` of each pattern that fits, patterns in
        ``itertools.product`` order."""

        def build() -> list[SparseState]:
            spare = self.layout.total_atoms - 2 * self.num_blocks
            return [
                logical_basis_state(self, bits, compressed)
                for bits in itertools.product((0, 1), repeat=self.num_blocks)
                if sum(bits) <= spare
            ]

        return list(self.cached(("words", compressed), build))

    def codespace_table(
        self, compressed: bool
    ) -> dict[int, tuple[tuple[int, complex], ...]]:
        """Label -> ``(index, conj(amplitude))`` of each codeword of
        :meth:`codespace_states` holding it, in word order: the terms of
        every overlap ``<w|psi>`` that one amplitude of ``psi`` enters."""

        def build() -> dict[int, tuple[tuple[int, complex], ...]]:
            table: dict[int, tuple[tuple[int, complex], ...]] = {}
            for i, word in enumerate(self.codespace_states(compressed)):
                for l, a in word.entries.items():
                    table[l] = (*table.get(l, ()), (i, a.conjugate()))
            return table

        return self.cached(("table", compressed), build)


def stabilizer_majoranas(
    code: RepetitionCode, block: int, which: str
) -> tuple[int, int, str]:
    """``(hi, lo, kind)`` of a block stabilizer ``i k_hi k_lo``, whose
    Majoranas act higher mode first: ``s12`` is i x1 x2, ``s23`` is i y2 y3."""
    m1, m2, m3 = code.block_modes(block)
    if which == "s12":
        return m2, m1, "x"
    if which == "s23":
        return m3, m2, "y"
    raise ValueError(f"unknown stabilizer {which!r}")


def apply_stabilizer(
    state: SparseState, code: RepetitionCode, block: int, which: str
) -> SparseState:
    """One block stabilizer: ``s12`` is i x1 x2, ``s23`` is i y2 y3."""
    hi, lo, kind = stabilizer_majoranas(code, block, which)
    return scale_state(apply_majorana(apply_majorana(state, hi, kind), lo, kind), 1j)


def stabilizer_expectation(
    state: SparseState, code: RepetitionCode, block: int, which: str
) -> float:
    """<S> on a (not necessarily normalized) state; real by hermiticity."""
    val = state.inner(apply_stabilizer(state, code, block, which))
    return val.real / state.norm_sq()


# ---------------------------------------------------------------------------
# logical states
# ---------------------------------------------------------------------------


def prepare_logical_vacuum(code: RepetitionCode, compressed: bool = False) -> SparseState:
    """All blocks in the logical empty word: the empty register under each
    block's ``(1 + s12)/2`` then ``(1 + s23)/2``, normalized, so the empty
    register keeps a real positive amplitude.  Needs two bank atoms per
    block."""
    lay = code.layout
    if lay.total_atoms < 2 * code.num_blocks:
        raise ValueError(
            f"{lay.total_atoms} atoms cannot fill {code.num_blocks} blocks "
            "with two atoms each"
        )
    state = basis_state(lay, 0, compressed=True) if compressed else h_basis_state(lay, 0)
    for b in range(code.num_blocks):
        for which in ("s12", "s23"):
            state = add_states(state, apply_stabilizer(state, code, b, which), 0.5, 0.5)
    return state.normalized()


#: The terms of a block's logical lowering operator C as (position in the
#: block, create) factors, first applied first: C is i times their sum.
_LOGICAL_C_TERMS = (
    ((2, False), (1, False), (0, False)),
    ((2, True), (1, True), (0, False)),
    ((2, True), (1, False), (0, True)),
    ((2, False), (1, True), (0, True)),
)


def _logical_ladder(
    state: SparseState, code: RepetitionCode, block: int, dagger: bool
) -> SparseState:
    """C, or C^dag: -i times the sum of C's terms, each reversed with
    creation and annihilation swapped."""
    modes = code.block_modes(block)
    out = state.with_entries({})
    for term in _LOGICAL_C_TERMS:
        if dagger:
            term = tuple((k, not create) for k, create in reversed(term))
        product = state
        for k, create in term:
            ladder = apply_c_dagger if create else apply_c
            product = ladder(product, modes[k])
        out = add_states(out, product)
    return scale_state(out, -1j if dagger else 1j)


def apply_logical_C(state: SparseState, code: RepetitionCode, block: int) -> SparseState:
    """Logical lowering operator of one block:
    i (c1 c2 c3 + c1 c2+ c3+ + c1+ c2 c3+ + c1+ c2+ c3)."""
    return _logical_ladder(state, code, block, dagger=False)


def apply_logical_C_dagger(
    state: SparseState, code: RepetitionCode, block: int
) -> SparseState:
    """Adjoint of the logical lowering operator:
    -i (c3+ c2+ c1+ + c3 c2 c1+ + c3 c2+ c1 + c3+ c2 c1)."""
    return _logical_ladder(state, code, block, dagger=True)


def logical_basis_state(
    code: RepetitionCode, bits: Sequence[int], compressed: bool = False
) -> SparseState:
    """|b1 ... bM>_L, raising blocks in ascending order from the vacuum."""
    pattern = tuple(int(b) for b in bits)
    if len(pattern) != code.num_blocks:
        raise ValueError(f"expected {code.num_blocks} logical bits")
    if any(b not in (0, 1) for b in pattern):
        raise ValueError("logical bits must be 0 or 1")
    need = 2 * code.num_blocks + sum(pattern)
    if need > code.layout.total_atoms:
        raise ValueError(
            f"codeword needs up to {need} atoms but the register holds "
            f"{code.layout.total_atoms}"
        )
    state = prepare_logical_vacuum(code, compressed)
    for b, bit in enumerate(pattern):
        if bit:
            state = apply_logical_C_dagger(state, code, b)
    return state


def block_parity(code: RepetitionCode, label: int, block: int) -> int:
    return (label & code.block_mask(block)).bit_count() & 1


def random_codespace_state(
    code: RepetitionCode, rng: np.random.Generator, compressed: bool = False
) -> SparseState:
    """Random normalized state in the span of the logical basis states."""
    words = code.codespace_states(compressed)
    amps = rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))
    amps /= np.linalg.norm(amps)
    out = words[0].with_entries({})
    for w, a in zip(words, amps):
        out = add_states(out, w, 1.0, complex(a))
    return out


def project_codespace(state: SparseState, code: RepetitionCode) -> SparseState:
    """Orthogonal (unnormalized) projection onto the span of the logical
    basis states the register can hold.

    Ancilla qubits are spectators: each ancilla bit pattern is projected
    independently, so entanglement between the ancillas and the logical
    content survives the projection.

    One pass over the state reads each amplitude once and looks its
    fermion part up in :meth:`RepetitionCode.codespace_table`, which gives
    the words holding that label with their conjugated amplitudes.  Each
    overlap ``<w|part>`` is ``complex(fsum(re), fsum(im))`` of the products
    ``conj(w_l) * part_l`` over the labels the word and the ancilla group
    share: the products :meth:`SparseState.inner` forms, in the same
    operand order, summed by ``math.fsum``, which is exact whatever the
    order.  So each overlap, and each amplitude built from it in word
    order, equals the one of a ``w.inner(part)`` per word bit for bit.
    """
    lay = state.layout
    compressed = state.compressed
    words = code.codespace_states(compressed)
    table = code.codespace_table(compressed)
    fermions = lay.system_mask if compressed else lay.system_mask | lay.reference_mask
    # per ancilla pattern, in order of first appearance: the real and the
    # imaginary parts of each word's overlap terms
    groups: dict[int, list[tuple[list[float], list[float]]]] = {}
    for l, a in state.entries.items():
        base = l & ~fermions
        terms = groups.get(base)
        if terms is None:
            terms = groups[base] = [([], []) for _ in words]
        for i, conj_wl in table.get(l & fermions, ()):
            t = conj_wl * a
            re, im = terms[i]
            re.append(t.real)
            im.append(t.imag)
    out_entries: dict[int, complex] = {}
    for base, terms in groups.items():
        for w, (re, im) in zip(words, terms):
            ov = complex(math.fsum(re), math.fsum(im))
            if ov != 0.0:
                for l, wl in w.entries.items():
                    key = base | l
                    out_entries[key] = out_entries.get(key, 0j) + ov * wl
    return state.with_entries(out_entries)


# ---------------------------------------------------------------------------
# the seven-mode CSS code and loss channels
# ---------------------------------------------------------------------------


class SteaneCode:
    """Seven-mode CSS code; code space extracted by projection.

    The parity groups follow the (7,4) Hamming checks.  Diagonal stabilizers
    multiply each group by (1 - 2 n_i); the conjugate stabilizers are the
    corresponding products of x Majoranas, applied highest mode first.
    """

    GROUPS = ((3, 4, 5, 6), (1, 2, 5, 6), (0, 2, 4, 6))

    def __init__(self, layout: RegisterLayout):
        if layout.num_system_modes != 7:
            raise ValueError("this code needs exactly seven system modes")
        self.layout = layout

    def apply_z_stabilizer(self, state: SparseState, group: int) -> SparseState:
        mask = 0
        for i in self.GROUPS[group]:
            mask |= 1 << i
        return apply_map(
            state, lambda l: ((l, -1.0 if (l & mask).bit_count() & 1 else 1.0),)
        )

    def apply_x_stabilizer(self, state: SparseState, group: int) -> SparseState:
        for mode in sorted(self.GROUPS[group], reverse=True):
            state = apply_majorana(state, mode, "x")
        return state

    def project(self, state: SparseState) -> SparseState:
        for group in range(3):
            s = self.apply_z_stabilizer(state, group)
            state = add_states(state, s, 0.5, 0.5)
        for group in range(3):
            s = self.apply_x_stabilizer(state, group)
            state = add_states(state, s, 0.5, 0.5)
        return state

    def codewords(self) -> list[SparseState]:
        """Orthonormal code basis via Gram-Schmidt over projected labels;
        asserts the code space has rank exactly two."""
        words: list[SparseState] = []
        for sys in range(1 << self.layout.num_system_modes):
            v = self.project(h_basis_state(self.layout, sys))
            for w in words:
                v = add_states(v, w, 1.0, -w.inner(v))
            if v.norm() > 1e-9:
                words.append(v.normalized())
        if len(words) != 2:
            raise AssertionError(f"code space rank {len(words)}, expected 2")
        return words


def apply_loss_kraus(state: SparseState, index: int, p: float) -> SparseState:
    """One Kraus operator of the per-mode atom-loss channel.

    Index 0 scales by sqrt(1 - M p); indices 1..M are sqrt(p) times the bare
    site annihilation on mode index-1 (the environment records which atom
    left); indices M+1..2M are sqrt(p) times the empty-mode projector
    (nothing there to lose).  The channel is trace preserving for any state.
    """
    m = state.layout.num_system_modes
    if not 0 <= index <= 2 * m:
        raise ValueError(f"loss channel on {m} modes has {2 * m + 1} Kraus operators")
    if p < 0.0 or m * p > 1.0:
        raise ValueError("loss probability outside [0, 1/M]")
    if index == 0:
        return scale_state(state, math.sqrt(1.0 - m * p))
    if index <= m:
        return scale_state(apply_annihilation(state, index - 1), math.sqrt(p))
    bit = 1 << (index - m - 1)
    root_p = math.sqrt(p)
    return apply_map(state, lambda l: () if l & bit else ((l, root_p),))


#: Largest violation of either Knill-Laflamme condition that still passes.
KL_ATOL = 1e-12


@dataclass
class KLReport:
    """Knill-Laflamme matrix of a Kraus set against a code basis.

    ``matrix[a, i, b, j]`` holds <K_a w_i | K_b w_j>.  The channel is
    correctable exactly when every entry with i != j vanishes and the
    diagonal-in-codeword entries do not depend on the codeword; ``passed``
    says both violations are within :data:`KL_ATOL`.
    """

    matrix: np.ndarray
    max_offdiagonal_violation: float
    max_codeword_dependence: float
    passed: bool


def kl_check(
    codewords: Sequence[SparseState],
    errors: Sequence[Callable[[SparseState], SparseState]],
) -> KLReport:
    """Evaluate the exact-correctability conditions of an error set on a
    code basis; each error is a callable acting on a state."""
    n_k = len(errors)
    n_w = len(codewords)
    mapped = [op(w) for op in errors for w in codewords]  # K_a w_i at a * n_w + i
    gram = np.array(
        [[x.inner(y) for y in mapped] for x in mapped], dtype=np.complex128
    ).reshape(n_k, n_w, n_k, n_w)
    pairs = gram.transpose(0, 2, 1, 3)  # [a, b, i, j]
    off = float(np.abs(pairs[..., ~np.eye(n_w, dtype=bool)]).max(initial=0.0))
    diagonal = np.einsum("aibi->abi", gram)
    dep = float(np.abs(diagonal - diagonal[..., :1]).max(initial=0.0))
    return KLReport(gram, off, dep, off <= KL_ATOL and dep <= KL_ATOL)


def steane_projector_check(p: float) -> KLReport:
    """Loss-channel Knill-Laflamme analysis on the seven-mode code: the
    :func:`kl_check` of the :func:`apply_loss_kraus` set at rate ``p``."""
    code = SteaneCode(RegisterLayout(7, 7, 7))
    m = code.layout.num_system_modes
    kraus = [
        (lambda s, i=i: apply_loss_kraus(s, i, p)) for i in range(2 * m + 1)
    ]
    return kl_check(code.codewords(), kraus)
