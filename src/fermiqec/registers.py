"""Mode bookkeeping for fermionic registers with ancilla qubits.

A register holds ``M_s`` system modes, ``M_r`` reference modes and ``A``
ancilla qubits, populated by a fixed total of ``N`` fermionic atoms.  The
fermionic modes carry a canonical ordering that fixes every exchange sign:

* system modes first, block-major — mode ``i`` occupies bit ``i`` for
  ``0 <= i < M_s``;
* reference modes next — reference mode ``j`` (0-based) occupies bit
  ``M_s + j``;
* ancilla qubits are *not* part of the fermionic ordering.  In the full
  (physical) representation ancilla ``a`` occupies bit ``M_s + M_r + a``;
  in the compressed representation (see :mod:`fermiqec.backend`) the
  reference bits are dropped and ancilla ``a`` occupies bit ``M_s + a``.

Basis labels are plain ints interpreted through this bit layout.  Keeping
labels as ints makes sign bookkeeping a popcount and lets states live in
ordinary dicts.

The occupation rule: a consistent label with ``n_sys`` system atoms holds
the other ``N - n_sys`` on a contiguous reference prefix, so reference mode
``j`` is occupied exactly when ``j < N - n_sys``.  That is why compressed
labels can drop the reference bits.  :meth:`RegisterLayout.holds` and
:meth:`RegisterLayout.occupation` apply the rule for every other module;
:meth:`RegisterLayout.counter` tabulates ``occupation`` for the gates that
count one mask on many labels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

__all__ = ["RegisterLayout", "jw_sign"]


@dataclass(frozen=True)
class RegisterLayout:
    """Sizes and bit positions for one register.

    ``num_reference_modes >= total_atoms`` is required so the reference can
    hold every atom (the empty-system configuration must exist).
    """

    num_system_modes: int
    num_reference_modes: int
    total_atoms: int
    num_ancilla_qubits: int = 0

    def __post_init__(self) -> None:
        if self.num_system_modes < 1:
            raise ValueError("need at least one system mode")
        if self.total_atoms < 0:
            raise ValueError("total_atoms must be non-negative")
        if self.num_reference_modes < self.total_atoms:
            raise ValueError(
                "reference must be able to hold all atoms "
                f"(M_r={self.num_reference_modes} < N={self.total_atoms})"
            )
        if self.num_ancilla_qubits < 0:
            raise ValueError("num_ancilla_qubits must be non-negative")

    # -- derived sizes -------------------------------------------------

    @property
    def num_fermion_modes(self) -> int:
        return self.num_system_modes + self.num_reference_modes

    @functools.cached_property
    def system_mask(self) -> int:
        return (1 << self.num_system_modes) - 1

    @functools.cached_property
    def reference_mask(self) -> int:
        return ((1 << self.num_reference_modes) - 1) << self.num_system_modes

    # -- bit positions ---------------------------------------------------

    def reference_mode(self, j: int) -> int:
        """Absolute fermionic index of reference mode ``j`` (0-based)."""
        if not 0 <= j < self.num_reference_modes:
            raise ValueError(f"reference mode {j} out of range")
        return self.num_system_modes + j

    def reference_modes(self) -> tuple[int, ...]:
        """Absolute indices of all reference modes, ascending."""
        m = self.num_system_modes
        return tuple(range(m, m + self.num_reference_modes))

    def ancilla_bit(self, a: int, compressed: bool = False) -> int:
        """Bit position of ancilla ``a`` in the chosen representation."""
        if not 0 <= a < self.num_ancilla_qubits:
            raise ValueError(f"ancilla {a} out of range")
        base = self.num_system_modes if compressed else self.num_fermion_modes
        return base + a

    # -- the occupation rule ----------------------------------------------

    def holds(self, n_system: int) -> bool:
        """True when the bank can balance ``n_system`` system atoms:
        ``0 <= N - n_system <= M_r``."""
        return 0 <= self.total_atoms - n_system <= self.num_reference_modes

    def occupation(self, label: int, mask: int, compressed: bool = False) -> int:
        """Number of atoms on the fermionic modes under ``mask`` (physical bit
        positions).  On compressed labels reference mode ``j`` counts when
        ``j < N - n_sys``, so more than ``N`` system atoms leave it empty."""
        if not compressed:
            return (label & mask).bit_count()
        system = label & self.system_mask
        if not mask & self.reference_mask:
            return (system & mask).bit_count()
        bank = max(self.total_atoms - system.bit_count(), 0)
        prefix = ((1 << bank) - 1) << self.num_system_modes
        return ((system | prefix) & mask).bit_count()

    def counter(self, mask: int, compressed: bool) -> Callable[[int], int]:
        """``label -> occupation(label, mask, compressed)`` for one mask.

        A compressed count is the system atoms under ``mask`` plus a
        reference part that depends on the system-atom count alone; the
        function reads that part from a table indexed by the count.  The
        table holds :meth:`occupation` of one label per count, so the
        occupation rule stays in that method."""
        if not compressed:
            return lambda label: (label & mask).bit_count()
        every, system = self.system_mask, mask & self.system_mask
        if not mask & self.reference_mask:
            return lambda label: (label & system).bit_count()
        bank = [
            self.occupation((1 << n) - 1, mask & self.reference_mask, True)
            for n in range(self.num_system_modes + 1)
        ]

        def count(label: int) -> int:
            return (label & system).bit_count() + bank[(label & every).bit_count()]

        return count

    # -- label dissection ------------------------------------------------

    def system_part(self, label: int) -> int:
        return label & self.system_mask


def jw_sign(label: int, i: int) -> int:
    """Exchange sign of a ladder operator on mode ``i``: ``(-1)**k`` with
    ``k`` the number of occupied fermionic modes strictly before ``i``.
    """
    return -1 if (label & ((1 << i) - 1)).bit_count() & 1 else 1
