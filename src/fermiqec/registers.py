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
labels can drop the reference bits.  :meth:`RegisterLayout.holds` says
which system counts the bank can balance and
:meth:`RegisterLayout.bank_bits` forms the prefix, the only place it is
formed; :meth:`RegisterLayout.counter` counts the atoms under one mask,
implied bank atoms included, for every module that counts them.
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

    def bank_bits(self, n_system: int) -> int:
        """Reference bits matching a system occupation of ``n_system`` atoms:
        a contiguous prefix holding the remaining ``N - n_system``."""
        missing = self.total_atoms - n_system
        if not self.holds(n_system):
            raise ValueError(
                f"no reference prefix holds {missing} atoms "
                f"(register has {self.num_reference_modes} reference modes)"
            )
        return ((1 << missing) - 1) << self.num_system_modes

    def counter(self, mask: int, compressed: bool) -> Callable[[int], int]:
        """A function from a label of the chosen representation to the
        number of atoms on the fermionic modes under ``mask`` (physical bit
        positions).

        A compressed count is the system atoms under ``mask`` plus the
        :meth:`bank_bits` under it, which depend on the system-atom count
        alone; the function reads that part from a table indexed by the
        count.  More than ``N`` system atoms leave the bank empty."""
        if not compressed:
            return lambda label: (label & mask).bit_count()
        every, system = self.system_mask, mask & self.system_mask
        if not mask & self.reference_mask:
            return lambda label: (label & system).bit_count()
        bank = [
            (self.bank_bits(n) & mask).bit_count() if self.holds(n) else 0
            for n in range(self.num_system_modes + 1)
        ]

        def count(label: int) -> int:
            return (label & system).bit_count() + bank[(label & every).bit_count()]

        return count


def jw_sign(label: int, i: int) -> int:
    """Exchange sign of a ladder operator on mode ``i``: ``(-1)**k`` with
    ``k`` the number of occupied fermionic modes strictly before ``i``.
    """
    return -1 if (label & ((1 << i) - 1)).bit_count() & 1 else 1
