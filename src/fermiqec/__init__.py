"""Sparse simulator for error-corrected fermionic registers.

Number-conserving hardware gates plus a reference bank of atoms give access
to dressed fermionic ladder operators; on top of those sit a three-mode
repetition code with ancilla-gadget syndrome readout, logical gates, a noisy
exchange-interferometry experiment, and a cross-checking pair of state
representations (full and reference-compressed).

Each public name is imported from the module that defines it, e.g.
``from fermiqec.harness import ExperimentConfig``; the package itself
binds only ``__version__``.
"""

__version__ = "0.1.0"
