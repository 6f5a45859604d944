"""Test-wide settings: property tests run a fixed, bounded set of examples
so that the suite is deterministic and cheap.  Also the one counting
generator and the one spread-out random state the tests share."""

import numpy as np
from hypothesis import settings

from fermiqec.reference import random_h_state
from fermiqec.states import SparseState, add_states

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("tier1")


class CountingRng:
    """A generator that counts every double drawn, scalar or vector."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self, size: int | None = None):
        if size is None:
            self.draws += 1
            return float(self._rng.random())
        self.draws += size
        return self._rng.random(size)


def on_ancillas(state: SparseState, pattern: int) -> SparseState:
    """A physical state whose ancillas are all in |0>, with every label
    moved onto the ancilla bits ``pattern``."""
    shift = state.layout.num_fermion_modes
    return SparseState(
        state.layout, {l | pattern << shift: a for l, a in state.entries.items()}
    )


def spread_h_state(layout, seed: int) -> SparseState:
    """Random normalized reference-consistent state over every ancilla
    pattern: one :func:`random_h_state` per pattern, drawn in ascending
    pattern order from one generator."""
    rng = np.random.default_rng(seed)
    out = random_h_state(layout, rng)
    for pattern in range(1, 1 << layout.num_ancilla_qubits):
        out = add_states(out, on_ancillas(random_h_state(layout, rng), pattern))
    return out.normalized()
