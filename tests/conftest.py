"""Test-wide settings: property tests run a fixed, bounded set of examples
so that the suite is deterministic and cheap.  Also the one counting
generator the tests share."""

import numpy as np
from hypothesis import settings

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
