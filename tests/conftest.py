"""Test-wide settings: property tests run a fixed, bounded set of examples
so that the suite is deterministic and cheap."""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("tier1")
