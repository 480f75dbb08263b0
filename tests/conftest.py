"""Shared pytest setup: one deterministic hypothesis profile for tier-1."""

from hypothesis import settings

# derandomized, so every run draws the same examples; no deadline, since a
# shared host's timing must not fail a property; and no example database
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("tier1")
