"""The one Hypothesis profile of the suite.

Every property test runs under it: derandomized, so a run draws the same
examples every time; no deadline, since timings vary between machines;
a fixed example budget; and no example database written to disk.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("tier1")
