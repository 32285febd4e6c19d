"""Shared test setup.

Property tests run under one hypothesis profile: derandomized, so every run
of the suite draws the same examples, with no per-example deadline, since
timings on a shared host drift, and with a bounded number of examples.
"""

from hypothesis import settings

settings.register_profile(
    "plcmarket", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("plcmarket")
