"""Shared test setup.

Property tests run under one hypothesis profile: derandomized, so every run
of the suite draws the same examples, with no per-example deadline, since
timings on a shared host drift, and with a bounded number of examples.  The
`deep` profile draws ten times as many examples; select it with
`--hypothesis-profile deep` for a longer run of chosen referees.
"""

from hypothesis import settings

settings.register_profile(
    "plcmarket", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.register_profile("deep", settings.get_profile("plcmarket"), max_examples=1000)
settings.load_profile("plcmarket")
