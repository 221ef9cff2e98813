"""Shared test configuration.

Property tests run a small, fixed, derandomized set of examples with no per-example
deadline, so every run of the suite checks the same cases and a slow machine
does not turn a passing example into a failure.
"""

from hypothesis import settings

settings.register_profile(
    "phasetop", derandomize=True, deadline=None, database=None, max_examples=20
)
settings.load_profile("phasetop")
