"""Suite-wide test settings.

Hypothesis draws the same examples on every run: its generator is seeded from
each test function, no example database replays earlier failures, and no
per-example deadline makes a slow machine fail a test.
"""

from hypothesis import settings

settings.register_profile("bifid", derandomize=True, database=None, deadline=None)
settings.load_profile("bifid")
