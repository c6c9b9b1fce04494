"""Shared test settings.

Property tests run under one derandomized hypothesis profile with no
deadline: every run draws the same examples, and the slow first call of
a cached builder cannot fail a test on time.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("g12calc", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("g12calc")
