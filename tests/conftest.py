"""Suite-wide test settings.

Property tests run under one fixed hypothesis profile: examples are derived
from each test's definition rather than a random seed, no example database
is kept, and the example count is bounded, so the suite stays fast and one
checkout gives the same result every run. Hypothesis also mixes in literals
it finds in the loaded project modules, so one test file run alone may draw
other examples than the whole suite does.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("provprune", derandomize=True, database=None,
                              deadline=None, max_examples=150)
    settings.load_profile("provprune")
