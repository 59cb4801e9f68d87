"""One hypothesis profile for every property test.

Examples are seeded from a hash of each test function, not drawn at
random, so every run checks the same cases until the test changes; the
oracle comparisons run tens of milliseconds an example, so no deadline
applies.
"""

from hypothesis import settings

settings.register_profile("hybridloc", derandomize=True, deadline=None)
settings.load_profile("hybridloc")
