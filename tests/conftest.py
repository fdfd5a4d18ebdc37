"""Settings shared by every test module."""

from hypothesis import settings

# Property tests run numpy pipelines whose first example can be slow (import
# and BLAS warm-up); their job is correctness, so no example has a deadline.
settings.register_profile("ridgerec", deadline=None)
settings.load_profile("ridgerec")
