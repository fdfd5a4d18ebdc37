"""Settings and fixtures shared by every test module."""

import pytest
from hypothesis import settings

from ridgerec import core

# Property tests run numpy pipelines whose first example can be slow (import
# and BLAS warm-up); their job is correctness, so no example has a deadline.
settings.register_profile("ridgerec", deadline=None)
settings.load_profile("ridgerec")


@pytest.fixture
def cpus(monkeypatch):
    """Call with a count to make the CPU pool see that many CPUs for the rest of the test."""

    def use(count: int) -> None:
        monkeypatch.setattr(core, "_available_cpus", lambda: count)

    return use
