import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes os.sched_getaffinity report n CPUs, the count the
    Phase I cell runner sizes its pool by. Skips off Linux, where the call
    is missing and the runner never starts a pool."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("os.sched_getaffinity is Linux-only")
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
