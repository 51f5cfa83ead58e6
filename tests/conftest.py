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
    """cpus(n) makes os.sched_getaffinity report n CPUs, the count
    forkpool.workers sizes every pool by: Phase I cells, and the runs
    forkpool.map_runs cuts from ensemble_score's row blocks and from a
    training epoch's member rows. An epoch of fewer than
    2 * ensemble.POOL_MIN_STEPS iterations is one run, which starts no
    pool (tests that pool shorter epochs patch that constant). Skips off
    Linux, where the call is missing and no pool starts."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("os.sched_getaffinity is Linux-only")
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def pools(monkeypatch, tmp_path):
    """pools() lists the (pid, workers) of each process pool started since
    the fixture was set up, in start order, in this process or in any
    process forked from it."""
    import concurrent.futures

    log = tmp_path / "pools-started.log"
    real = concurrent.futures.ProcessPoolExecutor

    class Spy(real):
        def __init__(self, max_workers, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {max_workers}\n")
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return lambda: ([tuple(map(int, line.split()))
                     for line in log.read_text(encoding="utf-8").splitlines()]
                    if log.exists() else [])
