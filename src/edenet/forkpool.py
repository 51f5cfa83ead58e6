"""The one process pool: independent units of work mapped over forked
workers, results yielded in order.

Phase I cells (metalearn.run_cells) run through ordered_map; the row
blocks of ensemble_score and the member rows of a training epoch
(ensemble.train_ensemble) through map_runs, which runs one run in this
process. Workers are forked, so they inherit the function and its
inputs and nothing is pickled on the way in; each gets an index and
sends back one result. Bulk results go into shared_zeros arrays instead.
multiprocessing, concurrent.futures and mmap are imported only when they
are first needed, so no command pays for them at startup.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence

import numpy as np

_job: tuple[Callable, Sequence] | None = None  # set in a pool worker: its (fn, items)


def workers(n_units: int, min_units: int = 1) -> int:
    """How many processes run n_units units when each should get at least
    min_units: one per CPU this process may run on, at most
    n_units // min_units, and at least one. One off Linux, inside a pool
    worker (no nested pools), and while any other Python thread is alive:
    a child forked then could inherit a lock that thread holds."""
    if _job is not None or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_units // min_units))


def shared_zeros(shape) -> np.ndarray:
    """A zero-filled float64 array of shape in an anonymous MAP_SHARED
    mapping: what a forked worker writes there, its parent reads. A
    shape of size 0 gives an empty array (mmap refuses length 0)."""
    import mmap  # here, not at startup: only training and scoring use it

    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), dtype=np.float64,
                         count=size).reshape(shape)


def _take_job(fn: Callable, items: Sequence) -> None:
    global _job
    _job = (fn, items)


def _run_at(index: int):
    fn, items = _job
    return fn(items[index])


def ordered_map(fn: Callable, items: Sequence) -> Iterator:
    """fn(item) for each item, yielded in item order, computed in
    workers(len(items)) forked processes, in this one when that is 1. The
    first item to fail, in item order, raises its own exception here.
    Then, or when the caller closes the iterator early, the workers are
    stopped and joined, and no further item runs."""
    n_workers = workers(len(items))
    if n_workers <= 1:
        for item in items:
            yield fn(item)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork is safe while no other thread runs (workers checks), and a fork
    # pool starts every worker before its own thread (CPython gh-90622)
    pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_take_job, initargs=(fn, items))
    try:
        pending = deque(pool.submit(_run_at, i) for i in range(len(items)))
        while pending:  # a result is dropped here once it is yielded
            yield pending.popleft().result()
    except BaseException:  # a failed item, or GeneratorExit from an early close
        # stop the items already handed to a worker, which shutdown would
        # wait for; ProcessPoolExecutor has no public call for it before 3.14
        for proc in list(pool._processes.values()):
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def map_runs(fn: Callable, n_units: int, n_runs: int) -> list:
    """[fn(run) for run in runs] through ordered_map, where runs cuts
    range(n_units) into n_runs contiguous slices, in order, their lengths
    differing by at most one. One run is called in this process."""
    return list(ordered_map(fn, [slice(i * n_units // n_runs, (i + 1) * n_units // n_runs)
                                 for i in range(n_runs)]))
