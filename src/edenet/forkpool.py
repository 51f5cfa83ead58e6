"""The one process pool: independent units of work mapped over forked
workers, results yielded in order.

Phase I cells (metalearn.run_cells) and the row blocks of a
workspace-less ensemble_score run through it. Workers are forked, so they
inherit the function and its inputs and nothing is pickled on the way
in; each gets an index and sends back one result. multiprocessing and
concurrent.futures are imported only when a pool starts, so no command
pays for them at startup.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence

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
