"""The one process pool (edenet.forkpool) and its two callers: Phase I
cells (metalearn.run_cells) and the row blocks of a workspace-less
ensemble_score. Every pooled result must be the serial bytes, every
check must fire before a fork, and no pool may start in a pool worker or
next to a live thread."""

import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from edenet import forkpool
from edenet.data import BLOCK_ROWS, Dataset, fit_scale
from edenet.ensemble import (POOL_MIN_BLOCKS, TrainConfig, ensemble_score, init_ensemble,
                             train_ensemble)
from edenet.errors import ShapeError
from edenet.layers import Workspace
from edenet.metalearn import MetaTask, run_cells
from edenet.model import make_arch, row_chunks
from edenet.rng import make_rng

# the fewest rows whose blocks ensemble_score splits over two workers
POOLED_ROWS = 2 * POOL_MIN_BLOCKS * BLOCK_ROWS
LSTM = {"encoder_kind": "lstm", "hidden_dim": 6, "latent_dim": 2, "seq_len": 2}


def trained(arch: dict, n_members: int, scaled: bool):
    """An ensemble on 5 columns that records its training names, and its
    scaling when scaled (zero epochs: the scores only need to differ)."""
    train = Dataset(features=3.0 * make_rng(3).standard_normal((40, 5)) + 1.0)
    ens, _ = train_ensemble(init_ensemble(make_arch(5, arch), n_members, seed=4),
                            fit_scale(train) if scaled else train, TrainConfig(epochs=0))
    return ens


def raw_rows(n_rows: int, seed: int = 5) -> Dataset:
    return Dataset(features=2.0 * make_rng(seed).standard_normal((n_rows, 5)))


@pytest.mark.parametrize("arch, n_members, scaled, n_rows", [
    ({}, 5, True, POOLED_ROWS),
    (LSTM, 3, False, POOLED_ROWS),
    ({}, 3, False, POOLED_ROWS + BLOCK_ROWS + 300),
], ids=["ff-scaled", "lstm", "partial-last-block"])
def test_pooled_scores_are_the_serial_bytes(cpus, pools, arch, n_members, scaled, n_rows):
    """Two workers, each summing a contiguous run of blocks in member
    order, give the bytes of one process: a block or a member summed out
    of order changes some row's last bits. The last case splits nine
    blocks, the last one partial, into runs of four and five."""
    ens = trained(arch, n_members, scaled)
    x = raw_rows(n_rows)
    cpus(1)
    serial = ensemble_score(ens, x)
    assert pools() == []
    cpus(2)
    pooled = ensemble_score(ens, x)
    assert pools() == [(os.getpid(), 2)]
    assert pooled.tobytes() == serial.tobytes()
    assert multiprocessing.active_children() == []


def test_a_passed_workspace_keeps_scoring_in_process(cpus, pools):
    """The reweight pass passes training's workspace: no pool starts."""
    ens, x = trained({}, 2, False), raw_rows(POOLED_ROWS)
    cpus(2)
    with_work = ensemble_score(ens, x, Workspace())
    assert pools() == []
    assert with_work.tobytes() == ensemble_score(ens, x).tobytes()


def _renamed(x: Dataset) -> Dataset:
    return Dataset(rows=x.rows, column_meta=["x0", "x1", "x2", "x4", "x3"])


@pytest.mark.parametrize("make_bad, error, message", [
    (_renamed, ShapeError, "input column 3 is 'x4', model expects 'x3'"),
    (fit_scale, ValueError, "input is already scaled"),
    (lambda x: x.features, TypeError, "input must be a Dataset, got ndarray"),
], ids=["renamed-column", "scaled-dataset", "matrix"])
def test_a_bad_input_raises_before_any_fork(cpus, pools, make_bad, error, message):
    ens = trained({}, 2, True)
    bad = make_bad(raw_rows(POOLED_ROWS))
    cpus(2)
    with pytest.raises(error, match=message):
        ensemble_score(ens, bad)
    assert pools() == []


def test_a_failing_worker_raises_its_own_exception_and_leaves_no_child(cpus, pools,
                                                                       monkeypatch):
    import edenet.ensemble as ensemble_mod

    parent, score = os.getpid(), ensemble_mod.anomaly_score

    def failing_in_a_worker(net, x, work):
        if os.getpid() != parent:
            raise FloatingPointError("overflow in a worker")
        return score(net, x, work)

    monkeypatch.setattr(ensemble_mod, "anomaly_score", failing_in_a_worker)
    ens, x = trained({}, 2, False), raw_rows(POOLED_ROWS)
    cpus(2)
    with pytest.raises(FloatingPointError, match="overflow in a worker"):
        ensemble_score(ens, x)
    assert pools() == [(parent, 2)]
    assert multiprocessing.active_children() == []


TINY_ARCH = {"hidden_sizes": (8, 5), "latent_dim": 2}


def big_test_cells(n_cells: int) -> list:
    """Cells whose test split ensemble_score would split over two workers."""
    rng = make_rng(11)
    spec = make_arch(4, TINY_ARCH)
    cfg = TrainConfig(epochs=1, batch_size=8, iters_per_epoch=2)
    cells = []
    for seed in range(n_cells):
        task = MetaTask(train=Dataset(features=rng.standard_normal((20, 4))),
                        test=Dataset(features=rng.standard_normal((POOLED_ROWS, 4)),
                                     labels=np.arange(POOLED_ROWS) % 2))
        cells.append((task, spec, 2, replace(cfg, seed=seed)))
    return cells


def _bytes(results) -> list[bytes]:
    return [scores.tobytes() for scores, _ in results]


def test_a_cell_scores_its_test_split_in_its_worker(cpus, pools):
    """Two cells run in a pool of two; neither worker starts a pool of its
    own for its big test split, and the scores are the serial bytes."""
    cells = big_test_cells(2)
    cpus(1)
    serial = _bytes(run_cells(cells))
    cpus(2)
    assert forkpool.workers(len(row_chunks(POOLED_ROWS)), POOL_MIN_BLOCKS) == 2
    assert _bytes(run_cells(cells)) == serial
    assert pools() == [(os.getpid(), 2)]
    assert multiprocessing.active_children() == []


def test_a_live_thread_keeps_every_pool_in_process(cpus, pools):
    """A fork next to a running thread could copy a lock that thread
    holds into the child, so while one is alive nothing forks: cells and
    scoring run here, to the same bytes."""
    ens, x = trained({}, 3, True), raw_rows(POOLED_ROWS)
    cells = big_test_cells(2)
    cpus(1)
    serial = (ensemble_score(ens, x).tobytes(), _bytes(run_cells(cells)))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        cpus(2)
        threaded = (ensemble_score(ens, x).tobytes(), _bytes(run_cells(cells)))
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert threaded == serial
    assert pools() == []
    assert forkpool.workers(2) == 2  # the thread has ended
