"""The one process pool (edenet.forkpool) and its three callers: Phase I
cells (metalearn.run_cells), the row blocks of ensemble_score and the
rounds of a training epoch. Every pooled result must be the serial
bytes, every check must fire before a fork, and no pool may start in a
pool worker or next to a live thread."""

import ast
import multiprocessing
import os
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import edenet.ensemble as ensemble_mod
from edenet import forkpool
from edenet.data import BLOCK_ROWS, Dataset, fit_scale
from edenet.ensemble import (POOL_MIN_BLOCKS, POOL_MIN_STEPS, TrainConfig, _run_rounds,
                             ensemble_score, init_ensemble, train_ensemble)
from edenet.errors import ShapeError
from edenet.layers import Workspace
from edenet.metalearn import MetaTask, run_cells
from edenet.model import make_arch, row_chunks
from edenet.optim import AdamState
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


@pytest.mark.parametrize("shape", [0, (0,), (0, 3), (3, 0)])
def test_shared_zeros_of_size_zero_is_empty(shape):
    """mmap refuses a mapping of length 0; an empty input's scores ask for
    one, so shared_zeros gives an empty array instead of OSError."""
    zeros = forkpool.shared_zeros(shape)
    assert zeros.shape == np.zeros(shape).shape
    assert zeros.dtype == np.float64


@pytest.mark.parametrize("n_units, n_runs", [(0, 1), (7, 1), (7, 2), (7, 3), (8, 3)])
def test_map_runs_cuts_every_unit_once_in_order(cpus, pools, n_units, n_runs):
    """map_runs cuts range(n_units) into n_runs contiguous slices, in
    order, their lengths at most one apart, and returns each run's result
    in run order; one run is called here and starts no pool, even with
    CPUs to spare."""
    cpus(max(n_runs, 2))
    results = forkpool.map_runs(lambda run: (run, os.getpid()), n_units, n_runs)
    runs = [run for run, _ in results]
    assert len(runs) == n_runs
    assert [i for run in runs for i in range(n_units)[run]] == list(range(n_units))
    lengths = [len(range(n_units)[run]) for run in runs]
    assert max(lengths) - min(lengths) <= 1
    pids = {pid for _, pid in results}
    if n_runs == 1:
        assert pids == {os.getpid()}
        assert pools() == []
    else:
        assert os.getpid() not in pids
        assert pools() == [(os.getpid(), n_runs)]
    assert multiprocessing.active_children() == []


def test_only_forkpool_imports_the_process_modules():
    """forkpool imports multiprocessing, concurrent.futures and mmap only
    when it first needs them, so no command pays for them at startup;
    no other module imports them at all."""
    src = Path(forkpool.__file__).parent
    banned = {"multiprocessing", "concurrent", "mmap"}
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in banned for name in names):
                importers.add(path.name)
    assert importers == {"forkpool.py"}


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


def test_a_passed_workspace_serves_every_run(cpus, pools):
    """The reweight pass passes training's workspace, which every run
    scores into: here when there is one run, and a forked worker's
    copy-on-write copy of it when a long enough input pools. Both give
    the bytes of a run without one."""
    ens, x = trained(LSTM, 2, False), raw_rows(POOLED_ROWS)
    cpus(1)
    serial = ensemble_score(ens, x).tobytes()
    assert ensemble_score(ens, x, Workspace()).tobytes() == serial
    assert pools() == []
    cpus(2)
    assert ensemble_score(ens, x, Workspace()).tobytes() == serial
    assert pools() == [(os.getpid(), 2)]


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


# iterations of one train-kdd epoch (I=3 over 50k rows at batch 64) and of
# one train-lstm epoch (I=3 over 2k rows)
KDD_ITERS, LSTM_ITERS = 3 * 782, 3 * 32


def test_a_long_epoch_trains_in_one_pool_per_epoch(cpus, pools):
    """An epoch of train-kdd's length deals its members to two workers,
    one pool each epoch, to the bytes of one process."""
    assert KDD_ITERS >= 2 * POOL_MIN_STEPS
    x = Dataset(features=make_rng(7).standard_normal((50, 4)))
    cfg = TrainConfig(epochs=2, batch_size=4, iters_per_epoch=KDD_ITERS, seed=8)
    flats = {}
    for n_cpus in (1, 2):
        cpus(n_cpus)
        ens, trace = train_ensemble(init_ensemble(make_arch(4, TINY_ARCH), 3, seed=8), x, cfg)
        flats[n_cpus] = ([m.flat.tobytes() for m in ens.members], trace)
    assert flats[2] == flats[1]
    assert pools() == [(os.getpid(), 2)] * cfg.epochs
    assert multiprocessing.active_children() == []


def test_a_short_epoch_trains_in_process(cpus, pools):
    """train-lstm's epochs, about 32 steps a member, stay in this process
    under the real threshold: a fork and a fresh workspace would cost more
    than a worker's share of the rounds saves."""
    assert LSTM_ITERS < 2 * POOL_MIN_STEPS
    x = Dataset(features=make_rng(7).standard_normal((2000, 5)))
    cpus(2)
    _, trace = train_ensemble(init_ensemble(make_arch(5, LSTM), 3, seed=8), x,
                              TrainConfig(epochs=2))
    assert TrainConfig().resolved_iters(2000, 3) == LSTM_ITERS
    assert len(trace) == 2
    assert pools() == []


def test_more_workers_than_cores_keep_their_rows_apart(cpus, pools, monkeypatch):
    """Four workers, more than this host may have cores, each write their
    own rows of the shared parameter block and Adam moments, and their own
    iterations' losses: a lost or crossed write would change the bytes of
    the one-process run."""
    monkeypatch.setattr(ensemble_mod, "POOL_MIN_STEPS", 1)
    x = Dataset(features=make_rng(9).standard_normal((30, 4)))
    cfg = TrainConfig(epochs=2, batch_size=4, iters_per_epoch=40, seed=10)
    runs = {}
    for n_cpus in (1, 4):
        cpus(n_cpus)
        ens, trace = train_ensemble(init_ensemble(make_arch(4, TINY_ARCH), 5, seed=10), x, cfg)
        runs[n_cpus] = ([m.flat.tobytes() for m in ens.members], trace)
    assert runs[4] == runs[1]
    assert pools() == [(os.getpid(), 4)] * cfg.epochs
    assert multiprocessing.active_children() == []


def test_one_stacks_dict_serves_two_runs_of_a_block():
    """A pool worker may take two runs of the block, with one stacks
    cache. The cache is keyed by the rows a stack binds, so each run steps
    only its own rows: one dict over the runs [0, 2) and [2, 4) gives the
    bytes of one run over the whole block (loss_and_grads gives each row
    the bits it gets alone). A cache keyed by row count alone hands the
    second run the first run's stacks."""
    x = Dataset(features=make_rng(12).standard_normal((30, 4)))
    ens = init_ensemble(make_arch(4, TINY_ARCH), 4, seed=12)
    sched = np.array([[0, 4], [1, 5], [2, 6], [3, 7]])  # two steps a row
    n_steps = np.array([2, 2, 2, 2])
    batches = make_rng(13).integers(0, 30, (8, 4))

    def train(runs: list[slice]):
        block = np.array([m.flat for m in ens.members])
        grad_block, state = np.zeros_like(block), AdamState(block, lr=1e-2)
        per_iter, stacks, work = np.zeros((8, 3)), {}, Workspace()
        for run in runs:
            assert _run_rounds(run, ens.members[0], x.rows, batches, sched, n_steps, block,
                               grad_block, state, stacks, work, per_iter) is None
        return block, state.m, state.v, per_iter

    whole = train([slice(0, 4)])
    assert not (whole[0] == np.array([m.flat for m in ens.members])).all(axis=1).any()
    assert [a.tobytes() for a in train([slice(0, 2), slice(2, 4)])] == \
        [a.tobytes() for a in whole]
