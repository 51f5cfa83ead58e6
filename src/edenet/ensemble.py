"""Ensemble construction, weighted training, and score averaging.

Training keeps I independent nets. Each epoch starts by scoring the whole
training set with the current ensemble and turning those scores into
sampling weights, so samples the ensemble already finds surprising are
seen more often. Every iteration picks one member uniformly at random,
draws one weighted minibatch (with replacement), and takes one Adam step
on that member only.

The members run in lockstep. Within an epoch the weights are fixed and
the draws read no parameter, so the epoch's whole schedule (each
iteration's member and batch) is drawn first, from the same streams in
the same order. A member's update reads only its own parameters and its
own batch, so its k-th step of the epoch gives the same bits whether the
other members have stepped or not: round k runs every member's k-th
step at once, on one (I, P) parameter block. For the same reason a long
epoch deals its members to forked workers (forkpool), each running the
rounds of its own rows; this process draws the schedule and keeps the
bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import forkpool
from .data import Dataset, Rows, ScalingStats, _check_one_hot, _scale_rows, write_table
from .errors import ConfigError, ShapeError, TrainingDivergedError, check_fields
from .layers import Workspace, as_matrix
from .model import (
    ArchSpec,
    EdeNet,
    anomaly_score,
    loss_and_grads,
    normalize_scores,
    row_chunks,
)
from .optim import AdamState, adam_step
from .rng import make_rng, spawn_seeds

# added to the min-max normalized scores before they become sampling
# weights, so every training row keeps a floor probability
REWEIGHT_EPS = 0.05


@dataclass(frozen=True)
class EnsembleModel:
    """I nets of one arch and the Dataset they were trained on: its
    expanded column names, which ensemble_score holds its input's names
    to, and its min-max stats (None if unscaled), which it applies.
    train_ensemble records both. columns None means an ensemble built in
    code and not yet trained, which records no scaling either and which
    save_model refuses. Frozen, so the fields keep the checks below."""

    spec: ArchSpec
    members: list[EdeNet]
    seed: int = 0
    columns: tuple[str, ...] | None = None
    scaling: ScalingStats | None = None

    def __post_init__(self):
        check_fields(self, "ensemble")
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        for m in self.members:
            if m.spec != self.spec:
                raise ValueError("all members must share the ensemble arch")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))
        elif self.scaling is not None:
            raise ValueError("ensemble scaling needs the columns it scales")
        d = self.spec.input_dim
        for what, n in (("column names", self.columns),
                        ("scaling stats", self.scaling and self.scaling.col_min)):
            if n is not None and len(n) != d:
                raise ShapeError(f"ensemble has {len(n)} {what} for {d} inputs")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the ensemble training loop. Its optimizer is Adam at lr
    and optim's fixed BETA1, BETA2 and EPS; its reweight pass floors the
    weights with REWEIGHT_EPS.

    iters_per_epoch defaults to I * ceil(N / batch_size) so each member
    sees roughly one pass over the data per epoch in expectation. epochs
    may be 0, in which case training returns the model unchanged.
    """

    epochs: int = 50
    batch_size: int = 64
    iters_per_epoch: int | None = None
    lr: float = 1e-3
    reweight: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "train")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.iters_per_epoch is not None and self.iters_per_epoch < 1:
            raise ConfigError("iters_per_epoch must be >= 1 when given")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def resolved_iters(self, n_samples: int, n_members: int) -> int:
        if self.iters_per_epoch is not None:
            return self.iters_per_epoch
        return n_members * math.ceil(n_samples / self.batch_size)


@dataclass(frozen=True)
class SampleWeights:
    """Per-sample sampling distribution; entries are nonnegative and sum
    to 1.

    cdf is their normalized running sum, built once here so that every
    draw under the same weights costs O(B log N) instead of O(N). Frozen,
    so values and cdf cannot drift apart.
    """

    values: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ShapeError("weights must be a nonempty 1-D array")
        if np.any(v < 0) or not np.isfinite(v).all():
            raise ValueError("weights must be finite and nonnegative")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "values", v)
        # the same two steps Generator.choice takes on p, so draws match it
        cdf = v.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def uniform(cls, n: int) -> "SampleWeights":
        return cls(np.full(n, 1.0 / n))


@dataclass
class EpochTrace:
    epoch: int
    mean_lr: float
    mean_le: float
    combined: float


def init_ensemble(spec: ArchSpec, n_members: int, seed: int = 0) -> EnsembleModel:
    """Build I members with independent parameter draws from one seed."""
    if n_members < 1:
        raise ConfigError("n_members must be >= 1")
    # namespaced under (seed, 0) so the same seed can also drive the
    # training streams without colliding
    member_seeds = spawn_seeds((seed, 0), n_members)
    members = [EdeNet.initialize(spec, make_rng(ss)) for ss in member_seeds]
    return EnsembleModel(spec=spec, members=members, seed=seed)


def check_input_names(ensemble: EnsembleModel, names: list[str], what: str) -> None:
    """Hold an input's expanded column names (a Dataset's feature_names(),
    or data.expanded_meta of the schema it will be read with) to the
    ensemble's record: one name per model input, and the names it records,
    if any, in order. ShapeError names the first mismatch. edenet score
    runs this on the schema before it reads a row."""
    if len(names) != ensemble.spec.input_dim:
        raise ShapeError(f"{what} has {len(names)} columns, "
                         f"model expects {ensemble.spec.input_dim}")
    for j, (got, want) in enumerate(zip(names, ensemble.columns or ())):
        if got != want:
            raise ShapeError(f"{what} column {j} is {got!r}, model expects {want!r}")


def _input_rows(ensemble: EnsembleModel, x: Dataset, what: str) -> Rows:
    """The rows of x, a Dataset, after the checks both ensemble functions
    run: finite numeric entries (a one-hot byte is 0 or 1), then its
    names (check_input_names). An ensemble that records scaling refuses a
    scaled Dataset (scaling_stats set), and stats that move a one-hot
    column of x off {0, 1}. Anything but a Dataset raises TypeError."""
    if not isinstance(x, Dataset):
        raise TypeError(f"{what} must be a Dataset, got {type(x).__name__}")
    if ensemble.scaling is not None and x.scaling_stats is not None:
        raise ValueError(f"{what} is already scaled; the model scales raw rows by its own stats")
    as_matrix(x.rows.numeric)
    names = x.feature_names()
    check_input_names(ensemble, names, what)
    if ensemble.scaling is not None:
        _check_one_hot(ensemble.scaling, x.rows, names)
    return x.rows


# Blocks each scoring worker gets at least. On a 2-vCPU Xeon, starting
# and stopping a pool of two forked workers from a 100 MB process took
# 9 ms, and one 1024-row block at I=5, d=10 scored in 5.2 ms (1.0 ms at
# I=1); at 4 blocks each, a worker scores for about twice the pool's cost.
POOL_MIN_BLOCKS = 4

# Iterations each training worker gets at least in an epoch. On a 2-vCPU
# Xeon, BLAS threads 1, the 3-member feed-forward net at d=121 ran
# 0.8-0.95 ms of rounds per iteration in-process. Dealt 2+1 to two forked
# workers, an epoch took about 0.65 of that in its slower worker, plus a
# fixed 12-220 ms (median about 70): two forks of a 65 MB process, their
# fresh workspaces, and the two new workers sharing one CPU until the
# kernel moves one. So the pool pays off past about 200 ms of rounds,
# some 210 iterations. At 256 a worker, epochs of 512 iterations or more
# pool, as train-kdd's 2346 do; train-lstm's 96 (32 a member, and one
# such epoch pooled took 1.24x the serial time) stay in-process.
POOL_MIN_STEPS = 256


def _add_scores(ensemble: EnsembleModel, rows: Rows, blocks: list[slice],
                work: Workspace, total: np.ndarray) -> None:
    """Add every member's score of each row of blocks (model.row_chunks
    slices) to that row's entry of total, in member order: each block
    expanded (Rows.take), scaled by ensemble.scaling when it records one,
    and scored by each member (model.anomaly_score)."""
    for block in blocks:
        x_block = rows.take(block)
        if ensemble.scaling is not None:
            x_block = _scale_rows(Rows.dense(x_block), ensemble.scaling).numeric
        for member in ensemble.members:
            total[block] += anomaly_score(member, x_block, work)


def ensemble_score(ensemble: EnsembleModel, x: Dataset,
                   work: Workspace | None = None) -> np.ndarray:
    """Mean of member anomaly scores, one value per row of x, a Dataset
    of raw features: the scoring call of edenet score, Phase I cells and
    the reweight pass. A lone net scores as a one-member ensemble, to the
    bit.

    x is checked once (_input_rows), in this process, then scored
    forward-only in blocks of rows (model.row_chunks, by _add_scores).
    Each block is scaled by ensemble.scaling when it records one
    (data._scale_rows: elementwise, and a checked one-hot column has min 0
    and span 1 or span 0, so a block gets the bits of apply_scale's
    whole-input copy). A row's score can still differ in the last bits
    from a whole-matrix forward. Rows share nothing, so the blocks are
    cut into forkpool.workers(blocks, POOL_MIN_BLOCKS) contiguous runs
    (forkpool.map_runs: one run scores here, more each in a forked
    worker), each adding its rows' scores into a shared anonymous mapping
    (forkpool.shared_zeros), in the order one process would, so the
    scores are the same bytes. Every run scores into work when given
    (a forked worker into its copy-on-write copy), else into one new
    Workspace; what work held before does not change the scores.
    """
    rows = _input_rows(ensemble, x, "input")
    blocks = row_chunks(rows.n_rows)
    work = Workspace() if work is None else work
    total = forkpool.shared_zeros(rows.n_rows)  # each run's sums land here
    forkpool.map_runs(lambda run: _add_scores(ensemble, rows, blocks[run], work, total),
                      len(blocks), forkpool.workers(len(blocks), POOL_MIN_BLOCKS))
    return total / ensemble.size


def update_sample_weights(scores: np.ndarray, eps: float = REWEIGHT_EPS) -> SampleWeights:
    """Turn raw ensemble scores into a sampling distribution.

    Scores are min-max normalized, shifted by eps so every sample keeps a
    floor probability, and renormalized. All-equal scores give the uniform
    distribution.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = normalize_scores(scores)
    shifted = s + eps
    return SampleWeights(shifted / shifted.sum())


def training_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Member-choice stream and batch-sampling stream for one run.

    Kept separate so consumers that fix the member (size-1 ensembles,
    reference loops) can reproduce the batch sequence exactly.
    """
    member_ss, batch_ss = spawn_seeds((seed, 1), 2)
    return make_rng(member_ss), make_rng(batch_ss)


def draw_batch_indices(rng: np.random.Generator, n: int, batch_size: int,
                       weights: SampleWeights) -> np.ndarray:
    """One minibatch of row indices, sampled with replacement under the
    current weights.

    Inverse-CDF sampling over weights.cdf: each of batch_size uniforms
    picks the first row whose cumulative weight exceeds it. This is what
    Generator.choice(n, size=batch_size, p=weights.values) computes, draw
    for draw, without rebuilding the CDF on every call.
    """
    if n != len(weights.values):
        raise ShapeError(f"n={n} rows but {len(weights.values)} weights")
    return weights.cdf.searchsorted(rng.random(batch_size), side="right")


def _epoch_schedule(member_rng: np.random.Generator, batch_rng: np.random.Generator,
                    n_members: int, iters: int, n: int, batch_size: int,
                    weights: SampleWeights) -> tuple[np.ndarray, np.ndarray]:
    """(member index, batch row indices) of every iteration of one epoch:
    shapes (iters,) and (iters, batch_size).

    The draws come from the two streams in the one-iteration-at-a-time
    order. Member picks are drawn one call at a time: a single call for
    all of them would use the stream's bits differently. The uniforms
    behind the batches are one double each, so one call for the epoch
    gives the same rows.
    """
    who = np.array([member_rng.integers(n_members) for _ in range(iters)], dtype=np.int64)
    rows = draw_batch_indices(batch_rng, n, iters * batch_size, weights)
    return who, rows.reshape(iters, batch_size)


def _run_rounds(run: slice, member0: EdeNet, rows: Rows, batches: np.ndarray,
                sched: np.ndarray, n_steps: np.ndarray, block: np.ndarray,
                grad_block: np.ndarray, state: AdamState, stacks: dict, work: Workspace,
                per_iter: np.ndarray) -> int | None:
    """The lockstep rounds of one epoch over run, a contiguous run of the
    block's rows, which are sorted by step count, most first: round k
    takes the k-th step of every row of run that has one, a leading part
    of run, as one member stack (model.loss_and_grads) and one Adam step
    over those rows.

    sched[r, k] is the iteration of block row r's k-th step and n_steps[r]
    its step count; the rounds touch run's rows of block, grad_block and
    state (AdamState.rows). stacks caches member stacks by the rows they
    bind, (run.start, row count): one process may take several runs.
    Each iteration's (mean_lr, mean_le, combined) goes to its row of
    per_iter. Returns the run's first iteration with a non-finite loss,
    in iteration order, or None: the rounds stop once no later round
    holds an earlier iteration.
    """
    sched, n_steps, state = sched[run], n_steps[run], state.rows(run)
    params, grads = block[run], grad_block[run]
    active = [int((n_steps > k).sum()) for k in range(n_steps[0])]
    first_bad = None
    for k, a in enumerate(active):
        if (run.start, a) not in stacks:
            stacks[run.start, a] = (member0.bind(params[:a]), member0.bind(grads[:a]))
        nets, out = stacks[run.start, a]
        its = sched[:a, k]
        combined, mean_lr, mean_le = loss_and_grads(nets, rows.take(batches[its]), work, out)
        per_iter[its] = np.column_stack([mean_lr, mean_le, combined])
        for it, c in zip(its.tolist(), combined):
            if not math.isfinite(c) and (first_bad is None or it < first_bad):
                first_bad = it
        if first_bad is not None and (k + 1 == len(active)
                                      or sched[:active[k + 1], k + 1].min() > first_bad):
            return first_bad
        adam_step(state, params[:a], grads[:a])
    return None


def train_ensemble(ensemble: EnsembleModel, x_train: Dataset,
                   cfg: TrainConfig) -> tuple[EnsembleModel, list[EpochTrace]]:
    """Train the ensemble's members in place on x_train, a Dataset already
    scaled; returns the ensemble, recording x_train's feature_names() and
    scaling_stats for ensemble_score to check and apply, with one trace
    row per epoch. An ensemble that records scaling raises ValueError: its
    reweight pass would scale the rows again. A round's batches and the
    reweight pass's blocks are expanded from the rows as they are read
    (Rows.take), so the expanded matrix is never built.

    Trace rows hold the mean over the epoch's minibatch losses. A
    non-finite loss aborts with the failing epoch and iteration attached.

    Each epoch draws its schedule first, then runs in lockstep rounds
    (_run_rounds) over the rows of one (I, P) parameter block, sorted by
    step count at each epoch start. Each member sees the batches and steps
    of the one-iteration-at-a-time loop in the same order, so every bit
    matches that loop: the per-iteration losses are summed in iteration
    order, and divergence reports the first failing iteration of that
    order. The block, Adam's m and v and the per-iteration losses live in
    shared anonymous mappings (forkpool.shared_zeros). Each epoch cuts the
    rows into min(I, forkpool.workers(iters, POOL_MIN_STEPS)) contiguous
    runs (forkpool.map_runs): one run, as for epochs of fewer than
    2 * POOL_MIN_STEPS iterations and training inside a pool worker (a
    Phase I cell), runs here; more each run in a forked worker. Every run
    gets training's one workspace, which the reweight pass shares (a
    forked worker writes its copy-on-write copy): a round over a rows
    writes into the leading part of the buffers the widest round sized.
    This process keeps the bookkeeping: it advances the Adam step counts
    and raises the smallest failing iteration any run returns. The
    members' flat vectors are written back before each reweight pass and
    at return; after a TrainingDivergedError they hold the last
    written-back values.
    """
    if ensemble.scaling is not None:
        raise ValueError("an ensemble that records scaling would scale its training rows again")
    rows = _input_rows(ensemble, x_train, "training data")
    n = rows.n_rows
    if n == 0:
        raise ValueError("training set is empty")

    size = ensemble.size
    member_rng, batch_rng = training_streams(cfg.seed)
    iters = cfg.resolved_iters(n, size)
    n_runs = min(size, forkpool.workers(iters, POOL_MIN_STEPS))
    # row r of block holds member row_member[r]'s flat vector
    row_member = np.arange(size)
    member0 = ensemble.members[0]
    block = forkpool.shared_zeros((size, member0.flat.size))
    block[...] = [m.flat for m in ensemble.members]
    grad_block = np.empty_like(block)
    state = AdamState(block, lr=cfg.lr)
    stacks: dict[tuple[int, int], tuple[EdeNet, EdeNet]] = {}  # see _run_rounds
    work = Workspace()
    per_iter = forkpool.shared_zeros((iters, 3))  # EpochTrace's mean_lr, mean_le, combined

    def write_back():
        for r, member in enumerate(row_member):
            ensemble.members[member].flat[...] = block[r]

    weights = SampleWeights.uniform(n)
    trace: list[EpochTrace] = []
    for epoch in range(cfg.epochs):
        if cfg.reweight:
            write_back()
            scores = ensemble_score(ensemble, x_train, work)
            if not np.isfinite(scores).all():
                # per-sample scores are encoding losses, so treat this as
                # divergence at the epoch boundary, not a weight error
                raise TrainingDivergedError(epoch, 0, float(np.mean(scores)))
            weights = update_sample_weights(scores)

        who, batches = _epoch_schedule(member_rng, batch_rng, size, iters, n,
                                       cfg.batch_size, weights)
        counts = np.bincount(who, minlength=size)
        # most steps first: round k then runs rows [0, active[k])
        order = np.argsort(-counts, kind="stable")
        moved = np.argsort(row_member)[order]
        block[...] = block[moved]
        state.reorder_rows(moved)
        row_member = order
        n_steps = counts[order]
        # sched[r, k]: the iteration of row r's k-th step
        sched = np.zeros((size, n_steps[0]), dtype=np.int64)
        for r, member in enumerate(row_member):
            sched[r, :n_steps[r]] = np.flatnonzero(who == member)
        found = forkpool.map_runs(
            lambda run: _run_rounds(run, member0, rows, batches, sched, n_steps, block,
                                    grad_block, state, stacks, work, per_iter), size, n_runs)
        first_bad = min((it for it in found if it is not None), default=None)
        if first_bad is not None:
            raise TrainingDivergedError(epoch, first_bad, float(per_iter[first_bad, 2]))
        state.step = [s + c for s, c in zip(state.step, n_steps.tolist())]
        # a sequential scan adds in iteration order; np.sum would pair terms
        trace.append(EpochTrace(epoch, *(np.add.accumulate(per_iter)[-1] / iters).tolist()))
    write_back()
    return replace(ensemble, columns=x_train.feature_names(),
                   scaling=x_train.scaling_stats), trace


def write_trace_csv(path, trace: list[EpochTrace]) -> None:
    write_table(path, ["epoch", "mean_Lr", "mean_Le", "combined"], map(astuple, trace))
