"""Ensemble construction, weighted training, and score averaging.

Training keeps I independent nets. Each epoch starts by scoring the whole
training set with the current ensemble and turning those scores into
sampling weights, so samples the ensemble already finds surprising are
seen more often. Every iteration picks one member uniformly at random,
draws one weighted minibatch (with replacement), and updates only that
member.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, ShapeError, TrainingDivergedError
from .layers import as_matrix
from .model import ArchSpec, EdeNet, anomaly_score, loss_and_grads, normalize_scores
from .optim import make_optimizer
from .rng import make_rng, spawn_seeds


@dataclass
class EnsembleModel:
    spec: ArchSpec
    members: list[EdeNet]
    seed: int = 0

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        for m in self.members:
            if m.spec != self.spec:
                raise ValueError("all members must share the ensemble arch")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the ensemble training loop.

    iters_per_epoch defaults to I * ceil(N / batch_size) so each member
    sees roughly one pass over the data per epoch in expectation. epochs
    may be 0, in which case training returns the model unchanged.
    """

    epochs: int = 50
    batch_size: int = 64
    iters_per_epoch: int | None = None
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    reweight: bool = True
    reweight_eps: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.iters_per_epoch is not None and self.iters_per_epoch < 1:
            raise ConfigError("iters_per_epoch must be >= 1 when given")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.reweight_eps <= 0:
            raise ConfigError("reweight_eps must be positive")

    def resolved_iters(self, n_samples: int, n_members: int) -> int:
        if self.iters_per_epoch is not None:
            return self.iters_per_epoch
        return n_members * math.ceil(n_samples / self.batch_size)

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "iters_per_epoch": self.iters_per_epoch,
            "optimizer": self.optimizer,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "reweight": self.reweight,
            "reweight_eps": self.reweight_eps,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown train config keys: {sorted(extra)}")
        return cls(**known)


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


def ensemble_score(ensemble: EnsembleModel, x: np.ndarray) -> np.ndarray:
    """Mean of member anomaly scores, one value per row of x."""
    x = as_matrix(x)
    total = np.zeros(x.shape[0])
    for member in ensemble.members:
        total += anomaly_score(member, x)
    return total / ensemble.size


def update_sample_weights(scores: np.ndarray, eps: float = 0.05) -> SampleWeights:
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


def train_ensemble(ensemble: EnsembleModel, x_train: np.ndarray,
                   cfg: TrainConfig) -> tuple[EnsembleModel, list[EpochTrace]]:
    """Train the ensemble in place; returns it with one trace row per epoch.

    Trace rows hold the mean over the epoch's minibatch losses. A
    non-finite loss aborts with the failing epoch and iteration attached.
    """
    x_train = as_matrix(x_train)
    if x_train.shape[1] != ensemble.spec.input_dim:
        raise ShapeError(
            f"training data has {x_train.shape[1]} columns, "
            f"model expects {ensemble.spec.input_dim}"
        )
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")

    member_rng, batch_rng = training_streams(cfg.seed)
    iters = cfg.resolved_iters(n, ensemble.size)
    # one state per member over its flat vector: same bits as per-array steps
    optim = [
        make_optimizer(cfg.optimizer, [m.flat], lr=cfg.lr, beta1=cfg.beta1,
                       beta2=cfg.beta2, eps=cfg.eps)
        for m in ensemble.members
    ]

    weights = SampleWeights.uniform(n)
    trace: list[EpochTrace] = []
    for epoch in range(cfg.epochs):
        if cfg.reweight:
            scores = ensemble_score(ensemble, x_train)
            if not np.isfinite(scores).all():
                # per-sample scores are encoding losses, so treat this as
                # divergence at the epoch boundary, not a weight error
                raise TrainingDivergedError(epoch, 0, float(np.mean(scores)))
            weights = update_sample_weights(scores, cfg.reweight_eps)

        sum_lr = sum_le = sum_combined = 0.0
        for it in range(iters):
            member_idx = int(member_rng.integers(ensemble.size))
            idx = draw_batch_indices(batch_rng, n, cfg.batch_size, weights)
            member = ensemble.members[member_idx]
            combined, mean_lr, mean_le, grads = loss_and_grads(member, x_train[idx])
            if not math.isfinite(combined):
                raise TrainingDivergedError(epoch, it, combined)
            state, step = optim[member_idx]
            step(state, [member.flat], [np.concatenate([g.ravel() for g in grads])])
            sum_lr += mean_lr
            sum_le += mean_le
            sum_combined += combined

        trace.append(EpochTrace(
            epoch=epoch,
            mean_lr=sum_lr / iters,
            mean_le=sum_le / iters,
            combined=sum_combined / iters,
        ))
    return ensemble, trace


def write_trace_csv(path, trace: list[EpochTrace]) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_Lr", "mean_Le", "combined"])
        for row in trace:
            writer.writerow([row.epoch, row.mean_lr, row.mean_le, row.combined])
