"""Meta-learning over ensemble size.

Phase I trains an ensemble per (task, candidate I) pair and records the
test AUROC next to the task's meta-features. Phase II fits the kernel
regressor on those records. Phase III scores each candidate for a new
task and keeps the argmax, preferring the smallest I on ties.

Meta-features are simple dataset descriptors: instance count, sparse
column count (strictly more than half exact zeros), and the counts of
positively and negatively skewed columns under the mean-median skewness
measure.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from . import forkpool
from .data import Dataset, read_number_table, write_table
from .ensemble import EpochTrace, TrainConfig, ensemble_score, init_ensemble, train_ensemble
from .errors import UndefinedAurocError
from .metrics import auroc
from .model import ArchSpec, make_arch
from .rng import derived_seed
from .svr import DEFAULT_C, DEFAULT_EPSILON, SvrModel, fit_svr, predict_svr


def pearson_skewness(column) -> float:
    """3 * (mean - median) / population std; 0 for constant columns."""
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.size == 0:
        raise ValueError("column must be a nonempty 1-D array")
    # test max == min, not std == 0: for some constant values the float
    # mean is off by an ulp, leaving a ~1e-16 std that would turn pure
    # rounding noise into a +-3 skewness
    if float(col.max()) == float(col.min()):
        return 0.0
    sigma = float(col.std())
    return 3.0 * (float(col.mean()) - float(np.median(col))) / sigma


@dataclass(frozen=True)
class MetaFeatures:
    n_instances: int
    n_sparse: int
    n_pos_skew: int
    n_neg_skew: int

    def __post_init__(self):
        for name in ("n_instances", "n_sparse", "n_pos_skew", "n_neg_skew"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def as_vector(self) -> np.ndarray:
        return np.array([self.n_instances, self.n_sparse,
                         self.n_pos_skew, self.n_neg_skew], dtype=np.float64)


def extract_meta_features(data: Dataset) -> MetaFeatures:
    """Column counting is strict: exactly-half zeros is not sparse, and
    zero-skew columns land in neither skew bucket. The expanded columns
    are read one at a time (Rows.column)."""
    if data.n_rows == 0:
        raise ValueError("dataset is empty")
    n = data.n_rows
    n_sparse = n_pos = n_neg = 0
    for j in range(data.n_features):
        col = data.rows.column(j)
        if 2 * np.count_nonzero(col == 0.0) > n:
            n_sparse += 1
        skew = pearson_skewness(col)
        if skew > 0:
            n_pos += 1
        elif skew < 0:
            n_neg += 1
    return MetaFeatures(n_instances=n, n_sparse=n_sparse,
                        n_pos_skew=n_pos, n_neg_skew=n_neg)


@dataclass(frozen=True)
class MetaRecord:
    features: MetaFeatures
    n_members: int
    performance: float

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")
        if not 0.0 <= self.performance <= 1.0:
            raise ValueError("performance must lie in [0, 1]")

    def input_vector(self) -> np.ndarray:
        return np.concatenate([self.features.as_vector(),
                               [float(self.n_members)]])


@dataclass
class MetaTask:
    """One training task for Phase I: a normal-only training set, scaled
    as the members train on it (its scaling_stats, None if unscaled), and
    a labeled test set of raw rows with the training set's column names,
    which run_cell's ensemble checks and scales."""

    train: Dataset
    test: Dataset
    name: str = ""

    def __post_init__(self):
        if self.test.labels is None:
            raise ValueError("meta task test split must be labeled")
        if self.train.n_features != self.test.n_features:
            raise ValueError("train/test feature widths differ")


def run_cell(task: MetaTask, spec: ArchSpec, n_members: int, cfg: TrainConfig
             ) -> tuple[np.ndarray, list[EpochTrace]]:
    """One Phase I cell: an ensemble of n_members nets of arch `spec`,
    initialised and trained on task.train under cfg.seed, which records
    the training rows' columns and scaling, and scored on the raw
    task.test rows, held to those columns, as edenet score scores a saved
    model. Returns the raw test scores and the epoch trace."""
    ens, trace = train_ensemble(init_ensemble(spec, n_members, seed=cfg.seed), task.train, cfg)
    return ensemble_score(ens, task.test), trace


Cell = tuple[MetaTask, ArchSpec, int, TrainConfig]


def run_cells(cells: list[Cell]) -> Iterator[tuple[np.ndarray, list[EpochTrace]]]:
    """run_cell's (scores, trace) for each (task, spec, n_members, cfg)
    cell, yielded in cell order. Cells share nothing, so they run in
    forkpool.workers(len(cells)) forked processes, in this one when that
    is 1 (forkpool.ordered_map): the workers inherit the cells, so no task
    is pickled. The first cell to fail, in cell order, raises its own
    exception here. Then, or when the caller closes the iterator early,
    the workers are stopped and joined, and no further cell runs. A cell's
    ensemble_score runs in its worker, which starts no pool of its own."""
    return forkpool.ordered_map(lambda cell: run_cell(*cell), cells)


def build_meta_dataset(tasks: list[MetaTask], candidates: list[int],
                       cfg: TrainConfig, arch_template: dict | None = None
                       ) -> list[MetaRecord]:
    """Phase I: one record per (task, candidate) with a defined AUROC.

    Each pair is a cell that trains under its own derived seed, so records
    do not depend on evaluation order, and the cells run in run_cells'
    workers. Pairs whose test split is single-class are skipped with a
    warning instead of failing the whole build. Every task's arch
    (arch_template at the task's width) is built before the first cell
    trains, so a bad override trains nothing.
    """
    if not tasks:
        raise ValueError("need at least one task")
    if not candidates:
        raise ValueError("need at least one candidate")
    specs = [make_arch(task.train.n_features, arch_template) for task in tasks]
    cells = [(task, spec, cand, replace(cfg, seed=derived_seed(cfg.seed, t_idx, cand)))
             for t_idx, (task, spec) in enumerate(zip(tasks, specs)) for cand in candidates]
    records: list[MetaRecord] = []
    with closing(run_cells(cells)) as results:
        for t_idx, task in enumerate(tasks):
            feats = extract_meta_features(task.train)
            for cand in candidates:
                scores, _ = next(results)
                try:
                    perf = auroc(scores, task.test.labels)
                except UndefinedAurocError:
                    label = task.name or f"task {t_idx}"
                    warnings.warn(f"skipping {label}, I={cand}: "
                                  "test split has a single class")
                    continue
                records.append(MetaRecord(features=feats, n_members=cand,
                                          performance=perf))
    return records


# ---------------------------------------------------------------------------
# Phase II / III


def svr_fit(records: list[MetaRecord], C: float = DEFAULT_C,
            epsilon: float = DEFAULT_EPSILON, gamma: float | None = None
            ) -> SvrModel:
    """Fit the meta-learner on [meta-features, I] -> performance rows."""
    if len(records) < 2:
        raise ValueError("need at least 2 meta records")
    x = np.stack([r.input_vector() for r in records])
    y = np.array([r.performance for r in records])
    return fit_svr(x, y, C=C, epsilon=epsilon, gamma=gamma)


def svr_predict(model: SvrModel, features: MetaFeatures, n_members: int
                ) -> float:
    vec = np.concatenate([features.as_vector(), [float(n_members)]])
    return float(predict_svr(model, vec)[0])


def predict_candidates(model: SvrModel, features: MetaFeatures,
                       candidates: list[int]) -> list[tuple[int, float]]:
    return [(c, svr_predict(model, features, c)) for c in candidates]


def pick_best(candidates: list[int], predictions: list[float]) -> int:
    """Argmax over candidates; exact prediction ties go to the smallest I."""
    if not candidates or len(candidates) != len(predictions):
        raise ValueError("candidates and predictions must align and be nonempty")
    best_c, best_p = None, -np.inf
    for c, p in sorted(zip(candidates, predictions)):
        if p > best_p:
            best_c, best_p = c, p
    return best_c


@dataclass(frozen=True)
class Selection:
    """Phase III's answer: the chosen I, each candidate's predicted score
    in the order given, and the meta-features the predictions used."""

    chosen: int
    predictions: tuple[tuple[int, float], ...]
    features: MetaFeatures


def select_hyperparams(model: SvrModel, new_task: Dataset,
                       candidates: list[int]) -> Selection:
    """Phase III: predicted-best ensemble size for an unseen dataset."""
    if not candidates:
        raise ValueError("candidate list is empty")
    feats = extract_meta_features(new_task)
    scored = predict_candidates(model, feats, list(candidates))
    chosen = pick_best([c for c, _ in scored], [p for _, p in scored])
    return Selection(chosen=chosen, predictions=tuple(scored), features=feats)


# ---------------------------------------------------------------------------
# meta-dataset files

META_CSV_FIELDS = ["n_instances", "n_sparse", "n_pos_skew", "n_neg_skew",
                   "I", "auroc"]


def save_meta_csv(records: list[MetaRecord], path) -> None:
    write_table(path, META_CSV_FIELDS, ([
        r.features.n_instances, r.features.n_sparse, r.features.n_pos_skew,
        r.features.n_neg_skew, r.n_members, r.performance] for r in records))


def load_meta_csv(path) -> list[MetaRecord]:
    """The records of a meta CSV, its META_CSV_FIELDS columns read by name:
    finite numbers in load_csv's grammar (else CsvParseError names the
    line), integers below 2**53 in the five count columns."""
    *counts, performance = read_number_table(path, META_CSV_FIELDS, "meta CSV")
    for name, col in zip(META_CSV_FIELDS, counts):
        bad = np.flatnonzero((col != np.round(col)) | (np.abs(col) >= 2**53))
        if bad.size:
            raise ValueError(f"meta CSV column {name!r} must hold integers, "
                             f"record {bad[0] + 1} holds {col[bad[0]].item()!r}")
    rows = zip(*(col.astype(np.int64).tolist() for col in counts),
               performance.tolist())
    return [MetaRecord(features=MetaFeatures(*row[:4]), n_members=row[4],
                       performance=row[5]) for row in rows]
