"""Decision rules and metrics: top-q thresholding, confusion-matrix
metrics, and tie-aware AUROC."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atomic import atomic_write_json
from .data import ANOMALY, NORMAL, write_table
from .errors import ShapeError, UndefinedAurocError


def _as_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a nonempty 1-D array")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return s


def _as_labels(labels, n: int, name: str) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.shape != (n,):
        raise ShapeError(f"{name} length {lab.shape} does not match {n} samples")
    if lab.size and not np.isin(lab, (NORMAL, ANOMALY)).all():
        raise ValueError(f"{name} must contain only 0/1 entries")
    return lab.astype(np.int8)


def _top_q_count(q: float, n: int) -> int:
    """ceil(q*n), computed exactly with q read as the decimal it prints as.

    In floating point 0.28*25 is 7.000000000000001, whose ceiling would
    flag 8 of 25 samples instead of 7.
    """
    return math.ceil(Fraction(str(q)) * n)


def threshold_top_q(scores, q: float) -> np.ndarray:
    """Flag exactly ceil(q*n) highest-scoring samples as anomalies, with
    q*n computed exactly (see _top_q_count).

    Ties at the cut go to the earlier index.
    """
    return _top_q(_as_scores(scores), q)[0]


def _top_q(s: np.ndarray, q: float) -> tuple[np.ndarray, float]:
    """threshold_top_q's decisions for finite scores s, and the cut: the
    k-th highest score, k = ceil(q*n), as np.sort places it (which sign a
    zero cut carries depends on that placement)."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    n = s.size
    k = _top_q_count(q, n)
    cut = np.sort(s)[n - k]
    pred = (s > cut).astype(np.int8)
    # the k - (count above the cut) earliest scores at the cut fill the rest
    ties = np.flatnonzero(s == cut)[:k - np.count_nonzero(pred)]
    pred[ties] = ANOMALY
    return pred, float(cut)


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    accuracy: float
    tp: int
    fp: int
    tn: int
    fn: int
    auroc: float | None = None
    threshold_used: float | None = None

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "auroc": self.auroc,
            "threshold_used": self.threshold_used,
            "counts": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
        }


def confusion_metrics(pred, truth) -> EvalReport:
    """Precision/recall/F1/accuracy with the 0-denominator -> 0 convention."""
    pred = np.asarray(pred)
    if pred.ndim != 1 or pred.size == 0:
        raise ShapeError("pred must be a nonempty 1-D array")
    pred = _as_labels(pred, pred.shape[0], "pred")
    truth = _as_labels(truth, pred.shape[0], "truth")

    tp = int(np.sum((pred == ANOMALY) & (truth == ANOMALY)))
    fp = int(np.sum((pred == ANOMALY) & (truth == NORMAL)))
    tn = int(np.sum((pred == NORMAL) & (truth == NORMAL)))
    fn = int(np.sum((pred == NORMAL) & (truth == ANOMALY)))
    n = tp + fp + tn + fn

    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    accuracy = (tp + tn) / n if n else 0.0
    return EvalReport(precision=precision, recall=recall, f1=f1,
                      accuracy=accuracy, tp=tp, fp=fp, tn=tn, fn=fn)


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array, tied values sharing the mean of the
    ranks they span (scipy.stats.rankdata's method="average").

    A tie group that fills sorted positions start .. end-1 takes rank
    (start + 1 + end) / 2, exact in float64 below 2**52 entries.
    """
    v = np.asarray(values)
    # the order within a tie group does not change its ranks
    order = np.argsort(v)
    ordered = v[order]
    first = np.empty(v.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auroc(scores, truth) -> float:
    """Probability a random anomaly outscores a random normal, with half
    credit for ties (average-rank Mann-Whitney form)."""
    s = _as_scores(scores)
    truth = _as_labels(truth, s.size, "truth")
    n_pos = int(np.sum(truth == ANOMALY))
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAurocError(
            "AUROC needs at least one sample of each class")
    ranks = average_ranks(s)
    pos_rank_sum = float(ranks[truth == ANOMALY].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def evaluate(scores, truth, q: float = 0.2) -> EvalReport:
    """Full report: top-q decisions for the confusion metrics, threshold-free
    AUROC. Single-class truth leaves auroc unset instead of failing."""
    s = _as_scores(scores)
    pred, cut = _top_q(s, q)
    report = confusion_metrics(pred, truth)
    report.threshold_used = cut
    try:
        report.auroc = auroc(s, truth)
    except UndefinedAurocError:
        report.auroc = None
    return report


REPORT_FIELDS = ["precision", "recall", "f1", "accuracy", "auroc",
                 "threshold_used", "tp", "fp", "tn", "fn"]


def save_report_json(report: EvalReport, path) -> None:
    atomic_write_json(path, report.to_dict())


def save_report_csv(report: EvalReport, path) -> None:
    """One-row CSV for table assembly; an undefined auroc is an empty field."""
    write_table(path, REPORT_FIELDS, [[getattr(report, field) for field in REPORT_FIELDS]])
