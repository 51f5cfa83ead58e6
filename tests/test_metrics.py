import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edenet.errors import ShapeError, UndefinedAurocError
from edenet.metrics import (
    EvalReport,
    auroc,
    average_ranks,
    confusion_metrics,
    evaluate,
    save_report_csv,
    save_report_json,
    threshold_top_q,
)

score_lists = st.lists(st.floats(-100, 100), min_size=2, max_size=40)


# ---------------------------------------------------------------------------
# thresholding


def test_threshold_flags_single_top_score():
    assert np.array_equal(threshold_top_q([0.1, 0.9, 0.5, 0.2], 0.25),
                          [0, 1, 0, 0])


def test_threshold_ties_go_to_earlier_index():
    assert np.array_equal(threshold_top_q([0.3, 0.3, 0.3, 0.3], 0.5),
                          [1, 1, 0, 0])


def test_threshold_count_is_ceiling():
    pred = threshold_top_q(np.arange(10, dtype=float), 0.11)
    assert int(pred.sum()) == 2  # ceil(1.1)
    assert pred[9] == 1 and pred[8] == 1


def exact_top_q_count(q: float, n: int) -> int:
    """Oracle: the smallest k with k >= q*n, in decimal arithmetic with q
    read as the decimal it prints as."""
    qd = Decimal(repr(q))
    return next(k for k in range(n + 1) if k >= qd * n)


def test_threshold_count_is_exact_where_float_product_overshoots():
    # 0.28 * 25 is 7.000000000000001 in floating point
    s = np.arange(25, dtype=float)
    assert exact_top_q_count(0.28, 25) == 7
    assert int(threshold_top_q(s, 0.28).sum()) == 7
    report = evaluate(s, (s >= 18).astype(int), q=0.28)
    assert (report.tp, report.fp) == (7, 0)
    assert report.threshold_used == 18.0


@given(score_lists, st.floats(0.01, 0.99))
def test_threshold_always_flags_ceil_qn(scores, q):
    pred = threshold_top_q(scores, q)
    assert int(pred.sum()) == exact_top_q_count(q, len(scores))


@given(score_lists, st.floats(0.01, 0.99))
def test_threshold_flags_only_top_values(scores, q):
    s = np.array(scores)
    pred = threshold_top_q(s, q)
    if pred.min() == 0:  # skip degenerate all-flagged case
        assert s[pred == 1].min() >= s[pred == 0].max()


@pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5])
def test_threshold_rejects_q_outside_open_interval(q):
    with pytest.raises(ValueError):
        threshold_top_q([1.0, 2.0], q)


def test_threshold_rejects_bad_scores():
    with pytest.raises(ValueError):
        threshold_top_q([], 0.5)
    with pytest.raises(ValueError):
        threshold_top_q([1.0, np.nan], 0.5)


# ---------------------------------------------------------------------------
# confusion metrics


def test_confusion_perfect_prediction():
    r = confusion_metrics([0, 1, 0, 1], [0, 1, 0, 1])
    assert (r.precision, r.recall, r.f1, r.accuracy) == (1.0, 1.0, 1.0, 1.0)
    assert (r.tp, r.fp, r.tn, r.fn) == (2, 0, 2, 0)


def test_confusion_no_positive_predictions_gives_zeros():
    r = confusion_metrics([0, 0, 0], [1, 1, 0])
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
    assert r.accuracy == pytest.approx(1 / 3)


def test_confusion_worked_example():
    # tp=3 fp=1 fn=2 tn=4
    pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    truth = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    r = confusion_metrics(pred, truth)
    assert r.precision == pytest.approx(0.75)
    assert r.recall == pytest.approx(0.6)
    assert r.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert r.accuracy == pytest.approx(0.7)


def test_confusion_validates_inputs():
    with pytest.raises(ShapeError):
        confusion_metrics([0, 1], [0, 1, 1])
    with pytest.raises(ValueError):
        confusion_metrics([0, 2], [0, 1])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_confusion_counts_partition_the_samples(bits):
    pred = bits
    truth = bits[::-1]
    r = confusion_metrics(pred, truth)
    assert r.tp + r.fp + r.tn + r.fn == len(bits)


# ---------------------------------------------------------------------------
# auroc


def brute_force_auroc(scores, truth):
    """Pairwise comparison oracle, half credit on ties."""
    s = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos = s[truth == 1]
    neg = s[truth == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(pos) * len(neg))


def definition_ranks(values) -> list[float]:
    """Rank i = (values below it) + (its ties, itself included, + 1) / 2."""
    return [sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2
            for v in values]


# a few fixed values besides the drawn ones, so ties are common
tied_floats = st.lists(st.sampled_from([-1.5, 0.0, 2.0, 1e300])
                       | st.floats(-3, 3, allow_nan=False, width=16),
                       min_size=1, max_size=50)


@given(tied_floats)
def test_average_ranks_match_their_definition(values):
    assert average_ranks(np.array(values)).tolist() == definition_ranks(values)


def test_average_ranks_match_scipy_rankdata_bytes():
    rankdata = pytest.importorskip("scipy.stats").rankdata
    rng = np.random.default_rng(11)
    for n in [1, 2, 7, 100, 1000]:
        for values in (rng.standard_normal(n), rng.integers(0, 4, n).astype(float)):
            ranks = average_ranks(values)
            assert ranks.tobytes() == rankdata(values, method="average").tobytes()


def test_auroc_worked_example():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auroc_perfect_and_inverted():
    scores = [1.0, 2.0, 3.0, 4.0]
    assert auroc(scores, [0, 0, 1, 1]) == 1.0
    assert auroc(scores, [1, 1, 0, 0]) == 0.0


def test_auroc_all_tied_scores_is_half():
    assert auroc([5.0] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)


def test_auroc_single_class_is_undefined():
    with pytest.raises(UndefinedAurocError):
        auroc([1.0, 2.0], [1, 1])
    with pytest.raises(UndefinedAurocError):
        auroc([1.0, 2.0], [0, 0])


def test_auroc_matches_pairwise_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        # coarse grid => plenty of ties
        scores = rng.integers(0, 5, n).astype(float)
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        assert auroc(scores, truth) == pytest.approx(
            brute_force_auroc(scores, truth), abs=1e-12)


@given(st.data())
def test_auroc_invariant_under_monotone_transform(data):
    n = data.draw(st.integers(4, 25))
    # grid-valued scores so the transforms stay strictly monotone in floats
    scores = np.array(data.draw(st.lists(
        st.integers(-50_000, 50_000), min_size=n, max_size=n))) / 1000.0
    truth = np.array(data.draw(st.lists(
        st.integers(0, 1), min_size=n, max_size=n)))
    if truth.min() == truth.max():
        truth[0] = 1 - truth[0]
    base = auroc(scores, truth)
    assert auroc(3.0 * scores + 2.0, truth) == pytest.approx(base, abs=1e-9)
    assert auroc(np.exp(scores / 100.0), truth) == pytest.approx(base, abs=1e-9)


@given(st.data())
def test_auroc_of_negated_scores_complements(data):
    n = data.draw(st.integers(4, 25))
    scores = np.array(data.draw(st.lists(
        st.floats(-50, 50), min_size=n, max_size=n)))
    truth = np.array(data.draw(st.lists(
        st.integers(0, 1), min_size=n, max_size=n)))
    if truth.min() == truth.max():
        truth[0] = 1 - truth[0]
    assert auroc(scores, truth) + auroc(-scores, truth) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate and report files


def test_evaluate_combines_threshold_and_auroc():
    scores = [0.1, 0.4, 0.35, 0.8]
    truth = [0, 0, 1, 1]
    r = evaluate(scores, truth, q=0.5)
    # top-2 are 0.8 and 0.4: one hit, one miss
    assert (r.tp, r.fp, r.tn, r.fn) == (1, 1, 1, 1)
    assert r.auroc == pytest.approx(0.75)
    assert r.threshold_used == pytest.approx(0.4)


def test_evaluate_single_class_sets_auroc_none():
    r = evaluate([0.3, 0.1, 0.2], [0, 0, 0], q=0.4)
    assert r.auroc is None
    assert r.tp == 0


def test_report_json_round_trip(tmp_path):
    r = evaluate([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1], q=0.5)
    p = tmp_path / "report.json"
    save_report_json(r, p)
    assert json.loads(p.read_text()) == r.to_dict()


def test_report_json_round_trip_with_none_auroc(tmp_path):
    r = evaluate([0.3, 0.1], [0, 0], q=0.5)
    p = tmp_path / "report.json"
    save_report_json(r, p)
    assert json.loads(p.read_text()) == r.to_dict()
    assert r.auroc is None


def test_report_csv_layout(tmp_path):
    r = EvalReport(precision=0.5, recall=1.0, f1=2 / 3, accuracy=0.5,
                   tp=1, fp=1, tn=0, fn=0, auroc=None, threshold_used=0.25)
    p = tmp_path / "report.csv"
    save_report_csv(r, p)
    header, row = p.read_text().strip().splitlines()
    assert header == "precision,recall,f1,accuracy,auroc,threshold_used,tp,fp,tn,fn"
    cells = row.split(",")
    assert cells[0] == "0.5"
    assert cells[4] == ""  # undefined auroc stays empty
    assert float(cells[2]) == 2 / 3
    assert cells[6:] == ["1", "1", "0", "0"]


def stable_top_q(s, k):
    pred = np.zeros(s.size, dtype=np.int8)
    pred[np.argsort(-s, kind="stable")[:k]] = 1
    return pred


def three_sort_report(scores, truth, q) -> EvalReport:
    """evaluate as it was computed with three sorts: a stable argsort for
    the top-q decisions, np.sort for the threshold and a stable argsort
    for the ranks."""
    s = np.asarray(scores, dtype=float)
    k = math.ceil(Fraction(str(q)) * s.size)
    report = confusion_metrics(stable_top_q(s, k), truth)
    report.threshold_used = float(np.sort(s)[::-1][k - 1])
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    truth = np.asarray(truth)
    n_pos = int(truth.sum())
    if 0 < n_pos < s.size:
        report.auroc = ((float(ranks[truth == 1].sum()) - n_pos * (n_pos + 1) / 2)
                        / (n_pos * (s.size - n_pos)))
    return report


def test_report_bytes_match_the_three_sort_evaluation_on_tied_scores(tmp_path):
    rng = np.random.default_rng(21)
    pools = ([-0.0, 0.0], [-0.0, 0.0, 1.0, -1.0], [0.5, 0.25, 0.5, 2.0, -0.0])
    for trial in range(600):
        n = int(rng.integers(1, 120))
        scores = rng.choice(pools[trial % 3], size=n)
        truth = rng.integers(0, 2, size=n)
        q = float(rng.choice([0.01, 0.1, 0.28, 0.5, 0.9, 0.99]))
        k = math.ceil(Fraction(str(q)) * n)
        assert threshold_top_q(scores, q).tolist() == stable_top_q(scores, k).tolist()
        files = []
        for report in (evaluate(scores, truth, q), three_sort_report(scores, truth, q)):
            save_report_json(report, tmp_path / "report.json")
            save_report_csv(report, tmp_path / "report.csv")
            files.append((tmp_path / "report.json").read_bytes()
                         + (tmp_path / "report.csv").read_bytes())
        assert files[0] == files[1], (scores, truth, q)
