"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single CRITERION line (PASS/FAIL plus the measured
numbers) so a bare `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Expected values come from independent oracles computed inline:
finite differences for gradients, brute-force pair counting for AUROC,
and a synthetic performance surface with a known argmax for the
meta-selection loop.
"""

import copy
import math
import os
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from edenet.cli import main as cli_main
from edenet.data import (
    Dataset,
    fit_scale,
    generate_synthetic,
    load_csv,
    load_schema,
    split_normal_train,
)
from edenet.ensemble import (
    SampleWeights,
    TrainConfig,
    draw_batch_indices,
    ensemble_score,
    init_ensemble,
    train_ensemble,
    training_streams,
    update_sample_weights,
)
from edenet.metalearn import (
    MetaRecord,
    extract_meta_features,
    pearson_skewness,
    select_hyperparams,
    svr_fit,
)
from edenet.metrics import auroc, confusion_metrics, threshold_top_q
from edenet.model import EdeNet, make_arch
from edenet.rng import make_rng
from oracles import block_scores, lone_loss, lone_loss_and_grads, textbook_optimizer

REPO = Path(__file__).resolve().parent.parent

FD_STEP = 1e-5
GRAD_REL_TOL = 1e-4
GRAD_ABS_FLOOR = 1e-8


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _full_gradcheck(net: EdeNet, x: np.ndarray) -> tuple[int, int, float]:
    """Check every parameter entry against central differences.

    Returns (entries checked, failures, worst tolerance fraction). An
    entry passes when |analytic - fd| <= 1e-4 * max(|analytic|, |fd|)
    + 1e-8; the absolute floor keeps near-zero gradients from amplifying
    finite difference noise into spurious relative errors. The fraction
    is gap/tolerance, so anything below 1.0 is a pass.
    """
    _, _, _, grads = lone_loss_and_grads(net, x)
    checked = failures = 0
    worst = 0.0
    for p, g in zip(net.params(), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + FD_STEP
            up = lone_loss(net, x)
            flat_p[k] = orig - FD_STEP
            down = lone_loss(net, x)
            flat_p[k] = orig
            fd = (up - down) / (2 * FD_STEP)
            a = flat_g[k]
            gap = abs(a - fd)
            tol = GRAD_REL_TOL * max(abs(a), abs(fd)) + GRAD_ABS_FLOOR
            if gap > tol:
                failures += 1
            worst = max(worst, gap / tol)
            checked += 1
    return checked, failures, worst


def test_criterion_1_gradients_match_finite_differences():
    configs = [
        ("feedforward d=7 c=3",
         make_arch(7, {"hidden_sizes": (10, 6), "latent_dim": 3})),
        ("lstm d=8 h=5 T=2",
         make_arch(8, {"encoder_kind": "lstm", "latent_dim": 2,
                       "hidden_dim": 5, "seq_len": 2})),
    ]
    total = failures = 0
    worst = 0.0
    for c_idx, (_, spec) in enumerate(configs):
        for seed in range(20):
            rng = make_rng((7100, c_idx, seed))
            net = EdeNet.initialize(spec, rng)
            x = rng.standard_normal((6, spec.input_dim))
            n, f, w = _full_gradcheck(net, x)
            total += n
            failures += f
            worst = max(worst, w)
    _report(1, failures == 0,
            f"{total} gradient entries over 40 nets (2 encoder kinds x "
            f"20 seeds), {failures} outside tolerance, worst at "
            f"{worst:.1%} of the allowed gap")


# ---------------------------------------------------------------------------
# 2. training efficacy on synthetic data


def test_criterion_2_training_halves_loss_and_separates_classes():
    train_raw = generate_synthetic(10, 2000, 0, 4.0, seed=100)
    test_raw = generate_synthetic(10, 400, 100, 4.0, seed=101)
    train = fit_scale(Dataset(features=train_raw.features))

    spec = make_arch(10, {"hidden_sizes": (32, 16), "latent_dim": 2})
    ens, trace = train_ensemble(init_ensemble(spec, 3, seed=13), train,
                                TrainConfig(epochs=20, batch_size=64, seed=13))
    ratio = trace[-1].combined / trace[0].combined
    # the ensemble records train's scaling and applies it to the raw rows
    score_auroc = auroc(ensemble_score(ens, test_raw), test_raw.labels)
    ok = ratio <= 0.5 and score_auroc >= 0.95
    _report(2, ok,
            f"I=3 E=20 on 2000 normals: final/first combined loss "
            f"{ratio:.4f} (need <= 0.5), test AUROC {score_auroc:.4f} "
            f"(need >= 0.95)")


# ---------------------------------------------------------------------------
# 3. degenerate ensemble equals a plain training loop


def test_criterion_3_single_member_ensemble_equals_direct_loop():
    spec = make_arch(6, {"hidden_sizes": (8, 5), "latent_dim": 2})
    x = make_rng(30).standard_normal((60, 6))
    cfg = TrainConfig(epochs=3, batch_size=8, iters_per_epoch=5,
                      reweight=False, seed=31)

    ens = init_ensemble(spec, 1, seed=cfg.seed)
    oracle = copy.deepcopy(ens.members[0])
    train_ensemble(ens, Dataset(features=x), cfg)

    # plain loop over the same batch stream, uniform weights throughout
    _, batch_rng = training_streams(cfg.seed)
    step = textbook_optimizer(cfg, oracle.params())
    weights = SampleWeights.uniform(x.shape[0])
    for _ in range(cfg.epochs):
        for _ in range(cfg.resolved_iters(x.shape[0], 1)):
            idx = draw_batch_indices(batch_rng, x.shape[0], cfg.batch_size,
                                     weights)
            _, _, _, grads = lone_loss_and_grads(oracle, x[idx])
            step(grads)

    param_gap = max(
        float(np.max(np.abs(pa - pb)))
        for pa, pb in zip(ens.members[0].params(), oracle.params())
    )
    score_gap = float(np.max(np.abs(
        ensemble_score(ens, Dataset(features=x)) - block_scores(oracle, x))))
    ok = param_gap <= 1e-12 and score_gap <= 1e-12
    _report(3, ok,
            f"I=1 ensemble vs direct loop: max param gap {param_gap:.2e}, "
            f"max score gap {score_gap:.2e} (need <= 1e-12)")


# ---------------------------------------------------------------------------
# 4. ensemble score is the member mean


def test_criterion_4_ensemble_score_is_member_mean():
    worst_mean = worst_perm = 0.0
    instances = 0
    for group in range(10):
        rng = make_rng((400, group))
        d = int(rng.integers(3, 9))
        spec = make_arch(d, {"hidden_sizes": (7, 4),
                             "latent_dim": max(1, d // 3)})
        ens = init_ensemble(spec, int(rng.integers(2, 5)), seed=group)
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(2, 12)), d))
            combined = ensemble_score(ens, Dataset(features=x))
            member_mean = np.mean(
                [block_scores(m, x) for m in ens.members], axis=0)
            worst_mean = max(worst_mean,
                             float(np.max(np.abs(combined - member_mean))))
            perm = type(ens)(spec=ens.spec, members=ens.members[::-1],
                             seed=ens.seed)
            worst_perm = max(worst_perm, float(np.max(np.abs(
                ensemble_score(perm, Dataset(features=x)) - combined))))
            instances += 1
    ok = worst_mean <= 1e-12 and worst_perm <= 1e-12
    _report(4, ok,
            f"{instances} instances: max |ensemble - member mean| "
            f"{worst_mean:.2e}, max permutation gap {worst_perm:.2e} "
            f"(need <= 1e-12)")


# ---------------------------------------------------------------------------
# 5. metric oracles


def _oracle_top_q_count(q: float, n: int) -> int:
    """Smallest k with k >= q*n, in decimal arithmetic with q read as the
    decimal it prints as (float q*n can overshoot: 0.28*25 > 7)."""
    qd = Decimal(repr(q))
    return next(k for k in range(n + 1) if k >= qd * n)


def _oracle_topk(scores: np.ndarray, k: int) -> set[int]:
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    return set(order[:k])


def _oracle_counters(pred, truth) -> tuple[int, int, int, int]:
    tp = fp = tn = fn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def _oracle_auroc(scores, truth) -> float:
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (pos.size * neg.size)


def test_criterion_5_metrics_match_independent_oracles():
    rng = make_rng(500)
    worst_auroc_gap = 0.0
    counter_mismatches = 0
    for i in range(100):
        n = int(rng.integers(5, 201))
        if i % 2:  # coarse integer grid forces heavy ties
            scores = rng.integers(0, 6, n).astype(np.float64)
        else:
            scores = rng.uniform(0, 1, n)
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        q = float(rng.uniform(0.05, 0.95))

        pred = threshold_top_q(scores, q)
        k = _oracle_top_q_count(q, n)
        if int(pred.sum()) != k or set(np.flatnonzero(pred == 1)) != \
                _oracle_topk(scores, k):
            counter_mismatches += 1

        rep = confusion_metrics(pred, truth)
        tp, fp, tn, fn = _oracle_counters(pred, truth)
        expected = (
            tp / (tp + fp) if tp + fp else 0.0,
            tp / (tp + fn) if tp + fn else 0.0,
            (tp + tn) / n,
        )
        if (rep.tp, rep.fp, rep.tn, rep.fn) != (tp, fp, tn, fn) or \
                (rep.precision, rep.recall, rep.accuracy) != expected:
            counter_mismatches += 1

        worst_auroc_gap = max(worst_auroc_gap, abs(
            auroc(scores, truth) - _oracle_auroc(scores, truth)))

    worked = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    ok = (counter_mismatches == 0 and worst_auroc_gap <= 1e-12
          and worked == 0.75)
    _report(5, ok,
            f"100 instances (n <= 200, tie-heavy included): "
            f"{counter_mismatches} counter mismatches, max AUROC gap vs "
            f"pairwise oracle {worst_auroc_gap:.2e}, worked example "
            f"{worked:.4f} (need 0.75)")


# ---------------------------------------------------------------------------
# 6. re-weighting contract


def test_criterion_6_reweighting_contract():
    rng = make_rng(600)
    worst_sum = 0.0
    monotone_violations = uniform_violations = 0
    for i in range(50):
        n = int(rng.integers(2, 401))
        if i % 5 == 4:
            scores = np.full(n, float(rng.uniform(0, 10)))
        else:
            scores = rng.uniform(0, 10, n)
        w = update_sample_weights(scores, 0.05).values
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        order = np.argsort(scores, kind="stable")
        s_sorted, w_sorted = scores[order], w[order]
        for a, b, wa, wb in zip(s_sorted[:-1], s_sorted[1:],
                                w_sorted[:-1], w_sorted[1:]):
            if (a < b and not wa < wb) or (a == b and wa != wb):
                monotone_violations += 1
        if scores.min() == scores.max() and \
                np.max(np.abs(w - 1.0 / n)) > 1e-12:
            uniform_violations += 1
    ok = (worst_sum <= 1e-12 and monotone_violations == 0
          and uniform_violations == 0)
    _report(6, ok,
            f"50 score vectors: max |sum - 1| {worst_sum:.2e}, "
            f"{monotone_violations} monotonicity violations, "
            f"{uniform_violations} constant-score vectors not uniform")


# ---------------------------------------------------------------------------
# 7. skewness and sparse counting


def test_criterion_7_skewness_and_sparse_rules():
    rng = make_rng(700)
    worst_invariance = 0.0
    for _ in range(20):
        col = rng.standard_normal(int(rng.integers(3, 60)))
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-5.0, 5.0))
        worst_invariance = max(worst_invariance, abs(
            pearson_skewness(a * col + b) - pearson_skewness(col)))

    worked = pearson_skewness([0.0, 0.0, 0.0, 1.0])
    worked_ok = abs(worked - 1.7321) <= 1e-3

    half = extract_meta_features(
        Dataset(features=np.array([[0.0], [0.0], [1.0], [2.0]]))).n_sparse
    majority = extract_meta_features(
        Dataset(features=np.array([[0.0], [0.0], [0.0], [2.0]]))).n_sparse

    ok = (worst_invariance <= 1e-12 and worked_ok
          and half == 0 and majority == 1)
    _report(7, ok,
            f"skewness affine-invariance gap {worst_invariance:.2e} "
            f"(need <= 1e-12), worked example {worked:.4f} (need 1.7321"
            f" +-1e-3), exactly-half-zeros sparse count {half} (need 0), "
            f"majority-zeros count {majority} (need 1)")


# ---------------------------------------------------------------------------
# 8. meta-selection end to end


def test_criterion_8_meta_selection_recovers_best_ensemble_size():
    master = make_rng(601).standard_normal((800, 6))
    held_out = Dataset(features=make_rng(602).standard_normal((450, 6)))
    sizes = [100, 200, 300, 400, 500, 600, 700, 800]
    candidates = [1, 3, 5, 7, 10, 15]

    def true_perf(n: int, i: int) -> float:
        # smooth surface with its unique argmax at I=5 for every n
        return 0.55 + 0.2 * math.exp(-((i - 5) ** 2) / 8.0) + 0.05 * (n / 800)

    wins = 0
    for trial in range(20):
        rng = make_rng((600, trial))
        records = []
        for n in sizes:
            feats = extract_meta_features(Dataset(features=master[:n]))
            for i in candidates:
                perf = float(np.clip(
                    true_perf(n, i) + rng.normal(0.0, 0.01), 0.0, 1.0))
                records.append(MetaRecord(features=feats, n_members=i,
                                          performance=perf))
        model = svr_fit(records)
        if select_hyperparams(model, held_out, candidates).chosen == 5:
            wins += 1
    ok = wins >= 18
    _report(8, ok,
            f"meta-learner picked I=5 in {wins}/20 noisy trials "
            f"(need >= 18)")


# ---------------------------------------------------------------------------
# 9. byte-identical training runs


def test_criterion_9_training_is_byte_reproducible(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data_dir), "--d", "5",
                     "--n-normal", "80", "--n-anomaly", "0",
                     "--shift", "3.0", "--seed", "4"]) == 0
    args = ["train",
            "--data", str(data_dir / "data.csv"),
            "--schema", str(data_dir / "schema.json"),
            "--members", "2", "--epochs", "3", "--batch-size", "16",
            "--seed", "11"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "model.json").read_bytes()
    second = (tmp_path / "b" / "model.json").read_bytes()
    ok = first == second
    _report(9, ok,
            f"repeated train runs wrote {len(first)} model bytes, "
            f"identical: {ok}")


# ---------------------------------------------------------------------------
# 10. KDD99 stretch


KDD_ENV = "EDENET_KDD99_PATH"
KDD_NAMES = ("kddcup.data_10_percent", "kddcup.data_10_percent_corrected",
             "kddcup.data_10_percent.txt")


def _kdd99_file() -> Path | None:
    override = os.environ.get(KDD_ENV)
    if override:
        p = Path(override)
        if p.exists():
            return p
    for name in KDD_NAMES:
        p = REPO / "data" / name
        if p.exists():
            return p
    return None


def test_criterion_10_kdd99_stretch():
    path = _kdd99_file()
    if path is None:
        print("CRITERION 10: SKIP - KDD99 10% file not present "
              f"(set ${KDD_ENV} or place it under data/)")
        pytest.skip("KDD99 dataset not available")

    schema = load_schema(REPO / "schemas" / "kdd99_10pct.json")
    ds = load_csv(path, schema, has_header=False)
    assert ds.n_features == 121

    aurocs = []
    for seed in (0, 1, 2):
        train, test = split_normal_train(ds, 0.8, seed=seed)
        ens, _ = train_ensemble(init_ensemble(make_arch(121), 3, seed=seed), fit_scale(train),
                                TrainConfig(epochs=10, batch_size=256, seed=seed))
        aurocs.append(auroc(ensemble_score(ens, test), test.labels))
    mean_auroc = float(np.mean(aurocs))
    ok = mean_auroc >= 0.97
    _report(10, ok,
            f"KDD99 10% (121 dims, labels inverted): mean AUROC over 3 "
            f"seeds {mean_auroc:.4f} (need >= 0.97)")
