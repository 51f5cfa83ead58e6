import multiprocessing
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edenet.data import Dataset, apply_scale, fit_scale
from edenet.ensemble import TrainConfig, ensemble_score, init_ensemble, train_ensemble
from edenet.errors import CsvParseError, ShapeError, TrainingDivergedError
from edenet.metalearn import (
    MetaFeatures,
    MetaRecord,
    MetaTask,
    build_meta_dataset,
    cell_workers,
    extract_meta_features,
    load_meta_csv,
    pearson_skewness,
    pick_best,
    predict_candidates,
    run_cell,
    run_cells,
    save_meta_csv,
    select_hyperparams,
    svr_fit,
)
from edenet.metrics import auroc
from edenet.model import make_arch
from edenet.rng import derived_seed, make_rng

TINY_TRAIN = TrainConfig(epochs=1, batch_size=8, iters_per_epoch=2, seed=5)
TINY_ARCH = {"hidden_sizes": (8, 5), "latent_dim": 2}


def make_task(seed, n_train=20, n_test=16, d=4, name=""):
    rng = make_rng(seed)
    train = Dataset(features=rng.standard_normal((n_train, d)))
    test = Dataset(features=rng.standard_normal((n_test, d)),
                   labels=(np.arange(n_test) % 2))
    return MetaTask(train=train, test=test, name=name)


# ---------------------------------------------------------------------------
# skewness


def test_skewness_symmetric_data_is_zero():
    assert pearson_skewness([1.0, 2.0, 3.0]) == 0.0


def test_skewness_constant_column_is_zero():
    assert pearson_skewness([5.0, 5.0, 5.0]) == 0.0


def test_skewness_worked_example():
    # mean 0.25, median 0, population std sqrt(3)/4
    assert pearson_skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(
        np.sqrt(3.0), abs=1e-3)


def test_skewness_sign_tracks_tail_direction():
    assert pearson_skewness([0, 0, 0, 10]) > 0
    assert pearson_skewness([0, 0, 0, -10]) < 0


@given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=30),
       st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
def test_skewness_invariant_under_positive_affine_maps(vals, a, b):
    col = np.array(vals, dtype=np.float64)
    base = pearson_skewness(col)
    # rel term absorbs mean-rounding noise on near-constant columns at
    # large offsets, where the statistic itself is poorly conditioned
    assert pearson_skewness(a * col + b) == pytest.approx(
        base, rel=1e-6, abs=1e-9)


def test_skewness_rejects_bad_input():
    with pytest.raises(ValueError):
        pearson_skewness([])
    with pytest.raises(ValueError):
        pearson_skewness(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# meta-features


def test_meta_features_worked_example():
    x = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 2.0],
        [0.0, 0.0, 3.0],
        [5.0, -5.0, 4.0],
    ])
    feats = extract_meta_features(Dataset(features=x))
    assert feats == MetaFeatures(n_instances=4, n_sparse=2,
                                 n_pos_skew=1, n_neg_skew=1)


def test_exactly_half_zeros_is_not_sparse():
    x = np.array([[0.0], [0.0], [1.0], [2.0]])
    assert extract_meta_features(Dataset(features=x)).n_sparse == 0


def test_constant_columns_count_nowhere():
    feats = extract_meta_features(Dataset(features=np.ones((6, 3))))
    assert feats == MetaFeatures(n_instances=6, n_sparse=0,
                                 n_pos_skew=0, n_neg_skew=0)


def test_meta_features_row_permutation_invariant():
    rng = make_rng(3)
    x = rng.standard_normal((30, 5))
    x[x < 0.3] = 0.0
    base = extract_meta_features(Dataset(features=x))
    perm = extract_meta_features(Dataset(features=x[rng.permutation(30)]))
    assert base == perm


def test_meta_features_empty_dataset_rejected():
    with pytest.raises(ValueError):
        extract_meta_features(Dataset(features=np.zeros((0, 2))))


def test_meta_record_vector_appends_candidate():
    feats = MetaFeatures(100, 2, 1, 0)
    rec = MetaRecord(features=feats, n_members=7, performance=0.9)
    assert rec.input_vector().tolist() == [100.0, 2.0, 1.0, 0.0, 7.0]


def test_meta_record_validation():
    feats = MetaFeatures(10, 0, 0, 0)
    with pytest.raises(ValueError):
        MetaRecord(features=feats, n_members=0, performance=0.5)
    with pytest.raises(ValueError):
        MetaRecord(features=feats, n_members=1, performance=1.5)
    with pytest.raises(ValueError):
        MetaFeatures(-1, 0, 0, 0)


# ---------------------------------------------------------------------------
# phase I


def test_task_seed_is_stable_and_pair_specific():
    assert derived_seed(0, 1, 3) == derived_seed(0, 1, 3)
    seeds = {derived_seed(0, t, c) for t in range(4) for c in (1, 3, 5)}
    assert len(seeds) == 12


def test_build_single_pair_returns_one_record():
    records = build_meta_dataset([make_task(1)], [2], TINY_TRAIN,
                                 arch_template=TINY_ARCH)
    assert len(records) == 1
    assert records[0].n_members == 2
    assert 0.0 <= records[0].performance <= 1.0


def test_build_grid_shares_features_within_task():
    tasks = [make_task(1, n_train=20), make_task(2, n_train=25)]
    records = build_meta_dataset(tasks, [1, 2], TINY_TRAIN,
                                 arch_template=TINY_ARCH)
    assert len(records) == 4
    assert records[0].features == records[1].features
    assert records[2].features == records[3].features
    assert records[0].features.n_instances == 20
    assert records[2].features.n_instances == 25


def test_build_results_do_not_depend_on_candidate_order():
    task = make_task(4)
    fwd = build_meta_dataset([task], [1, 2], TINY_TRAIN, arch_template=TINY_ARCH)
    rev = build_meta_dataset([task], [2, 1], TINY_TRAIN, arch_template=TINY_ARCH)
    assert {(r.n_members, r.performance) for r in fwd} == \
        {(r.n_members, r.performance) for r in rev}


def test_build_skips_single_class_tasks_with_warning():
    bad = MetaTask(
        train=Dataset(features=make_rng(6).standard_normal((15, 3))),
        test=Dataset(features=make_rng(7).standard_normal((8, 3)),
                     labels=np.zeros(8, dtype=int)),
        name="degenerate",
    )
    with pytest.warns(UserWarning, match="degenerate"):
        records = build_meta_dataset([bad, make_task(8, d=3)], [1],
                                     TINY_TRAIN, arch_template=TINY_ARCH)
    assert len(records) == 1


def test_build_validates_arguments():
    with pytest.raises(ValueError):
        build_meta_dataset([], [1], TINY_TRAIN)
    with pytest.raises(ValueError):
        build_meta_dataset([make_task(1)], [], TINY_TRAIN)


def test_run_cell_is_init_train_score_under_one_seed():
    task = make_task(3)
    ens = init_ensemble(make_arch(4, TINY_ARCH), 2, seed=TINY_TRAIN.seed)
    ens, trace = train_ensemble(ens, task.train, TINY_TRAIN)
    scores, cell_trace = run_cell(task, make_arch(4, TINY_ARCH), 2, TINY_TRAIN)
    assert scores.tobytes() == ensemble_score(ens, task.test).tobytes()
    assert [t.combined for t in cell_trace] == [t.combined for t in trace]


def test_run_cell_scales_raw_test_rows_with_the_training_stats():
    """run_cell scores the raw test rows of a task trained on scaled rows
    as apply_scale's copy of them scores under the trained nets; some of
    them lie outside the training range and are clipped."""
    rng = make_rng(3)
    task = MetaTask(train=fit_scale(Dataset(features=rng.standard_normal((20, 4)))),
                    test=Dataset(features=3.0 * rng.standard_normal((40, 4)),
                                 labels=np.arange(40) % 2))
    scaled = apply_scale(task.test, task.train.scaling_stats)
    assert (np.abs(scaled.features - 0.5) == 1.0).any()
    spec = make_arch(4, TINY_ARCH)
    ens = init_ensemble(spec, 2, seed=TINY_TRAIN.seed)
    train_ensemble(ens, task.train, TINY_TRAIN)  # ens, unlike what it returns, records no scaling
    scores, _ = run_cell(task, spec, 2, TINY_TRAIN)
    assert scores.tobytes() == ensemble_score(ens, scaled).tobytes()


def test_run_cell_holds_the_test_rows_to_the_training_columns():
    """A test Dataset of the training width under other names raises
    before it is scored."""
    task = make_task(4)
    renamed = Dataset(rows=task.test.rows, labels=task.test.labels,
                      column_meta=["x0", "x1", "x3", "x2"])
    with pytest.raises(ShapeError, match="input column 2 is 'x3', model expects 'x2'"):
        run_cell(MetaTask(task.train, renamed), make_arch(4, TINY_ARCH), 2, TINY_TRAIN)


def test_worker_count_is_the_affinity_capped_at_the_cell_count(cpus):
    for n_cpus, expected in ((10_000, 9), (2, 2), (1, 1)):
        cpus(n_cpus)
        assert cell_workers(9) == expected
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [TrainingDivergedError(2, 7, float("inf")),
                                   CsvParseError("bad value 'x'", 3)],
                         ids=["diverged", "csv-parse"])
def test_errors_a_cell_can_raise_survive_pickling(error):
    """A pool worker's exception reaches the parent pickled, and the CLI
    maps its type onto the exit code."""
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error)


def test_closing_the_cell_runner_early_stops_the_cells_in_flight(cpus, monkeypatch,
                                                                tmp_path):
    """The cells a worker has begun are stopped, not waited for: after the
    quick first cell, none of the long ones ever finishes."""
    import edenet.metalearn as metalearn_mod
    run = metalearn_mod.run_cell

    def marking(task, spec, n_members, cfg):
        result = run(task, spec, n_members, cfg)
        (tmp_path / f"done-{cfg.seed}").touch()
        return result

    monkeypatch.setattr(metalearn_mod, "run_cell", marking)
    cpus(2)
    spec = make_arch(4, TINY_ARCH)
    cells = [(make_task(0), spec, 1, TINY_TRAIN)] + [
        (make_task(1), spec, 1, replace(TINY_TRAIN, epochs=1000, seed=seed))
        for seed in range(10, 14)]
    results = run_cells(cells)
    next(results)
    results.close()
    assert multiprocessing.active_children() == []
    assert [p.name for p in tmp_path.iterdir()] == [f"done-{TINY_TRAIN.seed}"]


def test_build_records_the_auroc_of_each_cell_under_its_derived_seed():
    tasks = [make_task(1), make_task(2)]
    records = build_meta_dataset(tasks, [1, 2], TINY_TRAIN, arch_template=TINY_ARCH)
    expected = []
    for t_idx, task in enumerate(tasks):
        for cand in (1, 2):
            cfg = replace(TINY_TRAIN, seed=derived_seed(TINY_TRAIN.seed, t_idx, cand))
            expected.append(auroc(run_cell(task, make_arch(4, TINY_ARCH), cand, cfg)[0],
                                  task.test.labels))
    assert [r.performance for r in records] == expected


# ---------------------------------------------------------------------------
# phase II / III


def synthetic_records():
    """Performance peaks at I=5 for every task size."""
    records = []
    for n in (100, 200, 400):
        feats = MetaFeatures(n_instances=n, n_sparse=1, n_pos_skew=2,
                             n_neg_skew=1)
        for i in (1, 3, 5, 7, 10):
            perf = 0.6 + 0.3 * np.exp(-((i - 5) ** 2) / 8.0)
            records.append(MetaRecord(features=feats, n_members=i,
                                      performance=float(perf)))
    return records


def test_svr_fit_needs_two_records():
    with pytest.raises(ValueError):
        svr_fit(synthetic_records()[:1])


def test_meta_regressor_recovers_the_peak():
    model = svr_fit(synthetic_records(), C=10.0, epsilon=0.005)
    feats = MetaFeatures(n_instances=200, n_sparse=1, n_pos_skew=2,
                         n_neg_skew=1)
    preds = predict_candidates(model, feats, [1, 3, 5, 7, 10])
    best = pick_best([c for c, _ in preds], [p for _, p in preds])
    assert best == 5


def test_select_hyperparams_end_to_end():
    model = svr_fit(synthetic_records(), C=10.0, epsilon=0.005)
    new = Dataset(features=make_rng(9).standard_normal((150, 4)))
    sel = select_hyperparams(model, new, [1, 3, 5, 7, 10])
    assert sel.features == extract_meta_features(new)
    assert list(sel.predictions) == predict_candidates(model, sel.features,
                                                       [1, 3, 5, 7, 10])
    assert sel.chosen == pick_best([c for c, _ in sel.predictions],
                                   [p for _, p in sel.predictions])
    with pytest.raises(ValueError):
        select_hyperparams(model, new, [])


def test_pick_best_prefers_smaller_candidate_on_ties():
    assert pick_best([3, 5], [0.4, 0.4]) == 3
    assert pick_best([5, 3], [0.4, 0.4]) == 3
    assert pick_best([7], [0.1]) == 7
    assert pick_best([1, 3, 5], [0.2, 0.9, 0.3]) == 3


def test_pick_best_validates_alignment():
    with pytest.raises(ValueError):
        pick_best([1, 2], [0.5])
    with pytest.raises(ValueError):
        pick_best([], [])


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 1000)),
                min_size=1, max_size=8, unique_by=lambda t: t[0]),
       st.floats(0.001, 10.0), st.floats(-5.0, 5.0))
def test_pick_best_invariant_under_positive_affine_rescaling(pairs, a, b):
    cands = [c for c, _ in pairs]
    preds = [p / 1000.0 for _, p in pairs]
    base = pick_best(cands, preds)
    assert pick_best(cands, [a * p + b for p in preds]) == base


# ---------------------------------------------------------------------------
# meta CSV


def test_meta_csv_round_trip(tmp_path):
    records = synthetic_records()[:6]
    p = tmp_path / "meta.csv"
    save_meta_csv(records, p)
    assert p.read_text().splitlines()[0] == \
        "n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc"
    assert load_meta_csv(p) == records


@pytest.mark.parametrize("row, error, message", [
    ("1_000,0,2,1,3,0.8", CsvParseError,
     "line 3: non-numeric value '1_000' in column 'n_instances'"),
    ("60,x,2,1,3,0.8", CsvParseError, "line 3: non-numeric value 'x' in column 'n_sparse'"),
    ("60,0,2,1,3", CsvParseError, "line 3: expected 6 fields, found 5"),
    ("60,0,2,1,3,nan", CsvParseError, "line 3: non-finite value nan in column 'auroc'"),
    ("60,0,2,1,2.5,0.8", ValueError, "column 'I' must hold integers, record 2 holds 2.5"),
    ("1e16,0,2,1,3,0.8", ValueError, "column 'n_instances' must hold integers"),
])
def test_meta_csv_fields_are_checked_never_coerced(tmp_path, row, error, message):
    p = tmp_path / "meta.csv"
    p.write_text("n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc\n"
                 f"60,0,2,1,1,0.7\n{row}\n")
    with pytest.raises(error, match=message):
        load_meta_csv(p)


def test_meta_csv_is_read_by_column_name(tmp_path):
    """Reordered columns plus a task column give the same records."""
    records = synthetic_records()[:4]
    save_meta_csv(records, tmp_path / "meta.csv")
    moved = tmp_path / "moved.csv"
    moved.write_text("task,auroc,I,n_neg_skew,n_pos_skew,n_sparse,n_instances\n" + "".join(
        f"t{k},{r.performance!r},{r.n_members},{r.features.n_neg_skew},"
        f"{r.features.n_pos_skew},{r.features.n_sparse},{r.features.n_instances}\n"
        for k, r in enumerate(records)))
    assert load_meta_csv(moved) == load_meta_csv(tmp_path / "meta.csv") == records


def test_meta_csv_header_is_checked(tmp_path):
    p = tmp_path / "meta.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_meta_csv(p)
