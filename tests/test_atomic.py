import builtins
from dataclasses import replace

import numpy as np
import pytest

import edenet.atomic
from edenet.atomic import atomic_open, atomic_write_json
from edenet.cli import (
    METRIC_NAMES,
    RunConfig,
    _echo_config,
    _write_bench_table,
    _write_plot_data,
    _write_scores,
    main,
)
from edenet.data import generate_synthetic, numeric_schema_for, save_schema
from edenet.ensemble import EpochTrace, init_ensemble, write_trace_csv
from edenet.metalearn import MetaFeatures, MetaRecord, save_meta_csv
from edenet.metrics import evaluate, save_report_csv, save_report_json
from edenet.model import make_arch
from edenet.modelfile import save_model
from edenet.svr import fit_svr


def test_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with atomic_open(path) as fh:
        fh.write("new\r\n")
    assert path.read_bytes() == b"new\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_a_write_makes_the_missing_directories(tmp_path):
    path = tmp_path / "out" / "cell" / "a.txt"
    with atomic_open(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in path.parent.iterdir()] == ["a.txt"]


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


@pytest.fixture
def disk_full(monkeypatch):
    """Make every atomic write store half its first chunk, then fail."""
    def failing_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    def arm():
        monkeypatch.setattr(edenet.atomic, "open", failing_open, raising=False)
    return arm


def _model(seed):
    ens = init_ensemble(make_arch(3, {"hidden_sizes": [4, 3], "latent_dim": 2}), 2, seed=seed)
    return replace(ens, columns=["x0", "x1", "x2"])


def _meta_records(auroc):
    feats = MetaFeatures(n_instances=10, n_sparse=1, n_pos_skew=2, n_neg_skew=0)
    return [MetaRecord(features=feats, n_members=i, performance=auroc)
            for i in (1, 3)]


def _svr(scale):
    x = np.arange(12.0).reshape(6, 2)
    return fit_svr(x, scale * np.sin(x[:, 0]))


def _report(k):
    return evaluate(np.arange(6.0) + k, np.array([0, 0, 0, 0, 1, 1]), q=0.3)


def _summary(k):
    return [("m", name, 0.5 + k / 10, None) for name in METRIC_NAMES]


WRITERS = {
    "model.json": lambda path, k: save_model(_model(k), path),
    "meta_model.json": lambda path, k: save_model(_svr(k + 1.0), path),
    "meta.csv": lambda path, k: save_meta_csv(_meta_records(0.5 + k / 10), path),
    "scores.csv": lambda path, k: _write_scores(path, np.arange(5.0) + k,
                                                np.linspace(0, 1, 5)),
    "report.json": lambda path, k: save_report_json(_report(k), path),
    "report.csv": lambda path, k: save_report_csv(_report(k), path),
    "trace.csv": lambda path, k: write_trace_csv(
        path, [EpochTrace(epoch=0, mean_lr=k, mean_le=1.0, combined=2.0)]),
    "effective_config.json": lambda path, k: _echo_config(
        path.parent, "train", RunConfig(n_members=k + 1)),
    "selection.json": lambda path, k: atomic_write_json(path, {"chosen": k}),
    "bench_table.csv": lambda path, k: _write_bench_table(path, _summary(k)),
    "plot_data.csv": lambda path, k: _write_plot_data(path, _summary(k)),
    "schema.json": lambda path, k: save_schema(
        numeric_schema_for(generate_synthetic(k + 1, 2, 0, 1.0)), path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_interrupted_artifact_write_leaves_the_earlier_file(tmp_path, disk_full,
                                                            name):
    path = tmp_path / name
    WRITERS[name](path, 0)
    before = path.read_bytes()
    disk_full()
    with pytest.raises(OSError):
        WRITERS[name](path, 1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_interrupted_train_keeps_scaling_json(tmp_path, disk_full):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--d", "3", "--n-normal", "30",
                 "--n-anomaly", "0", "--seed", "4"]) == 0
    args = ["train", "--data", str(data / "data.csv"),
            "--schema", str(data / "schema.json"), "--members", "1",
            "--epochs", "1", "--out", str(tmp_path / "run")]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    disk_full()
    assert main(args) == 4
    after = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert after == before
