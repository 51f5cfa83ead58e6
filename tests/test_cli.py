import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import edenet.ensemble as ensemble_mod
from edenet.cli import (METRIC_NAMES, RunConfig, _write_bench_table, _write_plot_data,
                        _write_scores, build_parser, main, read_scores_csv)
from edenet.data import (BLOCK_ROWS, Dataset, ScalingStats, apply_scale, expanded_meta,
                         fit_scale, load_csv, load_scaling, load_schema, load_training_rows,
                         read_number_table, scaling_to_dict, schema_from_dict)
from edenet.ensemble import (POOL_MIN_BLOCKS, EnsembleModel, TrainConfig, ensemble_score,
                             init_ensemble, train_ensemble)
from edenet.errors import ShapeError
from edenet.model import ArchSpec, EdeNet, make_arch, normalize_scores
from edenet.modelfile import load_model, save_model
from edenet.svr import fit_svr
from kdd_shaped import KDD_SCHEMA, write_kdd_rows
from oracles import block_scores

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SMALL_CFG = {
    "arch": {"hidden_sizes": [8, 5], "latent_dim": 2},
    "train": {"epochs": 2, "batch_size": 16, "seed": 3},
    "n_members": 2,
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared synth -> train -> score chain; tests only read from it."""
    ws = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(ws / "synth"), "--d", "4",
                 "--n-normal", "60", "--n-anomaly", "12",
                 "--shift", "3.0", "--seed", "1"]) == 0
    cfg = write_json(ws / "cfg.json", SMALL_CFG)
    assert main(["train", "--config", cfg,
                 "--data", str(ws / "synth" / "data.csv"),
                 "--schema", str(ws / "synth" / "schema.json"),
                 "--out", str(ws / "train")]) == 0
    assert main(["score", "--model", str(ws / "train" / "model.json"),
                 "--data", str(ws / "synth" / "data.csv"),
                 "--schema", str(ws / "synth" / "schema.json"),
                 "--scaling", str(ws / "train" / "scaling.json"),
                 "--out", str(ws / "score")]) == 0
    return ws


# ---------------------------------------------------------------------------
# happy paths


def test_synth_output_is_reparseable(workspace):
    out = workspace / "synth"
    schema = load_schema(out / "schema.json")
    ds = load_csv(out / "data.csv", schema)
    assert ds.n_rows == 72
    assert int(ds.labels.sum()) == 12
    echoed = json.loads((out / "effective_config.json").read_text())
    assert echoed["command"] == "synth"
    assert echoed["synthetic"]["d"] == 4


def test_train_writes_model_trace_and_scaling(workspace):
    out = workspace / "train"
    for name in ("model.json", "trace.csv", "scaling.json",
                 "effective_config.json"):
        assert (out / name).exists()
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_Lr,mean_Le,combined"
    assert len(lines) == 1 + SMALL_CFG["train"]["epochs"]


def test_effective_config_echoes_merged_settings(workspace):
    echoed = json.loads(
        (workspace / "train" / "effective_config.json").read_text())
    assert echoed["command"] == "train"
    assert echoed["train"]["epochs"] == 2
    assert echoed["n_members"] == 2
    assert echoed["out"] == str(workspace / "train")


def test_training_twice_is_byte_identical(workspace, tmp_path):
    args = ["train", "--config", str(workspace / "cfg.json"),
            "--data", str(workspace / "synth" / "data.csv"),
            "--schema", str(workspace / "synth" / "schema.json")]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "model.json").read_bytes() == \
        (tmp_path / "b" / "model.json").read_bytes()


def test_score_csv_layout(workspace):
    path = workspace / "score" / "scores.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row_index,raw_score,normalized_score"
    assert len(lines) == 1 + 72
    raw = read_scores_csv(path)
    norm, = read_number_table(path, ["normalized_score"], "score CSV")
    assert raw.size == 72
    assert norm.min() >= 0.0 and norm.max() <= 1.0


def test_eval_writes_report(workspace, tmp_path, capsys):
    rc = main(["eval", "--scores", str(workspace / "score" / "scores.csv"),
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--q", "0.25", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["auroc"] is not None and 0.0 <= report["auroc"] <= 1.0
    assert (tmp_path / "report.csv").exists()
    out = capsys.readouterr().out
    assert "auroc:" in out and "precision:" in out


def test_eval_single_class_keeps_running(workspace, tmp_path, capsys):
    plain = tmp_path / "plain"
    assert main(["synth", "--out", str(plain), "--d", "4", "--n-normal", "20",
                 "--n-anomaly", "0", "--shift", "3.0", "--seed", "9"]) == 0
    assert main(["score", "--model", str(workspace / "train" / "model.json"),
                 "--data", str(plain / "data.csv"),
                 "--schema", str(plain / "schema.json"),
                 "--out", str(tmp_path / "score")]) == 0
    rc = main(["eval", "--scores", str(tmp_path / "score" / "scores.csv"),
               "--data", str(plain / "data.csv"),
               "--schema", str(plain / "schema.json"),
               "--out", str(tmp_path / "eval")])
    assert rc == 0
    assert "AUROC undefined" in capsys.readouterr().err
    doc = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert doc["auroc"] is None


def test_empty_input_yields_header_only_scores(workspace, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1,x2,x3\n")
    rc = main(["score", "--model", str(workspace / "train" / "model.json"),
               "--data", str(empty),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "scores.csv").read_text().strip() == \
        "row_index,raw_score,normalized_score"


def test_empty_input_of_another_width_is_exit_2(workspace, tmp_path, capsys):
    """Zero rows go through the one scoring call, which checks the width."""
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1,x2\n")
    schema = {"columns": [{"name": f"x{i}"} for i in range(3)]}
    rc = main(["score", "--model", str(workspace / "train" / "model.json"),
               "--data", str(empty), "--schema", write_json(tmp_path / "schema.json", schema),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "input has 3 columns, model expects 4" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_score_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(2)
    raw = rng.standard_normal(30) * 10.0 ** rng.integers(-9, 9, 30)
    raw[:3] = [0.0, -0.0, 5e-324]
    norm = rng.random(30)
    path = tmp_path / "scores.csv"
    _write_scores(path, raw, norm)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["row_index", "raw_score", "normalized_score"])
    for i, (r, s) in enumerate(zip(raw, norm)):
        writer.writerow([i, repr(float(r)), repr(float(s))])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert read_scores_csv(path).tobytes() == raw.tobytes()
    back_norm, = read_number_table(path, ["normalized_score"], "score CSV")
    assert back_norm.tobytes() == norm.tobytes()

    # the bench tables: a method name with a comma and a quote is quoted
    odd = 'odd "m", x'
    summary = [(method, name, 0.25 * k, None if k % 3 else 1e-17)
               for method in (odd, "b") for k, name in enumerate(METRIC_NAMES)]
    _write_plot_data(path, summary)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["method", "metric", "mean", "stddev"])
    for method, name, mean, std in summary:
        writer.writerow([method, name, repr(mean), "" if std is None else repr(std)])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert path.read_text().splitlines()[1].startswith('"odd ""m"", x",precision,')

    _write_bench_table(path, summary)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["method", *(f"{name}_{stat}" for name in METRIC_NAMES
                                 for stat in ("mean", "std"))])
    for method in (odd, "b"):
        writer.writerow([method, *(repr(v) if v is not None else ""
                                   for m, _, mean, std in summary if m == method
                                   for v in (mean, std))])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def test_score_csv_is_read_by_column_name(tmp_path):
    """Reordered columns plus an extra one give the same scores, with no
    row_index column needed; eval reads raw_score alone, so no
    normalized_score column is needed either."""
    raw, norm = np.array([0.5, -2.0, 3e-9]), np.array([0.25, 0.0, 1.0])
    _write_scores(tmp_path / "scores.csv", raw, norm)
    moved = tmp_path / "moved.csv"
    moved.write_text('normalized_score,note,raw_score\n0.25,"a, b",0.5\n'
                     "0.0,x,-2.0\n1.0,,3e-9\n")
    bare = tmp_path / "bare.csv"
    bare.write_text("raw_score\n0.5\n-2.0\n3e-9\n")
    for path in (tmp_path / "scores.csv", moved, bare):
        assert read_scores_csv(path).tobytes() == raw.tobytes()
    for path in (tmp_path / "scores.csv", moved):
        back_norm, = read_number_table(path, ["normalized_score"], "score CSV")
        assert back_norm.tobytes() == norm.tobytes()


@pytest.mark.parametrize("command, text, name", [
    ("eval", "row_index,normalized_score\n0,0.5\n", "raw_score"),
    ("eval", "raw_score,normalized_score,raw_score\n0.1,0.5,0.2\n", "raw_score"),
    ("eval", "", "raw_score"),
    ("meta fit", "n_instances,n_sparse,n_pos_skew,n_neg_skew,I\n60,0,2,1,1\n", "auroc"),
    ("meta fit", "n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc,I\n"
                 "60,0,2,1,1,0.7,1\n", "I"),
    ("meta fit", "", "n_instances"),
], ids=["eval-missing", "eval-twice", "eval-empty", "meta-missing", "meta-twice",
        "meta-empty"])
def test_a_table_without_its_column_once_is_exit_2(tmp_path, workspace, capsys,
                                                   command, text, name):
    table = tmp_path / "table.csv"
    table.write_text(text)
    args = (["eval", "--scores", str(table), "--data", str(workspace / "synth" / "data.csv"),
             "--schema", str(workspace / "synth" / "schema.json")]
            if command == "eval" else ["meta", "fit", "--meta", str(table)])
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert f"header must name column {name!r} once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_row, message", [
    ("1,0.7", "line 3: expected 3 fields, found 2"),
    ("1,0.7,0.5,9", "line 3: expected 3 fields, found 4"),
    ("1,high,0.5", "line 3: non-numeric value 'high' in column 'raw_score'"),
    ("1,nan,0.5", "line 3: non-finite value nan in column 'raw_score'"),
])
def test_eval_malformed_score_row_is_exit_2(workspace, tmp_path, capsys,
                                             bad_row, message):
    lines = (workspace / "score" / "scores.csv").read_text().splitlines()
    lines[2] = bad_row
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--scores", str(scores),
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_default_output_root_comes_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("EDENET_OUTPUT_ROOT", str(tmp_path / "root"))
    assert main(["synth", "--d", "2", "--n-normal", "5", "--n-anomaly", "0"]) == 0
    assert (tmp_path / "root" / "synth" / "data.csv").exists()


# ---------------------------------------------------------------------------
# meta workflow


def tiny_synth(tmp_path, name, n_normal, n_anomaly, seed):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), "--d", "4",
                 "--n-normal", str(n_normal), "--n-anomaly", str(n_anomaly),
                 "--shift", "3.0", "--seed", str(seed)]) == 0
    return out


def test_meta_build_fit_select_chain(tmp_path):
    t1 = tiny_synth(tmp_path, "t1", 40, 0, 11)
    t1_test = tiny_synth(tmp_path, "t1test", 16, 8, 12)
    t2 = tiny_synth(tmp_path, "t2", 30, 0, 13)
    t2_test = tiny_synth(tmp_path, "t2test", 16, 8, 14)
    new_task = tiny_synth(tmp_path, "new", 25, 0, 15)

    cfg = write_json(tmp_path / "meta_cfg.json", {
        "schema": str(t1 / "schema.json"),
        "tasks": [
            {"train": str(t1 / "data.csv"), "test": str(t1_test / "data.csv")},
            {"train": str(t2 / "data.csv"), "test": str(t2_test / "data.csv")},
        ],
        "candidates": [1, 2],
        "arch": SMALL_CFG["arch"],
        "train": {"epochs": 1, "batch_size": 16, "seed": 5},
    })
    assert main(["meta", "build", "--config", cfg,
                 "--out", str(tmp_path / "build")]) == 0
    meta_csv = tmp_path / "build" / "meta.csv"
    lines = meta_csv.read_text().strip().splitlines()
    assert lines[0] == "n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc"
    assert len(lines) == 1 + 4

    assert main(["meta", "fit", "--meta", str(meta_csv),
                 "--out", str(tmp_path / "fit")]) == 0
    assert main(["meta", "fit", "--meta", str(meta_csv),
                 "--out", str(tmp_path / "fit2")]) == 0
    assert (tmp_path / "fit" / "meta_model.json").read_bytes() == \
        (tmp_path / "fit2" / "meta_model.json").read_bytes()

    assert main(["meta", "select",
                 "--model", str(tmp_path / "fit" / "meta_model.json"),
                 "--data", str(new_task / "data.csv"),
                 "--schema", str(new_task / "schema.json"),
                 "--candidates", "1,2",
                 "--out", str(tmp_path / "select")]) == 0
    choice = json.loads((tmp_path / "select" / "selection.json").read_text())
    assert choice["chosen"] in (1, 2)
    assert set(choice["predictions"]) == {"1", "2"}


def write_abc_csv(path, n_normal, n_anomaly, seed):
    """Numeric columns a, b, c plus a label; a is 5.0 on two rows in
    three and 7.0 otherwise, so it has no exact zeros until min-max
    scaling maps 5.0 to 0."""
    rng = np.random.default_rng(seed)
    rows = ["a,b,c,label"]
    for i in range(n_normal + n_anomaly):
        label = int(i >= n_normal)
        b, c = (rng.standard_normal(2) + 3.0 * label).tolist()
        rows.append(f"{7.0 if i % 3 == 0 else 5.0},{b!r},{c!r},{label}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_meta_select_describes_the_rows_meta_build_described(tmp_path, capsys):
    schema = write_json(tmp_path / "schema.json", {
        "columns": [{"name": n, "type": "numeric"} for n in "abc"],
        "label_column": "label", "normal_value": "0"})
    train = write_abc_csv(tmp_path / "train.csv", 15, 3, seed=4)
    cfg = write_json(tmp_path / "meta_cfg.json", {
        "schema": schema,
        "tasks": [{"train": train,
                   "test": write_abc_csv(tmp_path / "test.csv", 12, 6, seed=5)}],
        "candidates": [1, 2],
        "arch": SMALL_CFG["arch"],
        "train": {"epochs": 1, "batch_size": 8, "seed": 5},
    })
    assert main(["meta", "build", "--config", cfg,
                 "--out", str(tmp_path / "build")]) == 0
    assert main(["meta", "fit", "--meta", str(tmp_path / "build" / "meta.csv"),
                 "--out", str(tmp_path / "fit")]) == 0
    capsys.readouterr()
    assert main(["meta", "select",
                 "--model", str(tmp_path / "fit" / "meta_model.json"),
                 "--data", train, "--schema", schema, "--candidates", "1,2",
                 "--out", str(tmp_path / "select")]) == 0

    # oracle: the meta-features meta build recorded for the same file
    with open(tmp_path / "build" / "meta.csv", newline="") as fh:
        built = next(csv.DictReader(fh))
    names = ("n_instances", "n_sparse", "n_pos_skew", "n_neg_skew")
    expected = "meta-features: " + " ".join(f"{n}={built[n]}" for n in names)
    assert built["n_sparse"] == "1"
    assert expected in capsys.readouterr().out.splitlines()


def test_meta_fit_degenerate_records_exit_3(tmp_path, capsys):
    meta_csv = tmp_path / "meta.csv"
    rows = ["n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc"]
    rows += ["100,1,2,0,3,0.9"] * 3  # identical inputs: nothing to fit on
    meta_csv.write_text("\n".join(rows) + "\n")
    rc = main(["meta", "fit", "--meta", str(meta_csv),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_table_orders_methods_and_blanks_single_seed_std(tmp_path):
    cfg = write_json(tmp_path / "bench.json", {
        "synthetic": {"d": 4, "n_train": 80, "n_test_normal": 30,
                      "n_test_anomaly": 10, "shift": 3.0},
        "methods": [
            {"name": "zeta", "n_members": 2},
            {"name": "alpha", "n_members": 1},
        ],
        "arch": SMALL_CFG["arch"],
        "train": {"epochs": 1, "batch_size": 16},
        "seeds": [0],
    })
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    table = (tmp_path / "out" / "bench_table.csv").read_text().strip().splitlines()
    assert table[0].startswith("method,precision_mean,precision_std,")
    assert table[1].split(",")[0] == "zeta"  # config order, not alphabetical
    assert table[2].split(",")[0] == "alpha"
    assert table[1].split(",")[2] == ""  # no stddev from one seed

    plot = (tmp_path / "out" / "plot_data.csv").read_text().strip().splitlines()
    assert plot[0] == "method,metric,mean,stddev"
    assert len(plot) == 1 + 2 * 5
    for sub in ("zeta/seed0", "alpha/seed0"):
        for name in ("scores.csv", "report.json", "trace.csv"):
            assert (tmp_path / "out" / sub / name).exists()


def test_bench_two_seeds_populates_std(tmp_path):
    cfg = write_json(tmp_path / "bench.json", {
        "synthetic": {"d": 3, "n_train": 50, "n_test_normal": 20,
                      "n_test_anomaly": 8, "shift": 3.0},
        "methods": [{"name": "only", "n_members": 1}],
        "arch": {"hidden_sizes": [6, 4], "latent_dim": 1},
        "train": {"epochs": 1, "batch_size": 16},
    })
    assert main(["bench", "--config", cfg, "--seeds", "0,1",
                 "--out", str(tmp_path / "out")]) == 0
    row = (tmp_path / "out" / "bench_table.csv").read_text().strip() \
        .splitlines()[1].split(",")
    assert row[2] != ""
    assert float(row[2]) >= 0.0


def test_bench_rejects_duplicate_method_names(tmp_path):
    cfg = write_json(tmp_path / "bench.json", {
        "synthetic": {"d": 3},
        "methods": [{"name": "m"}, {"name": "m"}],
    })
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def _phase_one_configs(tmp_path, train: dict, b_train: dict) -> tuple[str, str]:
    """A meta build config (2 tasks x I in {1, 2}) and a bench config
    (methods a, b, c x seeds 0, 1), both trained under `train`, and method
    b under b_train over it."""
    tasks = [{"train": str(tiny_synth(tmp_path, f"t{i}", 30, 0, 20 + i) / "data.csv"),
              "test": str(tiny_synth(tmp_path, f"t{i}test", 12, 6, 30 + i) / "data.csv")}
             for i in (1, 2)]
    meta = write_json(tmp_path / "meta.json", {
        "schema": str(tmp_path / "t1" / "schema.json"), "tasks": tasks,
        "candidates": [1, 2], "arch": SMALL_CFG["arch"], "train": train})
    bench = write_json(tmp_path / "bench.json", {
        "synthetic": {"d": 3, "n_train": 60, "n_test_normal": 20, "n_test_anomaly": 8},
        "methods": [{"name": "a", "n_members": 1},
                    {"name": "b", "n_members": 2, "train": b_train},
                    {"name": "c", "n_members": 1}],
        "seeds": [0, 1], "arch": SMALL_CFG["arch"], "train": train})
    return meta, bench


def test_phase_one_outputs_are_the_same_bytes_serial_and_pooled(tmp_path, cpus):
    """One CPU runs every cell in-process, two run them in a pool of two
    workers: meta.csv, the bench tables and every cell's files match."""
    meta, bench = _phase_one_configs(tmp_path, {"epochs": 2, "batch_size": 16}, {})
    cells = [f"{m}/seed{s}/{f}" for m in "abc" for s in (0, 1)
             for f in ("scores.csv", "report.json", "trace.csv")]
    written = {}
    for n_cpus in (1, 2):
        cpus(n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        assert main(["meta", "build", "--config", meta, "--out", str(out / "meta")]) == 0
        assert main(["bench", "--config", bench, "--out", str(out / "bench")]) == 0
        written[n_cpus] = {name: (out / name).read_bytes() for name in [
            "meta/meta.csv", "bench/bench_table.csv", "bench/plot_data.csv",
            *(f"bench/{cell}" for cell in cells)]}
    assert written[1] == written[2]


def test_score_is_the_same_bytes_serial_and_pooled(workspace, tmp_path, cpus, pools):
    """An input of more than 2 * POOL_MIN_BLOCKS blocks, the last one
    partial, scores in two forked workers to the bytes of one process."""
    n_rows = 2 * POOL_MIN_BLOCKS * BLOCK_ROWS + 500
    assert main(["synth", "--out", str(tmp_path / "big"), "--d", "4",
                 "--n-normal", str(n_rows - 50), "--n-anomaly", "50", "--seed", "2"]) == 0
    written = {}
    for n_cpus in (1, 2):
        cpus(n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        assert main(["score", "--model", str(workspace / "train" / "model.json"),
                     "--data", str(tmp_path / "big" / "data.csv"),
                     "--schema", str(tmp_path / "big" / "schema.json"), "--out", str(out)]) == 0
        written[n_cpus] = (out / "scores.csv").read_bytes()
    assert pools() == [(os.getpid(), 2)]
    assert written[1] == written[2]
    assert written[1].count(b"\n") == n_rows + 1


def test_a_phase_one_cell_trains_in_its_worker(tmp_path, cpus, pools, monkeypatch):
    """With every epoch long enough to pool, meta build under two CPUs
    still starts one pool, for its cells: a cell's training runs in its
    worker, which starts no pool of its own."""
    monkeypatch.setattr(ensemble_mod, "POOL_MIN_STEPS", 1)
    meta, _ = _phase_one_configs(tmp_path, {"epochs": 2, "batch_size": 16}, {})
    written = {}
    for n_cpus in (1, 2):
        cpus(n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        assert main(["meta", "build", "--config", meta, "--out", str(out)]) == 0
        written[n_cpus] = (out / "meta.csv").read_bytes()
    assert written[1] == written[2]
    assert pools() == [(os.getpid(), 2)]


def test_train_is_the_same_bytes_serial_and_pooled(tmp_path, cpus, pools, monkeypatch):
    """edenet train on 300 KDD-shaped rows (121 expanded features), I=2,
    2 epochs: under one CPU every round runs here, under two each epoch's
    members are dealt to two forked workers. model.json and trace.csv are
    the same bytes."""
    monkeypatch.setattr(ensemble_mod, "POOL_MIN_STEPS", 1)
    write_kdd_rows(tmp_path / "train.csv", 300, seed=21, anomaly_share=0.2,
                   oov_service=True, constant_land=True)
    cfg = write_json(tmp_path / "cfg.json", {"train": {"epochs": 2, "seed": 9}, "n_members": 2})
    written = {}
    for n_cpus in (1, 2):
        cpus(n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        assert main(["train", "--config", cfg, "--data", str(tmp_path / "train.csv"),
                     "--schema", str(KDD_SCHEMA), "--out", str(out)]) == 0
        written[n_cpus] = [(out / name).read_bytes() for name in ("model.json", "trace.csv")]
    assert written[1] == written[2]
    assert pools() == [(os.getpid(), 2)] * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failing_cell_in_the_pool_is_exit_3_and_leaves_no_worker(tmp_path, capsys, cpus):
    """A diverging cell fails its command as it does in-process; bench
    writes the cells before it and names the method and seed."""
    import multiprocessing
    diverge = {"lr": 1e200}
    meta, _ = _phase_one_configs(tmp_path, {"epochs": 2, **diverge}, {})
    (tmp_path / "b").mkdir()
    _, bench = _phase_one_configs(tmp_path / "b", {"epochs": 2}, diverge)
    cpus(2)
    capsys.readouterr()
    assert main(["meta", "build", "--config", meta, "--out", str(tmp_path / "meta")]) == 3
    assert "non-finite loss" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert main(["bench", "--config", bench, "--out", str(tmp_path / "bench")]) == 3
    err = capsys.readouterr().err
    assert "bench aborted: method 'b' failed on seed 0" in err
    assert "non-finite loss" in err
    assert multiprocessing.active_children() == []
    assert sorted(p.relative_to(tmp_path / "bench").as_posix()
                  for p in (tmp_path / "bench").rglob("*.*")) == [
        "a/seed0/report.json", "a/seed0/scores.csv", "a/seed0/trace.csv"]


# ---------------------------------------------------------------------------
# failure modes


def test_missing_required_path_is_exit_2(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_nonexistent_input_file_is_exit_2(tmp_path, workspace):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_unknown_config_key_is_exit_2(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"bogus": 1})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_synth_reads_its_config_file_under_its_flags(tmp_path):
    cfg = write_json(tmp_path / "cfg.json",
                     {"synthetic": {"d": 3, "n_normal": 5, "n_anomaly": 2}})
    assert main(["synth", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "data.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,x2,label" and len(lines) == 1 + 7
    echoed = json.loads((tmp_path / "out" / "effective_config.json").read_text())
    assert echoed["synthetic"] == {"d": 3, "n_normal": 5, "n_anomaly": 2,
                                   "shift": 4.0, "seed": 4}


@pytest.mark.parametrize("section, message", [
    ({"d": 3, "n_normal": 5, "n_anomaly": 2, "bogus": "x"},
     "synthetic has unknown keys: ['bogus']"),
    ({"n_normal": "5"}, "synthetic n_normal must be int, got '5'"),
    ({"shift": True}, "synthetic shift must be int or float, got True"),
])
def test_synth_config_section_is_checked(tmp_path, capsys, section, message):
    cfg = write_json(tmp_path / "cfg.json", {"synthetic": section})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_config_json_is_exit_2(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{oops")
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command, text, field", [
    ("synth", '{"synthetic": {"shift": NaN}}', "synthetic shift"),
    ("train", '{"train": {"lr": 1e999}}', "train lr"),
    ("train", '{"arch": {"alpha": NaN}}', "arch alpha"),
])
def test_non_finite_config_float_is_exit_2(tmp_path, workspace, capsys, command, text, field):
    """JSON reads NaN and 1e999 as floats; a float field refuses them, where
    synth used to write nan rows and train to run into a non-finite loss."""
    (tmp_path / "cfg.json").write_text(text)
    data = ["--data", str(workspace / "synth" / "data.csv"),
            "--schema", str(workspace / "synth" / "schema.json")]
    assert main([command, "--config", str(tmp_path / "cfg.json"),
                 *(data if command == "train" else []), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {field} must be finite, got " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "score", "eval", "meta fit", "meta select",
                                     "bench"])
def test_a_missing_input_leaves_no_out_directory(tmp_path, workspace, capsys, command):
    """A command given one input file that does not exist exits 2 without
    making --out: the directory is made at the first write into it."""
    synth, missing = workspace / "synth", str(tmp_path / "missing")
    data = ["--data", str(synth / "data.csv"), "--schema", str(synth / "schema.json")]
    args = {
        "train": ["train", "--data", missing, "--schema", str(synth / "schema.json")],
        "score": ["score", "--model", missing, *data],
        "eval": ["eval", "--scores", missing, *data],
        "meta fit": ["meta", "fit", "--meta", missing],
        "meta select": ["meta", "select", "--model", missing, *data],
        "bench": ["bench", "--config", write_json(tmp_path / "cfg.json", {
            "data": missing, "test_data": str(synth / "data.csv"),
            "schema": str(synth / "schema.json"), "methods": [{"name": "ede"}]})],
    }[command]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert f"not found: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_checks_arch_before_it_reads_a_row(tmp_path, workspace, capsys, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("train read its rows before it checked arch")

    monkeypatch.setattr("edenet.cli.load_training_rows", no_rows)
    cfg = write_json(tmp_path / "cfg.json", {"arch": {"latent_dim": 5}})
    assert main(["train", "--config", cfg, "--data", str(workspace / "synth" / "data.csv"),
                 "--schema", str(workspace / "synth" / "schema.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: latent_dim must lie in [1, input_dim], got 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["meta build", "bench", "eval"])
def test_a_bad_setting_fails_before_a_row_is_read(tmp_path, workspace, capsys, monkeypatch,
                                                  command):
    """meta build and bench check arch at each schema's expanded width, and
    eval loads its schema, before any training rows or scores are read."""
    import edenet.cli as cli_mod
    reads = []
    for name in ("load_training_rows", "read_scores_csv"):
        real = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name,
                            lambda *a, real=real, **k: reads.append(a) or real(*a, **k))
    synth, missing = workspace / "synth", str(tmp_path / "missing.json")
    data, schema = str(synth / "data.csv"), str(synth / "schema.json")
    wide = {"arch": {"latent_dim": 9}}
    config = {
        "meta build": {**wide, "tasks": [{"train": data, "test": data, "schema": schema}] * 2},
        "bench": {**wide, "data": data, "test_data": data, "schema": schema,
                  "methods": [{"name": "ede"}]},
        "eval": {"scores": str(workspace / "score" / "scores.csv"), "data": data,
                 "schema": missing},
    }[command]
    cfg = write_json(tmp_path / "cfg.json", config)
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert (f"error: schema path not found: {missing}" if command == "eval"
            else "error: latent_dim must lie in [1, input_dim], got 9") in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    ("train", "error: seed must be >= 0, got -1"),
    ("synth", "error: synthetic seed must be >= 0, got -1"),
    ("bench", "error: seeds[1] must be >= 0, got -3"),
    ("meta build", "error: seed must be >= 0, got -2"),
])
def test_a_negative_seed_is_exit_2_before_a_row_is_read(tmp_path, workspace, capsys,
                                                        monkeypatch, command, message):
    import edenet.cli as cli_mod
    reads = []
    monkeypatch.setattr(cli_mod, "load_training_rows", lambda *a, **k: reads.append(a))
    data = str(workspace / "synth" / "data.csv")
    files = {"data": data, "test_data": data, "schema": str(workspace / "synth" / "schema.json")}
    cfg = {"bench": {**files, "methods": [{"name": "ede"}]},
           "meta build": {**files, "tasks": [{"train": data, "test": data}],
                          "train": {"seed": -2}}}.get(command, files)
    flags = {"train": ["--seed", "-1"], "synth": ["--seed", "-1"],
             "bench": ["--seeds", "0,-3"], "meta build": []}[command]
    args = [*command.split(), "--config", write_json(tmp_path / "cfg.json", cfg), *flags]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("bench", ["--seeds", "0,0"], "error: seeds lists 0 more than once"),
    ("meta build", [], "error: candidates lists 1 more than once"),
    ("meta select", ["--candidates", "1,1"], "error: candidates lists 1 more than once"),
], ids=["bench", "meta-build", "meta-select"])
def test_a_repeated_seed_or_candidate_is_exit_2_before_a_file_is_read(
        tmp_path, workspace, capsys, monkeypatch, command, flags, message):
    import edenet.cli as cli_mod
    reads = []
    for name in ("load_schema", "load_model", "load_training_rows"):
        real = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name,
                            lambda *a, real=real, **k: reads.append(a) or real(*a, **k))
    x = np.arange(10.0).reshape(2, 5)
    save_model(fit_svr(x, x[:, 0]), tmp_path / "meta_model.json")
    data = str(workspace / "synth" / "data.csv")
    cfg = {"data": data, "test_data": data, "schema": str(workspace / "synth" / "schema.json"),
           "model": str(tmp_path / "meta_model.json"), "train": {"epochs": 1},
           "methods": [{"name": "ede"}], "tasks": [{"train": data, "test": data}]}
    if command == "meta build":
        cfg["candidates"] = [1, 1]
    args = [*command.split(), "--config", write_json(tmp_path / "cfg.json", cfg), *flags]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "out").exists()


def test_scaling_of_another_width_names_its_file(tmp_path, workspace, capsys):
    """--scaling with stats for 5 columns, given with a 4-input model file:
    --scaling only checks the stats the model records."""
    scaling = write_json(tmp_path / "scaling.json",
                         scaling_to_dict(ScalingStats(np.zeros(5), np.ones(5))))
    assert main(["score", "--model", str(FIXTURES / "ede_net.json"),
                 "--data", str(workspace / "synth" / "data.csv"),
                 "--schema", str(workspace / "synth" / "schema.json"), "--scaling", scaling,
                 "--out", str(tmp_path / "out")]) == 2
    assert (f"error: scaling file {scaling} does not hold the model's own scaling"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, what", [("--config", "config file"),
                                        ("--schema", "schema file"),
                                        ("--model", "model file")])
def test_json_file_that_is_not_utf_8_names_its_path(tmp_path, workspace, capsys, flag, what):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    args = {"--model": str(workspace / "train" / "model.json"),
            "--data": str(workspace / "synth" / "data.csv"),
            "--schema": str(workspace / "synth" / "schema.json"),
            "--out": str(tmp_path / "out"), flag: str(bad)}
    assert main(["score", *(x for item in args.items() for x in item)]) == 2
    assert f"error: {what} {bad} is not valid JSON: 'utf-8' codec" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


@pytest.fixture
def blocks_read(monkeypatch):
    """The CSV blocks read from here on, through a spy on data.read_csv_blocks."""
    import edenet.data
    blocks, real = [], edenet.data.read_csv_blocks

    def spy(*args, **kwargs):
        for block in real(*args, **kwargs):
            blocks.append(block)
            yield block

    monkeypatch.setattr(edenet.data, "read_csv_blocks", spy)
    return blocks


def test_unknown_optimizer_is_exit_2(tmp_path, workspace, capsys, blocks_read):
    """Adam is the one optimizer, so optimizer is not a train key."""
    cfg = write_json(tmp_path / "cfg.json", {"train": {"optimizer": "adam"}})
    rc = main(["train", "--config", cfg,
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: train has unknown keys: ['optimizer']" in capsys.readouterr().err
    assert blocks_read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "beta1", 0.9),
    ("train", "beta2", 0.999),
    ("train", "eps", 1e-8),
    ("train", "reweight_eps", 0.05),
    ("bench", "beta1", 0.9),
])
def test_deleted_train_key_is_exit_2(tmp_path, workspace, capsys, blocks_read,
                                    command, key, value):
    """Adam's decays, its denominator term and the reweighting floor are
    constants, so none of them is a train key: not in the run's train, nor
    in a bench method's."""
    data, schema = str(workspace / "synth" / "data.csv"), str(workspace / "synth" / "schema.json")
    cfg = {"train": {"data": data, "schema": schema, "train": {key: value}},
           "bench": {"data": data, "test_data": data, "schema": schema,
                     "methods": [{"name": "ede", "train": {key: value}}]}}[command]
    args = [command, "--config", write_json(tmp_path / "cfg.json", cfg)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert f"error: train has unknown keys: ['{key}']" in capsys.readouterr().err
    assert blocks_read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "meta build", "bench"])
def test_arch_input_dim_is_refused_before_a_row_is_read(tmp_path, workspace, capsys,
                                                        blocks_read, command):
    """The width is the schema's, so input_dim is no arch key: not in the
    run's arch, nor in a bench method's."""
    data, schema = str(workspace / "synth" / "data.csv"), str(workspace / "synth" / "schema.json")
    wide = {"arch": {"input_dim": 5}}
    cfg = {"train": {"data": data, "schema": schema, **wide},
           "meta build": {"schema": schema, "tasks": [{"train": data, "test": data}], **wide},
           "bench": {"data": data, "test_data": data, "schema": schema,
                     "methods": [{"name": "ede", **wide}]}}[command]
    args = [*command.split(), "--config", write_json(tmp_path / "cfg.json", cfg)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert "error: arch input_dim is not a config key" in capsys.readouterr().err
    assert blocks_read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["run", "method"])
def test_bench_refuses_a_train_seed_before_a_row_is_read(tmp_path, workspace, capsys,
                                                         blocks_read, where):
    """Each bench cell trains under its seed from seeds, so a train seed,
    the run's or a method's, would be ignored: it exits 2 instead."""
    data = str(workspace / "synth" / "data.csv")
    seeded = {"train": {"epochs": 1, "seed": 5}}
    cfg = {"data": data, "test_data": data, "schema": str(workspace / "synth" / "schema.json"),
           "methods": [{"name": "ede", **(seeded if where == "method" else {})}],
           **(seeded if where == "run" else {})}
    assert main(["bench", "--config", write_json(tmp_path / "cfg.json", cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "set seeds, not train seed" in capsys.readouterr().err
    assert blocks_read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"train": {"epochs": "3"}},
    {"train": {"lr": "0.01"}},
    {"train": {"batch_size": "64"}},
    {"train": {"iters_per_epoch": 2.5}},
    {"n_members": "2"},
    {"train": {"reweight": "no"}},
    {"train": {"epochs": True}},
    {"q": "0.2"},
    {"q": True},
    {"arch": {"hidden_dim": "8"}},
    {"arch": {"alpha": "1"}},
    {"arch": {"hidden_sizes": [8.5, 4]}},
    {"arch": {"latent_dim": 2.0}},
    {"arch": [1, 2]},
    {"scale": "no"},
    {"out": 5},
], ids=["epochs-str", "lr-str", "batch_size-str", "iters-float", "n_members-str",
        "reweight-str", "epochs-bool", "q-str", "q-bool", "hidden_dim-str", "alpha-str",
        "hidden_sizes-float", "latent_dim-float", "arch-list", "scale-str", "out-int"])
def test_mistyped_config_value_is_exit_2(tmp_path, workspace, capsys, doc):
    cfg = write_json(tmp_path / "cfg.json", doc)
    rc = main(["train", "--config", cfg,
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert list((tmp_path / "out").rglob("*")) == []


def section_base(command, workspace, tmp_path):
    """A config on which `command` runs; the tests below break one section."""
    if command == "bench":
        return {"synthetic": {"d": 3, "n_train": 40, "n_test_normal": 10,
                              "n_test_anomaly": 5},
                "methods": [{"name": "only", "n_members": 1}], "train": {"epochs": 1}}
    data = str(workspace / "synth" / "data.csv")
    if command == "meta build":
        return {"schema": str(workspace / "synth" / "schema.json"),
                "tasks": [{"train": data, "test": data}], "candidates": [1],
                "arch": SMALL_CFG["arch"], "train": {"epochs": 1}}
    meta_csv = tmp_path / "meta.csv"
    meta_csv.write_text("n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc\n"
                        "60,0,2,1,1,0.7\n60,0,2,1,3,0.8\n40,1,0,2,1,0.6\n")
    return {"meta_csv": str(meta_csv)}


@pytest.mark.parametrize("command", ["bench", "meta build", "meta fit"])
def test_section_base_config_runs(tmp_path, workspace, command):
    cfg = write_json(tmp_path / "cfg.json", section_base(command, workspace, tmp_path))
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, changes", [
    ("bench", {"synthetic": {"d": "3", "n_train": 60.9, "n_test_anomaly": 8.5,
                             "shift": "2"}}),
    ("bench", {"synthetic": [3]}),
    ("bench", {"methods": ["a"]}),
    ("bench", {"methods": [{"name": "only", "arch": 3}]}),
    ("bench", {"methods": [{"n_members": 1}]}),
    ("meta build", lambda base: {"tasks": [{**base["tasks"][0], "train": 5}]}),
    ("meta build", lambda base: {"tasks": [{"test": base["tasks"][0]["test"]}]}),
    ("meta fit", {"svr": {"C": "1"}}),
    ("meta fit", {"svr": {"gamma": True}}),
    ("meta fit", {"svr": []}),
], ids=["synthetic-mistyped", "synthetic-list", "method-str", "method-arch-int",
        "method-no-name", "task-train-int", "task-no-train", "svr-C-str",
        "svr-gamma-bool", "svr-list"])
def test_malformed_config_section_is_exit_2(tmp_path, workspace, capsys, command,
                                            changes):
    """Each section is checked before any artifact is written."""
    base = section_base(command, workspace, tmp_path)
    changes = changes(base) if callable(changes) else changes
    cfg = write_json(tmp_path / "cfg.json", {**base, **changes})
    rc = main([*command.split(), "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert list((tmp_path / "out").rglob("*")) == []


@pytest.mark.parametrize("source", ["synthetic", "csv"])
@pytest.mark.parametrize("bad", [
    {"arch": {"alpha": "1"}},
    {"arch": {"latent_dim": 9}},
    {"train": {"lr": -1.0}},
    {"n_members": 0},
], ids=["arch-str", "latent-wider-than-task", "train-lr", "members-0"])
def test_bench_checks_every_method_before_the_first_cell(tmp_path, capsys, monkeypatch,
                                                         source, bad):
    """A bad value in the second method fails the run before the first
    method's cell trains or writes a file."""
    import edenet.cli as cli_mod
    cells = []
    run_cells = cli_mod.run_cells
    monkeypatch.setattr(cli_mod, "run_cells", lambda c: cells.extend(c) or run_cells(c))
    if source == "csv":
        train = tiny_synth(tmp_path, "train", 30, 6, 7)
        test = tiny_synth(tmp_path, "test", 12, 4, 8)
        task = {"data": str(train / "data.csv"), "test_data": str(test / "data.csv"),
                "schema": str(train / "schema.json")}
    else:
        task = {"synthetic": {"d": 3, "n_train": 40, "n_test_normal": 10,
                              "n_test_anomaly": 5}}
    cfg = write_json(tmp_path / "cfg.json", {
        **task, "train": {"epochs": 1},
        "methods": [{"name": "a", "n_members": 1}, {"name": "b", "n_members": 1, **bad}]})
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cells == []
    assert list(out.rglob("*")) == []


def test_meta_build_checks_the_arch_at_every_task_width_before_training(
        tmp_path, capsys, monkeypatch):
    """latent_dim 3 fits the 5-wide first task but not the 2-wide second:
    the build fails before the first task's cells train."""
    import edenet.metalearn as metalearn_mod
    trained = []
    run_cells = metalearn_mod.run_cells
    monkeypatch.setattr(metalearn_mod, "run_cells",
                        lambda c: trained.extend(c) or run_cells(c))
    tasks = []
    for d in (5, 2):
        data = tmp_path / f"d{d}"
        assert main(["synth", "--out", str(data), "--d", str(d), "--n-normal", "20",
                     "--n-anomaly", "6", "--seed", str(d)]) == 0
        tasks.append({"train": str(data / "data.csv"), "test": str(data / "data.csv"),
                      "schema": str(data / "schema.json")})
    cfg = write_json(tmp_path / "cfg.json", {"tasks": tasks, "candidates": [1],
                                            "arch": {"latent_dim": 3},
                                            "train": {"epochs": 1}})
    out = tmp_path / "out"
    assert main(["meta", "build", "--config", cfg, "--out", str(out)]) == 2
    assert "latent_dim" in capsys.readouterr().err
    assert trained == []
    assert list(out.rglob("*")) == []


def _option_dests(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_dests(sub)
        elif action.dest not in ("help", "config"):
            yield action.dest


def test_every_flag_dest_is_a_config_key():
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    sections = {"train": TrainConfig, "arch": ArchSpec}
    for dest in set(_option_dests(build_parser())):
        head, _, key = dest.partition(".")
        assert head in fields, dest
        if key:
            assert "dict" in str(fields[head].type), dest
            if head in sections:
                assert key in {f.name for f in dataclasses.fields(sections[head])}, dest


def test_train_flags_reach_the_effective_config(workspace, tmp_path):
    assert main(["train", "--data", str(workspace / "synth" / "data.csv"),
                 "--schema", str(workspace / "synth" / "schema.json"),
                 "--members", "1", "--epochs", "1", "--batch-size", "8", "--seed", "4",
                 "--encoder", "feedforward", "--no-reweight", "--no-scale",
                 "--out", str(tmp_path / "out")]) == 0
    echoed = json.loads((tmp_path / "out" / "effective_config.json").read_text())
    assert echoed["n_members"] == 1
    assert echoed["train"] == {"epochs": 1, "batch_size": 8, "seed": 4, "reweight": False}
    assert echoed["arch"] == {"encoder_kind": "feedforward"}
    assert echoed["scale"] is False
    assert not (tmp_path / "out" / "scaling.json").exists()


@pytest.mark.parametrize("value", ["2", 2.0, True])
def test_mistyped_bench_method_members_is_exit_2(tmp_path, capsys, value):
    cfg = write_json(tmp_path / "bench.json", {
        "synthetic": {"d": 3, "n_train": 50, "n_test_normal": 20,
                      "n_test_anomaly": 8, "shift": 3.0},
        "methods": [{"name": "only", "n_members": value}],
        "train": {"epochs": 1, "batch_size": 16},
    })
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_score_width_mismatch_is_exit_2(tmp_path, workspace):
    # model expects 4 features, this file carries 3
    other = tmp_path / "three"
    assert main(["synth", "--out", str(other), "--d", "3", "--n-normal", "10",
                 "--n-anomaly", "0", "--shift", "1.0", "--seed", "2"]) == 0
    rc = main(["score", "--model", str(workspace / "train" / "model.json"),
               "--data", str(other / "data.csv"),
               "--schema", str(other / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def _score(workspace, tmp_path, model, scaling=None):
    args = ["score", "--model", str(model),
            "--data", str(workspace / "synth" / "data.csv"),
            "--schema", str(workspace / "synth" / "schema.json"),
            "--out", str(tmp_path / "out")]
    return main(args + (["--scaling", str(scaling)] if scaling else []))


@pytest.mark.parametrize("arch", [
    None,
    {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 4, "seq_len": 2},
    {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 4, "seq_len": 3,
     "recurrent_layers": 2},
], ids=["feedforward", "lstm", "lstm-2-layers"])
def test_score_of_a_lone_net_is_its_anomaly_score(tmp_path, arch):
    """A model file holding one net scores to the bytes its block-by-block
    anomaly_score gives, over two full blocks of rows and a partial one:
    the committed feed-forward file, which records scaling (arch None), or
    an unscaled one-member ensemble."""
    rows = tiny_synth(tmp_path, "rows", 2 * BLOCK_ROWS + 352, 100, 4)
    if arch is None:
        model = FIXTURES / "ede_net.json"
        ens = load_model(model)
    else:
        model = tmp_path / "net.json"
        net = EdeNet.initialize(make_arch(4, arch), np.random.default_rng(6))
        ens = EnsembleModel(net.spec, [net], columns=[f"x{i}" for i in range(4)])
        save_model(ens, model)
    assert main(["score", "--model", str(model),
                 "--data", str(rows / "data.csv"), "--schema", str(rows / "schema.json"),
                 "--out", str(tmp_path / "score")]) == 0
    ds = load_csv(rows / "data.csv", load_schema(rows / "schema.json"))
    if ens.scaling is not None:
        ds = apply_scale(ds, ens.scaling)
    net, = ens.members
    expect = block_scores(net, ds.features)
    _write_scores(tmp_path / "expect.csv", expect, normalize_scores(expect))
    assert ((tmp_path / "score" / "scores.csv").read_bytes()
            == (tmp_path / "expect.csv").read_bytes())


@pytest.fixture(scope="module")
def kdd_runs(tmp_path_factory):
    """Two KDD-shaped files and three runs: "run" and "other", scaled, on
    each file; "raw", --no-scale, on the first."""
    ws = tmp_path_factory.mktemp("kdd")
    write_kdd_rows(ws / "rows.csv", 300, seed=41)
    write_kdd_rows(ws / "other.csv", 300, seed=42)
    for name, data, flags in (("run", "rows", []), ("other", "other", []),
                              ("raw", "rows", ["--no-scale"])):
        assert main(["train", "--data", str(ws / f"{data}.csv"), "--schema", str(KDD_SCHEMA),
                     "--members", "1", "--epochs", "1", "--seed", "2", *flags,
                     "--out", str(ws / name)]) == 0
    return ws


def _kdd_score(ws, out, model="run", schema=KDD_SCHEMA, scaling=None) -> int:
    return main(["score", "--model", str(ws / model / "model.json"),
                 "--data", str(ws / "rows.csv"), "--schema", str(schema), "--out", str(out),
                 *([] if scaling is None else ["--scaling", str(scaling)])])


def test_score_applies_the_scaling_the_model_records(kdd_runs, tmp_path):
    """A KDD-shaped model scores to the same bytes with or without the
    training run's scaling.json: the model file carries those stats."""
    assert _kdd_score(kdd_runs, tmp_path / "bare") == 0
    assert _kdd_score(kdd_runs, tmp_path / "flag", scaling=kdd_runs / "run" / "scaling.json") == 0
    assert ((tmp_path / "bare" / "scores.csv").read_bytes()
            == (tmp_path / "flag" / "scores.csv").read_bytes())


def _swap_numeric(doc):
    cols = doc["columns"]
    i, j = (k for k, c in enumerate(cols) if c["name"] in ("src_bytes", "dst_bytes"))
    cols[i], cols[j] = cols[j], cols[i]


def _reverse_vocabulary(doc):
    col = next(c for c in doc["columns"] if c["name"] == "protocol_type")
    col["values"].reverse()


@pytest.mark.parametrize("edit", [_swap_numeric, _reverse_vocabulary],
                         ids=["numeric-swapped", "vocabulary-reordered"])
def test_score_with_other_columns_of_the_same_width_is_exit_2(kdd_runs, tmp_path, capsys,
                                                              edit):
    """A schema that reads the same file into the same width, but in
    another column order, no longer scores silently."""
    doc = json.loads(KDD_SCHEMA.read_text())
    edit(doc)
    schema = write_json(tmp_path / "schema.json", doc)
    assert _kdd_score(kdd_runs, tmp_path / "out", schema=schema) == 2
    want = load_model(kdd_runs / "run" / "model.json").columns
    got = load_csv(kdd_runs / "rows.csv", load_schema(schema)).feature_names()
    j = next(j for j, (a, b) in enumerate(zip(got, want)) if a != b)
    assert f"input column {j} is {got[j]!r}, model expects {want[j]!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


@pytest.mark.parametrize("edit", [_swap_numeric, _reverse_vocabulary],
                         ids=["numeric-swapped", "vocabulary-reordered"])
def test_library_scoring_holds_a_dataset_to_the_model_columns(kdd_runs, tmp_path, edit):
    """ensemble_score on a loaded model and a Dataset read in another
    column order of the same width raises, naming the column, as edenet
    score does; its bare Rows, which carry no names, are refused."""
    doc = json.loads(KDD_SCHEMA.read_text())
    edit(doc)
    ds = load_csv(kdd_runs / "rows.csv", load_schema(write_json(tmp_path / "schema.json", doc)))
    ens = load_model(kdd_runs / "run" / "model.json")
    got = ds.feature_names()
    j = next(j for j, (a, b) in enumerate(zip(got, ens.columns)) if a != b)
    with pytest.raises(ShapeError) as exc:
        ensemble_score(ens, ds)
    assert str(exc.value) == f"input column {j} is {got[j]!r}, model expects {ens.columns[j]!r}"
    with pytest.raises(TypeError, match="input must be a Dataset, got Rows"):
        ensemble_score(ens, ds.rows)


def test_a_loaded_model_scores_raw_rows_as_edenet_score_does(kdd_runs, tmp_path):
    """ensemble_score on a model file from edenet train and the raw rows
    load_csv reads, as a Dataset of those rows under the model's column
    names, gives the raw_score column edenet score writes."""
    assert _kdd_score(kdd_runs, tmp_path / "out") == 0
    raw = read_scores_csv(tmp_path / "out" / "scores.csv")
    rows = load_csv(kdd_runs / "rows.csv", load_schema(KDD_SCHEMA)).rows
    model = load_model(kdd_runs / "run" / "model.json")
    x = Dataset(rows=rows, column_meta=list(model.columns))
    assert ensemble_score(model, x).tobytes() == raw.tobytes()


def test_library_scoring_of_a_dataset_gives_the_edenet_score_bytes(kdd_runs, tmp_path):
    assert _kdd_score(kdd_runs, tmp_path / "out") == 0
    raw = read_scores_csv(tmp_path / "out" / "scores.csv")
    ds = load_csv(kdd_runs / "rows.csv", load_schema(KDD_SCHEMA))
    assert ensemble_score(load_model(kdd_runs / "run" / "model.json"), ds).tobytes() \
        == raw.tobytes()


@pytest.mark.parametrize("run, scale", [("run", True), ("raw", False)])
def test_library_training_on_a_dataset_gives_the_edenet_train_bytes(kdd_runs, tmp_path,
                                                                    run, scale):
    """save_model of what train_ensemble returns for load_training_rows's
    Dataset is the model.json edenet train writes for the same file and
    config: the ensemble records the input itself."""
    train = load_training_rows(kdd_runs / "rows.csv", load_schema(KDD_SCHEMA), scale)
    ens, _ = train_ensemble(init_ensemble(make_arch(train.n_features), 1, seed=2), train,
                            TrainConfig(epochs=1, seed=2))
    assert ens.columns == tuple(train.feature_names()) and ens.scaling == train.scaling_stats
    save_model(ens, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() \
        == (kdd_runs / run / "model.json").read_bytes()


def test_scaling_of_another_run_is_exit_2(kdd_runs, tmp_path, capsys):
    other = kdd_runs / "other" / "scaling.json"
    assert _kdd_score(kdd_runs, tmp_path / "out", scaling=other) == 2
    assert f"scaling file {other} does not hold the model's own scaling" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_scaling_given_to_an_unscaled_model_is_exit_2(kdd_runs, tmp_path, capsys):
    scaling = kdd_runs / "run" / "scaling.json"
    assert _kdd_score(kdd_runs, tmp_path / "out", model="raw", scaling=scaling) == 2
    err = capsys.readouterr().err
    assert f"scaling file {scaling} does not hold" in err and "(trained unscaled)" in err
    assert _kdd_score(kdd_runs, tmp_path / "bare", model="raw") == 0


def _other_scaling(ws, tmp_path):
    scaling = ws / "other" / "scaling.json"
    return {"scaling": scaling}, f"scaling file {scaling} does not hold the model's own scaling"


def _swapped_schema(ws, tmp_path):
    doc = json.loads(KDD_SCHEMA.read_text())
    _swap_numeric(doc)
    got = expanded_meta(schema_from_dict(doc))
    want = load_model(ws / "run" / "model.json").columns
    j = next(j for j, (a, b) in enumerate(zip(got, want)) if a != b)
    return ({"schema": write_json(tmp_path / "schema.json", doc)},
            f"input column {j} is {got[j]!r}, model expects {want[j]!r}")


@pytest.mark.parametrize("mismatch", [_other_scaling, _swapped_schema],
                         ids=["scaling", "column-names"])
def test_score_checks_the_model_before_it_reads_a_row(kdd_runs, tmp_path, capsys,
                                                      monkeypatch, mismatch):
    """A --scaling or a schema that does not fit the model exits 2 with its
    message before load_csv reads the data file."""
    def no_load(*args, **kwargs):
        raise AssertionError("load_csv ran before the model was checked")

    flags, message = mismatch(kdd_runs, tmp_path)
    monkeypatch.setattr("edenet.cli.load_csv", no_load)
    assert _kdd_score(kdd_runs, tmp_path / "out", **flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_score_rejects_a_meta_model_with_exit_2(tmp_path, workspace, capsys):
    meta_model = tmp_path / "meta_model.json"
    x = np.arange(12.0).reshape(6, 2)
    save_model(fit_svr(x, np.sin(x[:, 0])), meta_model)
    assert _score(workspace, tmp_path, meta_model) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_meta_select_rejects_an_ensemble_with_exit_2(tmp_path, workspace, capsys):
    rc = main(["meta", "select",
               "--model", str(workspace / "train" / "model.json"),
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [
    {"members": 5},
    {"members": [3]},
    {"kind": "ede", "params": 3},
])
def test_malformed_model_file_is_exit_2(tmp_path, workspace, capsys, changes):
    doc = json.loads((workspace / "train" / "model.json").read_text())
    doc.update(changes)
    model = write_json(tmp_path / "model.json", doc)
    assert _score(workspace, tmp_path, model) == 2
    assert "error:" in capsys.readouterr().err


def _ede_file(doc):
    head = {key: doc[key] for key in ("format", "format_version", "arch")}
    return {**head, "kind": "ede", "params": doc["members"][0]}, "unknown model kind 'ede'"


def _without_columns(doc):
    del doc["columns"]
    return doc, "ensemble is missing keys: ['columns']"


def _null_columns(doc):
    return {**doc, "columns": None, "scaling": None}, "ensemble columns must be list, got None"


def _scaling_without_columns(doc):
    return {**doc, "columns": None}, "ensemble columns must be list, got None"


@pytest.mark.parametrize("edit", [_ede_file, _without_columns, _null_columns,
                                  _scaling_without_columns],
                         ids=["ede", "no-columns", "null-columns", "scaling-without-columns"])
def test_model_file_that_records_no_input_is_exit_2(tmp_path, workspace, capsys, edit):
    """A model file must record the columns it was trained on. Such a file
    used to score any columns of its width, under any names."""
    doc, message = edit(json.loads((workspace / "train" / "model.json").read_text()))
    assert _score(workspace, tmp_path, write_json(tmp_path / "model.json", doc)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _first_parameter_row(doc: dict) -> tuple[str, list]:
    """The first member's first parameter's name and its first row of numbers."""
    name, values = next(iter(doc["members"][0].items()))
    while isinstance(values[0], list):
        values = values[0]
    return name, values


def _param(value):
    def edit(doc):
        name, row = _first_parameter_row(doc)
        row[0] = value
        return f"parameter {name} must hold numbers, got {value!r}"
    return edit


def _seed(value):
    def edit(doc):
        doc["seed"] = value
        return f"ensemble seed must be int, got {value!r}"
    return edit


@pytest.mark.parametrize("edit", [_param("0.12"), _param(True), _seed("7"), _seed(7.9),
                                  _seed(True)])
def test_model_file_value_of_a_wrong_type_is_exit_2(tmp_path, workspace, capsys, edit):
    doc = json.loads((workspace / "train" / "model.json").read_text())
    message = edit(doc)
    assert _score(workspace, tmp_path, write_json(tmp_path / "model.json", doc)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


@pytest.mark.parametrize("doc, message", [
    ({"col_min": [True, 0, 0, 0], "col_max": [2.5, 1, 1, 1]},
     "scaling file col_min must hold numbers, got True"),
    ({"col_min": [0, 0, 0, 0], "col_max": ["1", 1, 1, 1]},
     "scaling file col_max must hold numbers, got '1'"),
])
def test_scaling_file_value_of_a_wrong_type_is_exit_2(tmp_path, workspace, capsys,
                                                      doc, message):
    scaling = write_json(tmp_path / "scaling.json", doc)
    assert _score(workspace, tmp_path, workspace / "train" / "model.json",
                  scaling) == 2
    assert message in capsys.readouterr().err


SCHEMA_EDITS = {
    "invert_labels": ({"invert_labels": "false"},
                      "schema invert_labels must be bool, got 'false'"),
    "values": ({"type": "categorical", "values": "tcp"},
               "column 'x0' values must be tuple or list, got 'tcp'"),
    "name": ({"name": 5}, "column 5 name must be str, got 5"),
    "unknown key": ({"kind": "categorical"}, "schema column 0 has unknown keys: ['kind']"),
    "columns": ({"columns": "x0,x1,x2,x3"}, "schema columns must be list, got 'x0,x1,x2,x3'"),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_EDITS))
def test_schema_file_value_of_a_wrong_type_is_exit_2(tmp_path, workspace, capsys, case):
    """Each edit goes to the document, or to its first column when the
    column has that key or the document does not."""
    changes, message = SCHEMA_EDITS[case]
    doc = json.loads((workspace / "synth" / "schema.json").read_text())
    key = next(iter(changes))
    (doc if key in doc else doc["columns"][0]).update(changes)
    cfg = write_json(tmp_path / "cfg.json", {**SMALL_CFG, "train": {"epochs": 1}})
    rc = main(["train", "--config", cfg, "--data", str(workspace / "synth" / "data.csv"),
               "--schema", write_json(tmp_path / "schema.json", doc),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.json").exists()


def test_meta_model_array_of_strings_is_exit_2(tmp_path, workspace, capsys):
    x = np.random.default_rng(0).random((8, 5))
    path = tmp_path / "meta_model.json"
    save_model(fit_svr(x, x[:, 0]), path)
    doc = json.loads(path.read_text())
    doc["beta"] = [repr(b) for b in doc["beta"]]
    rc = main(["meta", "select", "--model", write_json(path, doc),
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "svr model beta must hold numbers, got '" in capsys.readouterr().err


def test_meta_csv_with_an_underscored_number_is_exit_2(tmp_path, capsys):
    meta_csv = tmp_path / "meta.csv"
    meta_csv.write_text("n_instances,n_sparse,n_pos_skew,n_neg_skew,I,auroc\n"
                        "60,0,2,1,1,0.7\n1_000,0,2,1,3,0.8\n40,1,0,2,1,0.6\n")
    assert main(["meta", "fit", "--meta", str(meta_csv), "--out", str(tmp_path / "out")]) == 2
    assert ("line 3: non-numeric value '1_000' in column 'n_instances'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("version", [True, 1.0])
def test_non_int_format_version_is_exit_2(tmp_path, workspace, capsys, version):
    doc = json.loads((workspace / "train" / "model.json").read_text())
    doc["format_version"] = version
    model = write_json(tmp_path / "model.json", doc)
    assert _score(workspace, tmp_path, model) == 2
    assert "error: unsupported format version" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{}, [], {"col_min": ["a"], "col_max": [1]}])
def test_malformed_scaling_file_is_exit_2(tmp_path, workspace, capsys, doc):
    scaling = write_json(tmp_path / "scaling.json", doc)
    assert _score(workspace, tmp_path, workspace / "train" / "model.json",
                  scaling) == 2
    assert "error:" in capsys.readouterr().err


def test_scaling_file_that_is_not_json_names_its_path(tmp_path, workspace, capsys):
    scaling = tmp_path / "scaling.json"
    scaling.write_text("{col_min: [0]}")
    assert _score(workspace, tmp_path, workspace / "train" / "model.json",
                  scaling) == 2
    assert f"error: scaling file {scaling} is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_ensemble_file_with_a_renamed_seed_is_exit_2(tmp_path, workspace, capsys):
    doc = json.loads((workspace / "train" / "model.json").read_text())
    doc["sead"] = doc.pop("seed")
    assert _score(workspace, tmp_path, write_json(tmp_path / "model.json", doc)) == 2
    assert "ensemble has unknown keys: ['sead']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_scaling_file_with_max_below_min_is_exit_2(tmp_path, workspace, capsys):
    """Such a column used to pass unscaled: its span fell back to 1 and
    the constant-column rule missed it."""
    scaling = write_json(tmp_path / "scaling.json", {
        "col_min": [0, 5, 0, 0], "col_max": [10, 1, 1, 1]})
    assert _score(workspace, tmp_path, workspace / "train" / "model.json",
                  scaling) == 2
    assert "col_max is below col_min in column 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scores.csv").exists()


def test_model_stats_that_move_a_one_hot_column_off_0_and_1_are_exit_2(tmp_path, capsys):
    """A one-hot column is 0 or 1 after scaling: a hand-edited model.json
    whose stats give it another span is refused, naming the column,
    before anything is scored."""
    schema = {"columns": [{"name": "size"},
                          {"name": "color", "type": "categorical",
                           "values": ["red", "green", "blue"]}]}
    (tmp_path / "data.csv").write_text("size,color\n1,red\n2,green\n3,blue\n")
    col_min, col_max = np.array([1.0, 0, 0, 0]), np.array([3.0, 1, 2, 1])
    ens = dataclasses.replace(
        init_ensemble(make_arch(4), 1), columns=["size", "color=red", "color=green", "color=blue"],
        scaling=ScalingStats(col_min, col_max))
    save_model(ens, tmp_path / "model.json")
    args = ["score", "--model", str(tmp_path / "model.json"),
            "--data", str(tmp_path / "data.csv"),
            "--schema", write_json(tmp_path / "schema.json", schema),
            "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert ("scaling stats map one-hot column 'color=green' off {0, 1}: min 0.0, max 2.0"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "scores.csv").exists()
    # a zero span zeroes the column, whatever its bounds
    col_min[2] = col_max[2] = 5
    save_model(dataclasses.replace(ens, scaling=ScalingStats(col_min, col_max)),
               tmp_path / "model.json")
    assert main(args) == 0


def test_scaling_that_moves_a_one_hot_column_off_0_and_1_is_exit_2(tmp_path, capsys):
    """A --scaling file that holds the model's own stats passes its check,
    but the one-hot check still runs: stats that give a one-hot column
    another span are refused, naming the column, before anything is scored."""
    schema = {"columns": [{"name": "size"},
                          {"name": "color", "type": "categorical",
                           "values": ["red", "green", "blue"]}]}
    (tmp_path / "data.csv").write_text("size,color\n1,red\n2,green\n3,blue\n")
    scaling = {"col_min": [1, 0, 0, 0], "col_max": [3, 1, 2, 1]}
    args = ["score", "--model", str(tmp_path / "model.json"),
            "--data", str(tmp_path / "data.csv"),
            "--schema", write_json(tmp_path / "schema.json", schema),
            "--out", str(tmp_path / "out")]

    def run(name):
        stats = write_json(tmp_path / name, scaling)
        save_model(dataclasses.replace(
            init_ensemble(make_arch(4), 1),
            columns=["size", "color=red", "color=green", "color=blue"],
            scaling=load_scaling(stats)), tmp_path / "model.json")
        return main(args + ["--scaling", stats])

    assert run("bad.json") == 2
    assert ("scaling stats map one-hot column 'color=green' off {0, 1}: min 0.0, max 2.0"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "scores.csv").exists()
    # a zero span zeroes the column, whatever its bounds
    scaling["col_min"][2] = scaling["col_max"][2] = 5
    assert run("ok.json") == 0


def test_a_model_that_records_scaling_makes_no_scaled_copy(tmp_path):
    """The model scales each block as it scores it: the bytes are those of
    scoring apply_scale's copy of the rows, but the call holds no such copy
    (it held one, as large as the rows loaded, next to them)."""
    rows = tmp_path / "rows"
    assert main(["synth", "--out", str(rows), "--d", "16", "--n-normal", str(32 * BLOCK_ROWS),
                 "--n-anomaly", "0", "--seed", "3"]) == 0
    ds = load_csv(rows / "data.csv", load_schema(rows / "schema.json"), require_labels=False)
    stats = fit_scale(ds.take(np.arange(0, ds.n_rows, 2))).scaling_stats
    ens = init_ensemble(make_arch(16), 1)
    save_model(dataclasses.replace(ens, columns=ds.feature_names(), scaling=stats),
               tmp_path / "model.json")
    tracemalloc.start()
    try:
        assert main(["score", "--model", str(tmp_path / "model.json"),
                     "--data", str(rows / "data.csv"), "--schema", str(rows / "schema.json"),
                     "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = ds.rows.numeric.nbytes  # the rows loaded, plus one block's forward pass
    assert peak < 1.7 * store
    expect = ensemble_score(ens, apply_scale(ds, stats))
    _write_scores(tmp_path / "expect.csv", expect, normalize_scores(expect))
    assert ((tmp_path / "out" / "scores.csv").read_bytes()
            == (tmp_path / "expect.csv").read_bytes())


def test_bench_trains_on_the_normal_rows_of_a_csv(tmp_path):
    train = tiny_synth(tmp_path, "train", 30, 6, 7)
    test = tiny_synth(tmp_path, "test", 12, 4, 8)
    cfg = write_json(tmp_path / "bench.json", {
        "data": str(train / "data.csv"), "test_data": str(test / "data.csv"),
        "schema": str(train / "schema.json"),
        "methods": [{"name": "only", "n_members": 1}],
        "arch": SMALL_CFG["arch"], "train": {"epochs": 1, "batch_size": 16},
        "seeds": [0],
    })
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    table = (tmp_path / "out" / "bench_table.csv").read_text().splitlines()
    assert table[1].startswith("only,")


@pytest.mark.parametrize("command", ["train", "meta build", "bench"])
def test_training_file_without_a_normal_row_is_exit_2(tmp_path, capsys, command):
    bad = tiny_synth(tmp_path, "anomalies", 0, 6, 2)
    test = tiny_synth(tmp_path, "test", 6, 2, 3)
    data, schema = str(bad / "data.csv"), str(bad / "schema.json")
    cfg = {"schema": schema, "arch": SMALL_CFG["arch"], "train": {"epochs": 1}}
    if command == "meta build":
        cfg.update(tasks=[{"train": data, "test": str(test / "data.csv")}],
                   candidates=[1])
    else:
        cfg.update(data=data)
    if command == "bench":
        cfg.update(test_data=str(test / "data.csv"),
                   methods=[{"name": "only", "n_members": 1}], seeds=[0])
    capsys.readouterr()
    rc = main([*command.split(), "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no normal rows to train on" in capsys.readouterr().err


def test_eval_row_count_mismatch_is_exit_2(tmp_path, workspace):
    short = tiny_synth(tmp_path, "short", 5, 2, 4)
    rc = main(["eval", "--scores", str(workspace / "score" / "scores.csv"),
               "--data", str(short / "data.csv"),
               "--schema", str(short / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_empty_candidate_list_is_exit_2(tmp_path):
    rc = main(["meta", "select", "--candidates", "",
               "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("candidates", ["-5,0", "1,0"])
def test_meta_select_rejects_candidates_below_one(tmp_path, workspace, capsys,
                                                  candidates):
    meta_model = tmp_path / "meta_model.json"
    x = np.arange(30.0).reshape(6, 5)
    save_model(fit_svr(x, np.sin(x[:, 0])), meta_model)
    rc = main(["meta", "select", "--model", str(meta_model),
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               f"--candidates={candidates}", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "each candidate must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "selection.json").exists()


@pytest.mark.parametrize("candidates", [[1.5], [True], [1, 0], "1,3", []])
def test_meta_build_rejects_bad_candidates_before_training(tmp_path, workspace, capsys,
                                                           candidates):
    data = str(workspace / "synth" / "data.csv")
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": str(workspace / "synth" / "schema.json"),
        "tasks": [{"train": data, "test": data}], "candidates": candidates,
        "arch": SMALL_CFG["arch"], "train": {"epochs": 1}})
    rc = main(["meta", "build", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "candidate" in capsys.readouterr().err
    assert not (tmp_path / "out" / "meta.csv").exists()


def test_bench_loads_its_csv_pair_once_for_every_seed(tmp_path, monkeypatch):
    import edenet.cli

    calls = []
    load = edenet.cli.load_training_rows
    monkeypatch.setattr(edenet.cli, "load_training_rows",
                        lambda *a, **k: calls.append(a) or load(*a, **k))
    train = tiny_synth(tmp_path, "train", 30, 6, 7)
    test = tiny_synth(tmp_path, "test", 12, 4, 8)
    cfg = write_json(tmp_path / "bench.json", {
        "data": str(train / "data.csv"), "test_data": str(test / "data.csv"),
        "schema": str(train / "schema.json"),
        "methods": [{"name": "only", "n_members": 1}],
        "arch": SMALL_CFG["arch"], "train": {"epochs": 1, "batch_size": 16},
    })
    assert main(["bench", "--config", cfg, "--seeds", "0,1,2",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert all((tmp_path / "out" / "only" / f"seed{s}" / "report.json").exists()
               for s in (0, 1, 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_exit_3(tmp_path, workspace, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "arch": SMALL_CFG["arch"],
        "train": {"epochs": 2, "batch_size": 16, "lr": 1e200, "seed": 0},
        "n_members": 1,
    })
    rc = main(["train", "--config", cfg,
               "--data", str(workspace / "synth" / "data.csv"),
               "--schema", str(workspace / "synth" / "schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "non-finite loss" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no stray scaling.json either


def test_unwritable_output_dir_is_exit_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = main(["synth", "--out", str(blocker / "sub"), "--d", "2",
               "--n-normal", "3", "--n-anomaly", "0"])
    assert rc == 4


def test_importing_the_cli_loads_no_scipy():
    """The runtime needs numpy alone; scipy serves only as a test oracle.
    forkpool, which runs Phase I cells, scoring blocks and training
    rounds, imports its process pool only when it starts one and mmap
    only when it first maps a shared array, so no command pays for them
    at startup."""
    import edenet

    src = str(Path(edenet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    probe = ("import sys, edenet.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0]"
             " in ('scipy', 'multiprocessing', 'concurrent', 'mmap')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
