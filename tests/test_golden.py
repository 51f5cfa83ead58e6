"""Training and scoring bytes pinned across commits.

A repeated run only shows that training reproduces itself; these hashes
show that it still writes the bytes it wrote when they were recorded.
Floating-point results depend on the numpy build and the BLAS library,
so the check runs only under the versions the hashes were recorded with.
The LSTM gates also depend on which SIMD path numpy's exp takes on the
host CPU, so the LSTM checks run only where the gate sigmoid of a fixed
probe gives the bytes it gave when they were recorded.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edenet.cli import main
from edenet.data import BLOCK_ROWS, load_schema, save_schema
from edenet.layers import sigmoid
from kdd_shaped import KDD_SCHEMA, write_kdd_rows

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = ("scipy-openblas", "0.3.31.188.0")
SIGMOID_PROBE = np.linspace(-40.0, 40.0, 8001)
SIGMOID_PROBE_SHA = "de568b6e8ed653c537032d923d4df7be0120f430ef64097ba4a424b9792b9af5"

RUNS = {
    "feedforward-I3": (
        {"arch": {"hidden_sizes": [8, 5], "latent_dim": 2},
         "train": {"epochs": 3, "batch_size": 16, "seed": 5},
         "n_members": 3},
        "4583e53348e32fc87a155745e8a82e7235a92903d190932d14b052f2bea89825",
        "77626665a305142ab4699269f72661ad2d2be98dd5546804205effafd68600dd",
    ),
    "lstm-I2-T3": (
        {"arch": {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 4,
                  "seq_len": 3, "recurrent_layers": 2},
         "train": {"epochs": 3, "batch_size": 16, "seed": 6},
         "n_members": 2},
        "d81ce1760d9b7794cd8764268cd2fe1cc3e323607d916f5fb4c2906c587d58e2",
        "927da38ab0c2d5d466253e5b5ea04c058e65938f199e09bb06d8e351b2da2abf",
    ),
}


# d=10 at the default widths: there, products over more rows than a
# block differ in the last bits from the block's own, so the hash pins the
# block split too (at d=7 they happen to agree)
SCORE_D = 10
SCORE_MODEL = {"train": {"epochs": 2, "batch_size": 16, "seed": 7}, "n_members": 3}
SCORE_ROWS = 2 * BLOCK_ROWS + 300
# with or without --scaling: the model applies the scaling it records
SCORE_SHA = "4c0e8b185f4961411e274af3d62e73bc28296689129fe7732217d64b9d393e30"
# the same model trained with --no-scale, which scores the raw rows
RAW_SCORE_SHA = "fac401953eaa96fba92278239e87aa5f434ecec64da2b33f76d06b4c600fe127"
# the recurrent variant, so the cache-free LSTM loop is pinned too
LSTM_SCORE_MODEL = {
    "arch": {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 4,
             "seq_len": 3, "recurrent_layers": 2},
    "train": {"epochs": 2, "batch_size": 16, "seed": 8},
    "n_members": 2,
}
LSTM_SCORE_SHA = "15b45fd91f7acf8a23a85442448abf113278a4deb13d7bfca9e9c3f689c3052f"

# committed model files, scored over two full blocks and 352 rows. Both
# were trained 2 epochs on the 90 rows of
# `edenet synth --d 4 --n-normal 90 --n-anomaly 0 --shift 3.0 --seed 31`
# and record its columns x0..x3 and the stats of scaling.json:
# ede_net.json is a feed-forward I=1 ensemble, lstm_ensemble.json a
# two-layer LSTM I=2 one. With or without --scaling, each scores to the
# same bytes
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_ROWS = 2 * BLOCK_ROWS + 352
_EDE_FIXTURE_SHA = "68c2a4319e578124743346b6bed59774a299e5a10aa5e6a5f05a45c289b6d8f2"
_LSTM_FIXTURE_SHA = "16428e821eb9ea5916826cc4f137a53d31195b4b372cce72d2223e63aa5d4929"
FIXTURE_SCORE_SHAS = {
    ("ede_net.json", False): _EDE_FIXTURE_SHA,
    ("ede_net.json", True): _EDE_FIXTURE_SHA,
    ("lstm_ensemble.json", False): _LSTM_FIXTURE_SHA,
    ("lstm_ensemble.json", True): _LSTM_FIXTURE_SHA,
}


def _blas() -> tuple[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name", "?"), blas.get("version", "?")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require_recorded_sigmoid() -> None:
    sha = hashlib.sha256(sigmoid(SIGMOID_PROBE).tobytes()).hexdigest()
    if sha != SIGMOID_PROBE_SHA:
        pytest.skip(f"the gate sigmoid of the probe hashes to {sha[:12]}, not the "
                    f"recorded {SIGMOID_PROBE_SHA[:12]}: this numpy's exp rounds "
                    f"differently on this CPU")


def _require_recorded_build() -> None:
    if (np.__version__, _blas()) != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(f"hashes recorded under numpy {RECORDED_NUMPY} with "
                    f"{' '.join(RECORDED_BLAS)}; this is numpy {np.__version__} "
                    f"with {' '.join(_blas())}")


def _synth(out, d: int, n_normal: int, n_anomaly: int, seed: int):
    _require_recorded_build()
    assert main(["synth", "--out", str(out), "--d", str(d), "--n-normal", str(n_normal),
                 "--n-anomaly", str(n_anomaly), "--shift", "3.0",
                 "--seed", str(seed)]) == 0
    return out


def _train(doc: dict, data, out, *flags: str) -> None:
    cfg = out.parent / f"{out.name}-cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--data", str(data / "data.csv"),
                 "--schema", str(data / "schema.json"), "--out", str(out), *flags]) == 0


def _score_sha(doc: dict, tmp_path, scaling: bool, *train_flags: str) -> str:
    """sha256 of scores.csv from a model trained on doc with train_flags,
    scored over SCORE_ROWS rows: two full blocks and a partial one; with
    the run's scaling.json given as --scaling when `scaling` is set."""
    train = _synth(tmp_path / "train", SCORE_D, 90, 0, seed=2)
    run = tmp_path / "run"
    _train(doc, train, run, *train_flags)
    rows = _synth(tmp_path / "rows", SCORE_D, SCORE_ROWS - 100, 100, seed=3)
    flag = ["--scaling", str(run / "scaling.json")] if scaling else []
    assert main(["score", "--model", str(run / "model.json"), *flag,
                 "--data", str(rows / "data.csv"), "--schema", str(rows / "schema.json"),
                 "--out", str(tmp_path / "score")]) == 0
    return _sha256(tmp_path / "score" / "scores.csv")


@pytest.fixture(scope="module")
def synth_data(tmp_path_factory):
    return _synth(tmp_path_factory.mktemp("golden"), 7, 90, 0, seed=2)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_train_bytes_match_recorded_hashes(name, synth_data, tmp_path):
    doc, model_sha, trace_sha = RUNS[name]
    if doc["arch"].get("encoder_kind") == "lstm":
        _require_recorded_sigmoid()
    _train(doc, synth_data, tmp_path / "run")
    assert _sha256(tmp_path / "run" / "model.json") == model_sha
    assert _sha256(tmp_path / "run" / "trace.csv") == trace_sha


def test_score_bytes_match_recorded_hash(tmp_path):
    """edenet score over more than two blocks of rows."""
    assert _score_sha(SCORE_MODEL, tmp_path, scaling=False) == SCORE_SHA


def test_scaled_score_bytes_match_recorded_hash(tmp_path):
    assert _score_sha(SCORE_MODEL, tmp_path, scaling=True) == SCORE_SHA


def test_unscaled_score_bytes_match_recorded_hash(tmp_path):
    """edenet train --no-scale, then score: the model records no scaling
    and scores the raw rows, over more than two blocks."""
    assert _score_sha(SCORE_MODEL, tmp_path, False, "--no-scale") == RAW_SCORE_SHA


def test_lstm_score_bytes_match_recorded_hash(tmp_path):
    """edenet score of a two-layer, three-step LSTM ensemble over more
    than two blocks of rows."""
    _require_recorded_sigmoid()
    assert _score_sha(LSTM_SCORE_MODEL, tmp_path, scaling=False) == LSTM_SCORE_SHA


def test_lstm_scaled_score_bytes_match_recorded_hash(tmp_path):
    _require_recorded_sigmoid()
    assert _score_sha(LSTM_SCORE_MODEL, tmp_path, scaling=True) == LSTM_SCORE_SHA


@pytest.mark.parametrize("model, scaling", sorted(FIXTURE_SCORE_SHAS))
def test_fixture_score_bytes_match_recorded_hashes(model, scaling, tmp_path):
    """edenet score of each committed model file over FIXTURE_ROWS rows,
    with and without the committed scaling.json."""
    if model.startswith("lstm"):
        _require_recorded_sigmoid()
    rows = _synth(tmp_path / "rows", 4, FIXTURE_ROWS - 100, 100, seed=34)
    flag = ["--scaling", str(FIXTURES / "scaling.json")] if scaling else []
    assert main(["score", "--model", str(FIXTURES / model), *flag,
                 "--data", str(rows / "data.csv"), "--schema", str(rows / "schema.json"),
                 "--out", str(tmp_path / "score")]) == 0
    assert _sha256(tmp_path / "score" / "scores.csv") == FIXTURE_SCORE_SHAS[model, scaling]


# ---------------------------------------------------------------------------
# the categorical path: KDD-shaped rows, whose one-hot blocks hold most of
# the expanded features

KDD_TRAIN = {"train": {"epochs": 2, "seed": 9}, "n_members": 2}
KDD_TRAIN_SHAS = {
    "model.json": "6f7d6e28b4e93ace3b8278936cf47ba0a19eff2c3ba0b2b8461f6ecd83699bf7",
    "scaling.json": "f76ff83cbe31a6c48516f9601afe99aa2557919322268c29f9fda3abad78589e",
    "trace.csv": "12b88c4622840516434f5dfd34311eaa362f6f6b2e6c1db5c2b60d18db40fe41",
}
KDD_SCORE_ROWS = 2 * BLOCK_ROWS + 300
KDD_SCORE_SHAS = {
    "scores.csv": "f7d463750316dab183df2df74d7e6af96eb1179756d3ca178641e045ba7e247c"}
KDD_EVAL_SHAS = {
    "report.json": "cc70e25c5b2dc82c50a413d40badc2f4f5b9ef0771d3635829a0e6e95591cc00"}
KDD_SCRIPT = KDD_SCHEMA.parents[1] / "scripts" / "run_kdd99.py"
KDD_SCRIPT_SHAS = {
    "report_seed0.json": "bb40390dcf47aae296b42aebc55154d2ae83dec7e1e606b648723860cece1d63",
    "report_seed1.json": "49160b0f07cfa0ece50cbeb625bef67e81b9bfad9cb1028c0c41df033419f272",
    "summary.json": "9477c69afbb300ae67606e297e699198a717c1f4bcc7cafcbe9ad4477561b0ac",
}
KDD_META = {"train": {"epochs": 1, "batch_size": 32, "seed": 4}, "candidates": [1, 2]}
KDD_META_SHAS = {
    "meta.csv": "41d502e3669dde0e81501cb2bd4926ae0a6b6169613052e3aa65e2f3cd4e26f6",
    "selection.json": "79512f5c6a611d2de7d2bed91f6693833bb38d271d435510cd925a8c6a5450a3",
}


@pytest.fixture
def kdd_rows():
    """write_kdd_rows with out-of-vocabulary service values and land "0"
    on every row, so over the training rows land's one-hot columns and
    num_outbound_cmds are constant; skips under another numpy or BLAS."""
    _require_recorded_build()
    return functools.partial(write_kdd_rows, oov_service=True, constant_land=True)


def _shas(out, names) -> dict:
    return {name: _sha256(out / name) for name in names}


def test_kdd_train_bytes_match_recorded_hashes(tmp_path, kdd_rows):
    """edenet train on 300 KDD-shaped rows (121 expanded features), I=2,
    2 epochs, scaling on."""
    kdd_rows(tmp_path / "train.csv", 300, seed=21, anomaly_share=0.2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KDD_TRAIN))
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "train.csv"),
                 "--schema", str(KDD_SCHEMA), "--out", str(tmp_path / "run")]) == 0
    assert _shas(tmp_path / "run", KDD_TRAIN_SHAS) == KDD_TRAIN_SHAS


def test_kdd_score_and_eval_bytes_match_recorded_hashes(tmp_path, kdd_rows):
    """edenet score --scaling over KDD_SCORE_ROWS KDD-shaped rows (two
    full blocks and a partial one) with a model trained on 300 others,
    then edenet eval of those scores. The scaling clips numeric values
    and zeroes the one-hot columns that were constant in training."""
    kdd_rows(tmp_path / "train.csv", 300, seed=25, anomaly_share=0.2)
    kdd_rows(tmp_path / "rows.csv", KDD_SCORE_ROWS, seed=26, anomaly_share=0.3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(KDD_TRAIN))
    run, common = tmp_path / "run", ["--data", str(tmp_path / "rows.csv"),
                                     "--schema", str(KDD_SCHEMA)]
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "train.csv"),
                 "--schema", str(KDD_SCHEMA), "--out", str(run)]) == 0
    assert main(["score", "--model", str(run / "model.json"), "--scaling",
                 str(run / "scaling.json"), *common, "--out", str(tmp_path / "score")]) == 0
    assert main(["eval", "--scores", str(tmp_path / "score" / "scores.csv"), *common,
                 "--out", str(tmp_path / "eval")]) == 0
    assert _shas(tmp_path / "score", KDD_SCORE_SHAS) == KDD_SCORE_SHAS
    assert _shas(tmp_path / "eval", KDD_EVAL_SHAS) == KDD_EVAL_SHAS


def test_kdd_script_bytes_match_recorded_hashes(tmp_path, kdd_rows):
    """scripts/run_kdd99.py over 1500 headerless KDD-shaped rows, two
    seeds, I=2, one epoch: every report and the summary."""
    kdd_rows(tmp_path / "kdd.data", 1500, seed=27, anomaly_share=0.2, header=False)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    done = subprocess.run(
        [sys.executable, str(KDD_SCRIPT), "--data", str(tmp_path / "kdd.data"),
         "--out", str(tmp_path / "kdd"), "--epochs", "1", "--members", "2",
         "--seeds", "0,1"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert _shas(tmp_path / "kdd", KDD_SCRIPT_SHAS) == KDD_SCRIPT_SHAS


def test_kdd_meta_bytes_match_recorded_hashes(tmp_path, kdd_rows):
    """meta build over one KDD-shaped task and I in {1, 2}, then meta fit
    and meta select on a third KDD-shaped file."""
    kdd_rows(tmp_path / "train.csv", 300, seed=22, anomaly_share=0.1)
    kdd_rows(tmp_path / "test.csv", 200, seed=23, anomaly_share=0.3)
    kdd_rows(tmp_path / "new.csv", 250, seed=24, anomaly_share=0.1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**KDD_META, "schema": str(KDD_SCHEMA), "tasks": [
        {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")},
        {"train": str(tmp_path / "new.csv"), "test": str(tmp_path / "test.csv")}]}))
    out = tmp_path / "meta"
    assert main(["meta", "build", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["meta", "fit", "--meta", str(out / "meta.csv"), "--out", str(out)]) == 0
    assert main(["meta", "select", "--model", str(out / "meta_model.json"),
                 "--data", str(tmp_path / "new.csv"), "--schema", str(KDD_SCHEMA),
                 "--candidates", "1,2", "--out", str(out)]) == 0
    assert _shas(out, KDD_META_SHAS) == KDD_META_SHAS


# ---------------------------------------------------------------------------
# synth's files and the schema file writer

SYNTH_RUNS = {
    "flags": (["--d", "5", "--n-normal", "40", "--n-anomaly", "8", "--shift", "3.0",
               "--seed", "3"], {
        "data.csv": "993b2069b839e55a8648b78d73e8021225f156a5de8fac82eef26aef6b3aca5d",
        "schema.json": "ececa2e110295c3824f07140b9e04256c4353d363216f3bc32587916c2c59916",
        "effective_config.json":
            "2441859f6bfdc916dc645847cb3a1ab4306104f76d8d47162e98f7e23adbe5d7",
    }),
    "defaults": ([], {
        "data.csv": "9653f4fd8208b20c8b6da6c8001b5980726beef5ef65920f112d2a59810761b6",
        "schema.json": "c203b549f19528dcb362976aefeda9ffc201412c5b8ed8c22148b86deddcfb04",
        "effective_config.json":
            "8c6f539907f718b3758064964e94dab30e433a7f882b33ec239715896700982e",
    }),
}
KDD_SCHEMA_SHA = "557e9fce47c966e2d307c85743deb4dea627cb9fe32cc36c04648438b7a3db53"


@pytest.mark.parametrize("name", sorted(SYNTH_RUNS))
def test_synth_bytes_match_recorded_hashes(name, tmp_path, monkeypatch):
    """edenet synth from flags alone (or none), into a relative output
    directory, so the out field of effective_config.json is the same
    wherever the test runs."""
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"hashes recorded under numpy {RECORDED_NUMPY}; "
                    f"this is numpy {np.__version__}")
    flags, shas = SYNTH_RUNS[name]
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "synth", *flags]) == 0
    assert _shas(Path("synth"), shas) == shas


def test_kdd_schema_file_round_trip_matches_recorded_hash(tmp_path):
    save_schema(load_schema(KDD_SCHEMA), tmp_path / "schema.json")
    assert _sha256(tmp_path / "schema.json") == KDD_SCHEMA_SHA
