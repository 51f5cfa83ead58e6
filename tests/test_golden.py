"""Training bytes pinned across commits.

A repeated run only shows that training reproduces itself; these hashes
show that it still writes the bytes it wrote when they were recorded.
Floating-point results depend on the numpy build and the BLAS library,
so the check runs only under the versions the hashes were recorded with.
"""

import hashlib
import json

import numpy as np
import pytest

from edenet.cli import main

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = ("scipy-openblas", "0.3.31.188.0")

RUNS = {
    "feedforward-I3": (
        {"arch": {"hidden_sizes": [8, 5], "latent_dim": 2},
         "train": {"epochs": 3, "batch_size": 16, "seed": 5},
         "n_members": 3},
        "481e458c4d0a6ad3a4c16d014957a325224068dbbf397d5a1c3543b7d52cb3ac",
        "77626665a305142ab4699269f72661ad2d2be98dd5546804205effafd68600dd",
    ),
    "lstm-I2-T3": (
        {"arch": {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 4,
                  "seq_len": 3, "recurrent_layers": 2},
         "train": {"epochs": 3, "batch_size": 16, "seed": 6},
         "n_members": 2},
        "969c3b4676107e4e249057b040057167cfc6c37dd0f697d4963ec48410b4efaf",
        "927da38ab0c2d5d466253e5b5ea04c058e65938f199e09bb06d8e351b2da2abf",
    ),
}


def _blas() -> tuple[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name", "?"), blas.get("version", "?")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def synth_data(tmp_path_factory):
    if (np.__version__, _blas()) != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(f"hashes recorded under numpy {RECORDED_NUMPY} with "
                    f"{' '.join(RECORDED_BLAS)}; this is numpy {np.__version__} "
                    f"with {' '.join(_blas())}")
    out = tmp_path_factory.mktemp("golden")
    assert main(["synth", "--out", str(out), "--d", "7", "--n-normal", "90",
                 "--n-anomaly", "0", "--shift", "3.0", "--seed", "2"]) == 0
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_train_bytes_match_recorded_hashes(name, synth_data, tmp_path):
    doc, model_sha, trace_sha = RUNS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg),
                 "--data", str(synth_data / "data.csv"),
                 "--schema", str(synth_data / "schema.json"),
                 "--out", str(tmp_path / "run")]) == 0
    assert _sha256(tmp_path / "run" / "model.json") == model_sha
    assert _sha256(tmp_path / "run" / "trace.csv") == trace_sha
