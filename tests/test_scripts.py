"""The scripts under scripts/ run end to end on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edenet
from kdd_shaped import write_kdd_rows

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd, returncode=0):
    src = str(Path(edenet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    done = subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == returncode, done.stderr
    return done


def test_run_synthetic_benchmark(tmp_path):
    out = tmp_path / "bench"
    run_script("run_synthetic_benchmark.py", "--out", str(out), "--members", "1,2",
               "--seeds", "0", "--epochs", "1", "--d", "3", "--n-train", "60",
               cwd=tmp_path)
    table = (out / "bench_table.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == ["ede_I1", "ede_I2"]
    assert (out / "plot_data.csv").exists()


def test_run_meta_selection(tmp_path):
    out = tmp_path / "meta"
    stdout = run_script("run_meta_selection.py", "--out", str(out),
                        "--task-sizes", "30,40", "--candidates", "1,2",
                        "--epochs", "1", "--d", "3", cwd=tmp_path).stdout
    assert len((out / "build" / "meta.csv").read_text().splitlines()) == 1 + 4
    assert (out / "fit" / "meta_model.json").exists()
    selection = json.loads((out / "select" / "selection.json").read_text())
    assert selection["chosen"] in (1, 2)
    assert "<- chosen" in stdout


def test_run_kdd99(tmp_path):
    data = tmp_path / "kdd.data"
    write_kdd_rows(data, 150, seed=0, header=False)
    out = tmp_path / "kdd"
    run_script("run_kdd99.py", "--data", str(data), "--out", str(out),
               "--epochs", "1", "--seeds", "0", "--members", "2", cwd=tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "report_seed0.json").read_text())
    assert summary["per_seed_auroc"] == [report["auroc"]]
    assert 0.0 <= report["auroc"] <= 1.0


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "0,0"], "seeds lists 0 more than once"),
    (["--seeds", ""], "--seeds needs at least one seed"),
    (["--seeds", "-1"], "seeds[0] must be >= 0, got -1"),
    (["--members", "0"], "n_members must be >= 1"),
    (["--train-fraction", "1.5"], "--train-fraction must lie in (0, 1)"),
    (["--epochs", "-1"], "epochs must be >= 0"),
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--max-rows", "0"], "--max-rows must be >= 1"),
], ids=["repeated", "empty", "negative", "members", "train-fraction", "epochs",
        "batch-size", "max-rows"])
def test_run_kdd99_refuses_bad_seeds_before_reading_data(tmp_path, flags, message):
    """--seeds follows the CLI's rule for seeds, and every other setting
    is checked too, before the data file is parsed: each bad one used to
    end in a traceback after the whole file was read."""
    data = tmp_path / "kdd.data"
    write_kdd_rows(data, 150, seed=0, header=False)
    out = tmp_path / "kdd"
    done = run_script("run_kdd99.py", "--data", str(data), "--out", str(out),
                      "--epochs", "1", *flags, cwd=tmp_path, returncode=2)
    assert f"error: {message}" in done.stderr
    assert "parsing" not in done.stdout
    assert not out.exists()


@pytest.mark.parametrize("script, flag, value", [
    ("run_synthetic_benchmark.py", "--members", "1,x"),
    ("run_synthetic_benchmark.py", "--seeds", "a"),
    ("run_meta_selection.py", "--task-sizes", "a"),
    ("run_meta_selection.py", "--candidates", "1,x"),
    ("run_kdd99.py", "--seeds", "0,a"),
])
def test_scripts_refuse_a_bad_int_list_before_writing(tmp_path, script, flag, value):
    """A list that is not comma-separated ints is an argparse error, not
    a traceback after files were written (run_meta_selection.py read
    --candidates only once every task had been synthesised)."""
    out = tmp_path / "out"
    done = run_script(script, "--out", str(out), flag, value, cwd=tmp_path, returncode=2)
    assert f"not a comma-separated int list: {value!r}" in done.stderr
    assert not out.exists()
