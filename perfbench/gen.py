#!/usr/bin/env python3
"""Seeded input generator for the edenet benchmark.

Writes every file one workload hands to the `edenet` CLI into --out, plus
`plan.json`: the CLI argument lists of one timed iteration, the output
whose sha256 must repeat (`artifact`), and the facts the output checks
need. The same (workload, seed) always writes the same
bytes. Inputs are made with numpy alone, so a change to edenet cannot
change them. The only program call is the untimed `edenet train` that
makes the score-100k model.

    python3 perfbench/gen.py --workload train-kdd --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
KDD_SCHEMA = ROOT / "schemas" / "kdd99_10pct.json"

# Anomalies sit off a low-dimensional manifold the normal rows lie on. The
# off-manifold noise is set so held-out AUROC lands near 0.95-0.99: high
# enough to be stable across seeds, below 1 so that a quality regression
# registers (the CLI's default mean shift of 4 at d=10 gives exactly 1.0).
NORMAL_NOISE = 0.1


def manifold_basis(rng, k: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return 2.0 * q.T


def manifold_rows(rng, basis: np.ndarray, n: int, noise: float) -> np.ndarray:
    u = rng.standard_normal((n, basis.shape[0]))
    return u @ basis + noise * rng.standard_normal((n, basis.shape[1]))


def labelled(rng, basis, n_normal: int, n_anomaly: int, anomaly_noise: float):
    x = np.vstack([manifold_rows(rng, basis, n_normal, NORMAL_NOISE),
                   manifold_rows(rng, basis, n_anomaly, anomaly_noise)])
    y = np.r_[np.zeros(n_normal, dtype=np.int64), np.ones(n_anomaly, dtype=np.int64)]
    order = rng.permutation(len(y))
    return x[order], y[order]


def write_numeric(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    d = x.shape[1]
    header = ",".join([f"x{i}" for i in range(d)] + ["label"])
    np.savetxt(path, np.column_stack([x, y]), fmt=["%.8g"] * d + ["%d"],
               delimiter=",", header=header, comments="")


def write_labels(path: Path, y) -> None:
    """0/1 per row (1 = anomaly), for the benchmark's own AUROC oracle."""
    path.write_text("".join(f"{int(v)}\n" for v in y), encoding="utf-8")


def write_numeric_schema(path: Path, d: int) -> None:
    doc = {"columns": [{"name": f"x{i}", "type": "numeric"} for i in range(d)],
           "label_column": "label", "normal_value": "0"}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def train_seed(seed: int) -> int:
    return int(np.random.SeedSequence((seed, 7)).generate_state(1)[0] % 2**31)


# ---------------------------------------------------------------------------
# KDD-shaped traffic. Each profile fixes categorical values (a list means a
# uniform pick) and numeric generators: a constant, ("n", mean, sd) or
# ("l", log-mean, log-sd). Unlisted numerics are 0, unlisted flags "0".
# With the schema's label inversion, attack rows play the normal role and
# "normal." rows are the anomalies to detect.

ATTACKS = [
    ("smurf.", 0.50, {"protocol_type": "icmp", "service": "ecr_i", "flag": "SF"},
     {"src_bytes": ("n", 1032, 40), "count": ("n", 500, 15),
      "srv_count": ("n", 500, 15), "same_srv_rate": 1.0, "dst_host_count": 255,
      "dst_host_srv_count": 255, "dst_host_same_srv_rate": 1.0,
      "dst_host_same_src_port_rate": ("n", 0.9, 0.1)}),
    ("neptune.", 0.30, {"protocol_type": "tcp", "flag": "S0",
                        "service": ["private", "other", "telnet", "ftp_data", "http"]},
     {"count": ("n", 150, 60), "srv_count": ("n", 10, 5), "serror_rate": 1.0,
      "srv_serror_rate": 1.0, "same_srv_rate": ("n", 0.05, 0.03),
      "diff_srv_rate": ("n", 0.07, 0.02), "dst_host_count": 255,
      "dst_host_srv_count": ("n", 12, 6), "dst_host_same_srv_rate": ("n", 0.05, 0.02),
      "dst_host_diff_srv_rate": ("n", 0.07, 0.02), "dst_host_serror_rate": 1.0,
      "dst_host_srv_serror_rate": 1.0}),
    ("back.", 0.05, {"protocol_type": "tcp", "service": "http", "flag": "SF",
                     "logged_in": "1"},
     {"src_bytes": ("n", 54540, 100), "dst_bytes": ("n", 8314, 500), "hot": 2,
      "count": ("n", 5, 3), "srv_count": ("n", 5, 3), "same_srv_rate": 1.0,
      "dst_host_count": ("n", 100, 80), "dst_host_srv_count": ("n", 100, 80),
      "dst_host_same_srv_rate": 1.0}),
    ("portsweep.", 0.10, {"protocol_type": "tcp", "flag": ["REJ", "RSTO", "RSTR"],
                          "service": ["private", "other", "finger", "auth", "ftp"]},
     {"duration": ("l", 1.0, 1.5), "count": ("n", 2, 2), "srv_count": ("n", 2, 2),
      "rerror_rate": ("n", 0.8, 0.2), "srv_rerror_rate": ("n", 0.8, 0.2),
      "same_srv_rate": ("n", 0.5, 0.3), "dst_host_count": ("n", 100, 80),
      "dst_host_srv_count": ("n", 3, 3), "dst_host_diff_srv_rate": ("n", 0.6, 0.3),
      "dst_host_rerror_rate": ("n", 0.8, 0.2), "dst_host_srv_rerror_rate": ("n", 0.8, 0.2)}),
    ("teardrop.", 0.05, {"protocol_type": "udp", "service": "private", "flag": "SF"},
     {"src_bytes": 28, "wrong_fragment": 3, "count": ("n", 20, 10),
      "srv_count": ("n", 20, 10), "same_srv_rate": 1.0, "dst_host_count": ("n", 150, 80),
      "dst_host_srv_count": ("n", 20, 10), "dst_host_same_srv_rate": ("n", 0.2, 0.1)}),
]

NORMAL_TRAFFIC = [
    ("normal.", 0.55, {"protocol_type": "tcp", "service": "http", "flag": "SF",
                       "logged_in": "1"},
     {"src_bytes": ("l", 5.5, 0.5), "dst_bytes": ("l", 7.5, 1.0), "count": ("n", 8, 6),
      "srv_count": ("n", 10, 8), "same_srv_rate": 1.0, "dst_host_count": ("n", 150, 90),
      "dst_host_srv_count": 255, "dst_host_same_srv_rate": 1.0,
      "dst_host_srv_diff_host_rate": ("n", 0.05, 0.05)}),
    ("normal.", 0.25, {"protocol_type": ["tcp", "udp"], "flag": "SF",
                       "service": ["domain_u", "smtp", "ftp_data", "private"]},
     {"src_bytes": ("l", 4.5, 1.2), "dst_bytes": ("l", 4.5, 2.0), "count": ("n", 40, 40),
      "srv_count": ("n", 40, 40), "same_srv_rate": ("n", 0.9, 0.2),
      "dst_host_count": ("n", 200, 60), "dst_host_srv_count": ("n", 150, 90),
      "dst_host_same_srv_rate": ("n", 0.7, 0.3)}),
    # near-misses that share the attack mix's categorical values and differ
    # only slightly in their numerics, so detection is not trivially perfect
    ("normal.", 0.06, {"protocol_type": "icmp", "service": "ecr_i", "flag": "SF"},
     {"src_bytes": ("n", 980, 120), "count": ("n", 470, 50), "srv_count": ("n", 470, 50),
      "same_srv_rate": ("n", 0.95, 0.05), "dst_host_count": 255, "dst_host_srv_count": 255,
      "dst_host_same_srv_rate": ("n", 0.95, 0.05),
      "dst_host_same_src_port_rate": ("n", 0.8, 0.15)}),
    ("normal.", 0.04, {"protocol_type": "tcp", "flag": "S0",
                       "service": ["private", "other", "telnet", "ftp_data", "http"]},
     {"count": ("n", 120, 70), "srv_count": ("n", 15, 8), "serror_rate": ("n", 0.9, 0.1),
      "srv_serror_rate": ("n", 0.9, 0.1), "same_srv_rate": ("n", 0.1, 0.05),
      "diff_srv_rate": ("n", 0.07, 0.03), "dst_host_count": 255,
      "dst_host_srv_count": ("n", 20, 10), "dst_host_same_srv_rate": ("n", 0.08, 0.04),
      "dst_host_diff_srv_rate": ("n", 0.07, 0.03), "dst_host_serror_rate": ("n", 0.9, 0.1),
      "dst_host_srv_serror_rate": ("n", 0.9, 0.1)}),
]


def _numeric_column(rng, name: str, spec, n: int) -> list[str]:
    if isinstance(spec, tuple):
        kind, a, b = spec
        v = rng.normal(a, b, n) if kind == "n" else rng.lognormal(a, b, n)
    else:
        v = np.full(n, float(spec))
    v = np.maximum(v, 0.0)
    if "rate" in name:
        return [f"{x:.2f}" for x in np.minimum(v, 1.0)]
    cap = 511 if name in ("count", "srv_count") else (255 if name.startswith("dst_host") else None)
    if cap is not None:
        v = np.minimum(v, cap)
    return [str(int(x)) for x in np.rint(v)]


def kdd_rows(rng, schema: dict, profiles, n: int) -> list[list[str]]:
    weights = np.array([p[1] for p in profiles])
    counts = rng.multinomial(n, weights / weights.sum())
    blocks = []
    for (label, _, cats, nums), m in zip(profiles, counts):
        cols = []
        for col in schema["columns"]:
            name = col["name"]
            if col.get("type") == "categorical":
                spec = cats.get(name, "0")
                picks = [spec] * m if isinstance(spec, str) else list(rng.choice(spec, m))
                cols.append(picks)
            else:
                cols.append(_numeric_column(rng, name, nums.get(name, 0), m))
        cols.append([label] * m)
        blocks.extend(zip(*cols))
    order = rng.permutation(len(blocks))
    return [blocks[i] for i in order]


def write_kdd(path: Path, schema: dict, rows) -> None:
    header = [c["name"] for c in schema["columns"]] + [schema["label_column"]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


# ---------------------------------------------------------------------------
# workloads


def train_plan(out: Path, epochs: int) -> dict:
    return {"steps": [["train", "--config", str(out / "train_config.json")]],
            "artifact": "train/model.json", "epochs": epochs,
            "heldout": str(out / "heldout.csv"), "heldout_labels": str(out / "heldout.labels"),
            "schema": str(out / "schema.json")}


def gen_train_lstm(rng, out: Path, seed: int) -> dict:
    d, epochs = 12, 5
    basis = manifold_basis(rng, 3, d)
    write_numeric(out / "train.csv", manifold_rows(rng, basis, 2000, NORMAL_NOISE),
                  np.zeros(2000, dtype=np.int64))
    x, y = labelled(rng, basis, 1000, 1000, 4.0)
    write_numeric(out / "heldout.csv", x, y)
    write_labels(out / "heldout.labels", y)
    write_numeric_schema(out / "schema.json", d)
    write_json(out / "train_config.json", {
        "data": str(out / "train.csv"), "schema": str(out / "schema.json"),
        "n_members": 3, "arch": {"encoder_kind": "lstm", "seq_len": 3},
        "train": {"epochs": epochs, "lr": 0.005, "seed": train_seed(seed)}})
    return train_plan(out, epochs)


def gen_train_kdd(rng, out: Path, seed: int, n_normal: int = 50000) -> dict:
    schema = json.loads(KDD_SCHEMA.read_text(encoding="utf-8"))
    n_anomaly = n_normal // 50  # filtered out by train, exercises the filter
    rows = (kdd_rows(rng, schema, ATTACKS, n_normal)
            + kdd_rows(rng, schema, NORMAL_TRAFFIC, n_anomaly))
    write_kdd(out / "train.csv", schema, [rows[i] for i in rng.permutation(len(rows))])
    held = kdd_rows(rng, schema, ATTACKS, 4000) + kdd_rows(rng, schema, NORMAL_TRAFFIC, 1000)
    write_kdd(out / "heldout.csv", schema, held)
    write_labels(out / "heldout.labels", [r[-1] == "normal." for r in held])
    write_json(out / "schema.json", schema)
    write_json(out / "train_config.json", {
        "data": str(out / "train.csv"), "schema": str(out / "schema.json"),
        "n_members": 3, "train": {"epochs": 1, "seed": train_seed(seed)}})
    return train_plan(out, 1)


def gen_score_100k(rng, out: Path, seed: int) -> dict:
    d = 10
    basis = manifold_basis(rng, 3, d)
    write_numeric(out / "train.csv", manifold_rows(rng, basis, 4000, NORMAL_NOISE),
                  np.zeros(4000, dtype=np.int64))
    x, y = labelled(rng, basis, 90000, 10000, 1.0)
    write_numeric(out / "score.csv", x, y)
    write_labels(out / "score.labels", y)
    write_numeric_schema(out / "schema.json", d)

    from edenet.cli import main as edenet_main
    model_dir = out / "model"
    rc = edenet_main(["train", "--data", str(out / "train.csv"),
                      "--schema", str(out / "schema.json"), "--members", "5",
                      "--epochs", "2", "--seed", str(train_seed(seed)),
                      "--out", str(model_dir)])
    if rc != 0:
        raise SystemExit(f"untimed model training failed with exit code {rc}")
    common = ["--data", str(out / "score.csv"), "--schema", str(out / "schema.json")]
    return {"steps": [
        ["score", "--model", str(model_dir / "model.json"),
         "--scaling", str(model_dir / "scaling.json"), *common],
        ["eval", "--scores", "{out_score}/scores.csv", *common]],
        "artifact": "score/scores.csv", "score_rows": int(len(y)),
        "score_labels": str(out / "score.labels")}


def _meta_task(rng, d: int, n_train: int, n_test: int, n_sparse: int, n_skew: int):
    """Manifold data with some columns made sparse (shifted ReLU, > half
    zeros) and some right-skewed (exp), so the tasks' meta-features
    differ."""
    basis = manifold_basis(rng, 3, d)
    train = manifold_rows(rng, basis, n_train, NORMAL_NOISE)
    test, labels = labelled(rng, basis, n_test, n_test, 2.0)
    for x in (train, test):
        x[:, :n_sparse] = np.maximum(x[:, :n_sparse] - 0.5, 0.0)
        x[:, n_sparse:n_sparse + n_skew] = np.exp(x[:, n_sparse:n_sparse + n_skew])
    return train, test, labels


def gen_meta_loop(rng, out: Path, seed: int) -> dict:
    candidates = [1, 3, 5]
    tasks = []
    for t, (d, n) in enumerate([(8, 800), (10, 1100), (12, 1400)]):
        train, test, labels = _meta_task(rng, d, n, 300, t, t + 1)
        write_numeric(out / f"task{t}_train.csv", train, np.zeros(n, dtype=np.int64))
        write_numeric(out / f"task{t}_test.csv", test, labels)
        write_numeric_schema(out / f"task{t}_schema.json", d)
        tasks.append({"train": str(out / f"task{t}_train.csv"),
                      "test": str(out / f"task{t}_test.csv"),
                      "schema": str(out / f"task{t}_schema.json"), "name": f"task{t}"})
    new, _, _ = _meta_task(rng, 10, 700, 10, 1, 1)
    write_numeric(out / "new_task.csv", new, np.zeros(len(new), dtype=np.int64))
    write_numeric_schema(out / "new_task_schema.json", 10)
    write_json(out / "meta_config.json", {
        "tasks": tasks, "candidates": candidates,
        "train": {"epochs": 4, "seed": train_seed(seed)}})
    cands = ",".join(map(str, candidates))
    return {"steps": [
        ["meta", "build", "--config", str(out / "meta_config.json")],
        ["meta", "fit", "--meta", "{out_meta_build}/meta.csv"],
        ["meta", "select", "--model", "{out_meta_fit}/meta_model.json",
         "--data", str(out / "new_task.csv"),
         "--schema", str(out / "new_task_schema.json"), "--candidates", cands]],
        "artifact": "meta_fit/meta_model.json", "n_tasks": len(tasks),
        "candidates": candidates}


GENERATORS = {"train-lstm": gen_train_lstm, "train-kdd": gen_train_kdd,
              "score-100k": gen_score_100k, "meta-loop": gen_meta_loop}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    plan = GENERATORS[args.workload](rng, out, args.seed)
    plan.update(workload=args.workload, seed=args.seed)
    write_json(out / "plan.json", plan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
