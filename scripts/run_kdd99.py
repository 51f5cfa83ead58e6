#!/usr/bin/env python3
"""Network-intrusion run on the KDD99 10% dataset.

Expects the raw comma-separated file (no header, 41 features + label),
e.g. kddcup.data_10_percent from the KDD Cup 1999 archive. The bundled
schema one-hot expands it to 121 features and inverts the labels: attack
traffic is the majority class and plays the normal role, so the nominal
"normal." connections are what the detector must flag.

Per seed: split off a normal-only training set, min-max scale, train the
ensemble, and report AUROC plus the top-20% confusion metrics on the
held-out remainder.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from edenet.atomic import atomic_write_json
from edenet.cli import RunConfig, _int_list
from edenet.data import fit_scale, load_csv, load_schema, split_normal_train
from edenet.ensemble import TrainConfig
from edenet.errors import ConfigError
from edenet.metalearn import MetaTask, run_cell
from edenet.metrics import evaluate, save_report_json
from edenet.model import make_arch

REPO = Path(__file__).resolve().parent.parent


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=str(REPO / "data" / "kddcup.data_10_percent"),
                    help="raw KDD99 10%% file (default %(default)s)")
    ap.add_argument("--schema", default=str(REPO / "schemas" / "kdd99_10pct.json"))
    ap.add_argument("--out", default="runs/kdd99")
    ap.add_argument("--members", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--batch-size", type=int, default=256)
    ap.add_argument("--train-fraction", type=float, default=0.8)
    ap.add_argument("--seeds", type=_int_list, default="0,1,2",
                    help="comma-separated seeds: nonempty, each >= 0, none repeated")
    ap.add_argument("--max-rows", type=int, default=None,
                    help="keep only the first N rows for quick smoke runs; "
                         "the whole file is still parsed")
    return ap.parse_args()


def check_settings(args: argparse.Namespace) -> TrainConfig:
    """The training settings, once every flag is checked; ConfigError
    names the first bad one."""
    if not args.seeds:
        raise ConfigError("--seeds needs at least one seed")
    # the CLI's rules: each seed >= 0, none repeated, and I >= 1
    RunConfig(seeds=args.seeds, n_members=args.members)
    if not 0 < args.train_fraction < 1:
        raise ConfigError("--train-fraction must lie in (0, 1)")
    if args.max_rows is not None and args.max_rows < 1:
        raise ConfigError("--max-rows must be >= 1")
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size)


def main() -> int:
    args = parse_args()
    try:
        tc = check_settings(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    data_path = Path(args.data)
    if not data_path.exists():
        print(f"error: dataset not found at {data_path}; download "
              "kddcup.data_10_percent and pass --data", file=sys.stderr)
        return 2

    out = Path(args.out)  # made at the first report write

    print(f"parsing {data_path} ...")
    t0 = time.time()
    ds = load_csv(data_path, load_schema(args.schema), has_header=False)
    if args.max_rows is not None:
        ds = ds.take(np.arange(min(args.max_rows, ds.n_rows)))
    print(f"{ds.n_rows} rows x {ds.n_features} features "
          f"({int(ds.labels.sum())} anomalies) in {time.time() - t0:.1f}s")

    aurocs = []
    for seed in args.seeds:
        t0 = time.time()
        train, test = split_normal_train(ds, args.train_fraction, seed=seed)
        task = MetaTask(fit_scale(train), test)
        scores, _ = run_cell(task, make_arch(task.train.n_features), args.members,
                             replace(tc, seed=seed))
        report = evaluate(scores, task.test.labels, q=0.2)
        save_report_json(report, out / f"report_seed{seed}.json")
        aurocs.append(report.auroc)
        print(f"seed {seed}: AUROC {report.auroc:.4f} "
              f"precision {report.precision:.4f} recall {report.recall:.4f} "
              f"({time.time() - t0:.0f}s)")

    summary = {"mean_auroc": float(np.mean(aurocs)),
               "per_seed_auroc": aurocs}
    atomic_write_json(out / "summary.json", summary)
    print(f"mean AUROC over {len(aurocs)} seeds: {summary['mean_auroc']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
