#!/usr/bin/env python3
"""Replicated comparison of ensemble sizes on the synthetic Gaussian task.

Generates the shifted-Gaussian detection problem per seed, trains one
ensemble per method, and prints the aggregated metric table. A thin
wrapper over `edenet bench`; the written config is left in the output
directory for rerunning by hand.
"""

import argparse
import sys
from pathlib import Path

from edenet.atomic import atomic_write_json
from edenet.cli import _int_list, main as edenet_main


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/synthetic_benchmark",
                    help="output directory (default %(default)s)")
    ap.add_argument("--members", type=_int_list, default="1,3,5", metavar="I1,I2,...",
                    help="ensemble sizes to compare (default %(default)s)")
    ap.add_argument("--seeds", type=_int_list, default="0,1,2,3,4",
                    help="replication seeds (default %(default)s)")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--d", type=int, default=10, help="feature dimension")
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--shift", type=float, default=4.0,
                    help="anomaly mean shift in every dimension")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    config = {
        "synthetic": {"d": args.d, "n_train": args.n_train,
                      "n_test_normal": 400, "n_test_anomaly": 100,
                      "shift": args.shift},
        "methods": [{"name": f"ede_I{i}", "n_members": i} for i in args.members],
        "train": {"epochs": args.epochs, "batch_size": 64},
        "seeds": args.seeds,
        "out": args.out,
    }
    cfg_path = Path(args.out) / "benchmark_config.json"
    atomic_write_json(cfg_path, config)
    return edenet_main(["bench", "--config", str(cfg_path)])


if __name__ == "__main__":
    sys.exit(main())
