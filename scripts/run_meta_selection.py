#!/usr/bin/env python3
"""Full meta-learning walkthrough on generated tasks.

Builds several synthetic detection tasks of different sizes, trains an
ensemble per (task, candidate size), fits the performance regressor on
the resulting records, and asks it to pick an ensemble size for a
held-out task. Every phase goes through the `edenet meta` subcommands so
the produced meta.csv / meta_model.json / selection.json match what an
operator would get by hand.

With the defaults this takes a couple of minutes on a laptop; shrink
--epochs or --task-sizes to iterate faster.
"""

import argparse
import sys
from pathlib import Path

from edenet.atomic import atomic_write_json
from edenet.cli import _int_list, main as edenet_main


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/meta_selection")
    ap.add_argument("--task-sizes", type=_int_list, default="200,400,600,800",
                    help="training rows per generated task")
    ap.add_argument("--candidates", type=_int_list, default="1,3,5,7,10,15")
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--d", type=int, default=8, help="feature dimension")
    ap.add_argument("--shift", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def synth(out_dir: Path, n_normal: int, n_anomaly: int, args, seed: int) -> Path:
    rc = edenet_main([
        "synth", "--out", str(out_dir), "--d", str(args.d),
        "--n-normal", str(n_normal), "--n-anomaly", str(n_anomaly),
        "--shift", str(args.shift), "--seed", str(seed),
    ])
    if rc != 0:
        raise SystemExit(rc)
    return out_dir


def main() -> int:
    args = parse_args()
    out = Path(args.out)

    tasks = []
    for idx, n in enumerate(args.task_sizes):
        train_dir = synth(out / f"task{idx}_train", n, 0, args,
                          seed=args.seed * 1000 + 2 * idx)
        test_dir = synth(out / f"task{idx}_test", 200, 50, args,
                         seed=args.seed * 1000 + 2 * idx + 1)
        tasks.append({"train": str(train_dir / "data.csv"),
                      "test": str(test_dir / "data.csv"),
                      "name": f"n{n}"})

    build_cfg = out / "build_config.json"
    atomic_write_json(build_cfg, {
        "schema": str(out / "task0_train" / "schema.json"),
        "tasks": tasks,
        "candidates": args.candidates,
        "train": {"epochs": args.epochs, "batch_size": 64, "seed": args.seed},
        "out": str(out / "build"),
    })
    rc = edenet_main(["meta", "build", "--config", str(build_cfg)])
    if rc != 0:
        return rc

    rc = edenet_main(["meta", "fit",
                      "--meta", str(out / "build" / "meta.csv"),
                      "--out", str(out / "fit")])
    if rc != 0:
        return rc

    held_out = synth(out / "held_out", 500, 0, args, seed=args.seed * 1000 + 99)
    return edenet_main([
        "meta", "select",
        "--model", str(out / "fit" / "meta_model.json"),
        "--data", str(held_out / "data.csv"),
        "--schema", str(held_out / "schema.json"),
        "--candidates", ",".join(map(str, args.candidates)),
        "--out", str(out / "select"),
    ])


if __name__ == "__main__":
    sys.exit(main())
