#!/usr/bin/env python3
"""edenet benchmark: one command prints every metric of one workload run.

    python3 perfbench/run.py --workload train-kdd --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it uses the checkout's `src/` only.
A run makes its inputs from --seed (gen.py), times a fresh
`import edenet.cli` a few times (setup_s), then starts one single-threaded
workload process (worker.py) that drives the `edenet` CLI in-process for
--seconds and checks every output. It prints the environment and the
metrics by name with their units, and as its last line one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Everything it writes goes under `.perfbench_work/` in the checkout.
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import PER_LAYER, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-lstm", "train-kdd", "score-100k", "meta-loop")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
# the commands behind each workload's cmd_s, under their own names
COMMANDS = {"train_s": ("train",), "score_s": ("score",), "eval_s": ("eval",),
            "meta_s": ("meta_build", "meta_fit", "meta_select")}
PROBE = ("import sys, edenet.cli; "
         "sys.stdout.write(edenet.cli.__file__ + '\\n'); sys.stdout.flush()")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def time_left(started: float) -> float:
    left = RUN_LIMIT_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def run_child(args: list[str], log: Path, started: float) -> None:
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run([sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT,
                                  env=child_env(), cwd=ROOT, timeout=time_left(started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{Path(args[0]).name} timed out; see {log}") from None
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise BenchError(f"{Path(args[0]).name} exited with {proc.returncode}: "
                         + " | ".join(tail))


def setup_probe(started: float) -> float:
    """Seconds from starting a fresh interpreter to `import edenet.cli` done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    try:
        proc.wait(timeout=time_left(started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("setup probe hung") from None
    src = (ROOT / "src").resolve()
    if proc.returncode != 0 or src not in Path(line.strip()).resolve().parents:
        raise BenchError(f"`import edenet.cli` failed or did not come from {src}")
    return elapsed


def summary(values: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    label, value = tail(np.array(values))
    text = f"median {statistics.median(values):.4f} {unit}"
    if label == "max":
        return f"{text}, n={len(values)} (too few for a tail percentile)"
    return f"{text}, {label} {value:.4f} {unit} (n={len(values)})"


def declared_metrics() -> tuple[dict, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "edenet" / "cli.py").is_file():
        print(f"error: no edenet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "runs").mkdir(parents=True)

    run_child([str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--out", str(work / "inputs")], work / "gen.log", started)
    probes = [setup_probe(started) for _ in range(SETUP_PROBES)]
    run_child([str(HERE / "worker.py"), "--inputs", str(work / "inputs"),
               "--runs", str(work / "runs"), "--result", str(work / "result.json"),
               "--store", str(WORK / "determinism.json"), "--seconds", str(args.seconds),
               "--trace", str(args.trace)], work / "worker.log", started)
    res = json.loads((work / "result.json").read_text(encoding="utf-8"))

    print(f"edenet benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    fail_frac = res["failed"] / res["attempted"]
    if args.trace == 0:
        metrics = {"setup_s": statistics.median(probes),
                   "cmd_norm_s": statistics.median(res["normalized_iterations"]),
                   "peak_rss_mb": res["peak_rss_mb"],
                   "heldout_auroc": res["heldout_auroc"],
                   "ok_frac": 1.0 - fail_frac}
        print(f"setup_s: {summary(probes, 's')} (fresh `import edenet.cli`)")
        for name, steps in COMMANDS.items():
            walls = [sum(w) for w in zip(*(res["step_walls"][s] for s in steps
                                           if s in res["step_walls"]))]
            print(f"{name}: " + (summary(walls, "s") if walls else "not run by this workload"))
        print(f"cmd_s: {summary(res['iterations'], 's')} (timed commands of one iteration)")
        print(f"speed probe: {summary(res['probes'], 's')}")
        print(f"cmd_norm_s: {summary(res['normalized_iterations'], 's')} "
              "(cmd_s at the nominal probe speed)")
        print(f"peak_rss_mb: {res['peak_rss_mb']:.1f} MB")
        print(f"heldout_auroc: {res['heldout_auroc']!r}")
        units = end_to_end
    else:
        metrics = res["per_layer"]
        for name, value in metrics.items():
            if value:
                key = name.rsplit(".", 1)[0]
                label = f" ({res['tail_labels'][key]})" if name.endswith(".tail_us") else ""
                print(f"{name}: {value:.6g} {per_layer[name]}{label}")
        units = per_layer
    print(f"fail_frac: {res['failed']}/{res['attempted']} = {fail_frac:g}")
    for failure in res["failures"]:
        print(f"failed: {failure}")
    if set(per_layer) != set(PER_LAYER) or set(metrics) != set(units):
        raise BenchError("emitted metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
