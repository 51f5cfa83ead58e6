#!/usr/bin/env python3
"""Workload process of the edenet benchmark.

Runs the CLI steps of one workload's plan (written by gen.py) in-process,
through `edenet.cli.main`, until --seconds have passed; times each step,
times a fixed speed probe between iterations, checks every output, and
writes a result JSON for run.py. With --trace 1 it alternates untraced and
traced iterations, so the same process yields the tracing overhead and the
per-layer spans. run.py starts it with the thread variables pinned:

    python3 perfbench/worker.py --inputs DIR --runs DIR --result FILE \
        --seconds 20 --trace 0 --store FILE
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import mmap
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from run import PINNED

ROOT = Path(__file__).resolve().parent.parent
# median SpeedProbe time on the 2-vCPU Intel Xeon host the bounds were set
# on; a normalized time is what the commands would take at that speed
PROBE_NOMINAL_S = 0.14


class Ledger:
    """Counts operations (CLI commands and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def step_name(argv: list[str]) -> str:
    return f"meta_{argv[1]}" if argv[0] == "meta" else argv[0]


def run_cli(argv: list[str], log) -> int | None:
    import edenet.cli

    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return edenet.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            # an uncaught error is a failed operation, not a benchmark crash
            traceback.print_exc(file=log)
            return None


def run_steps(plan: dict, runs: Path, ledger: Ledger, log) -> dict[str, float]:
    outs = {f"{{out_{step_name(a)}}}": str(runs / step_name(a)) for a in plan["steps"]}
    walls = {}
    for argv in plan["steps"]:
        name = step_name(argv)
        full = []
        for arg in argv:
            for key, value in outs.items():
                arg = arg.replace(key, value)
            full.append(arg)
        full += ["--out", str(runs / name)]
        t0 = perf_counter()
        rc = run_cli(full, log)
        walls[name] = perf_counter() - t0
        ledger.check(rc == 0, f"{name}: exit code {rc}")
    return walls


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def read_rows(path: Path) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None


def finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def oracle_auroc(scores, labels) -> float:
    """Rank-sum AUROC with tied scores sharing their mean rank."""
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    mean_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = mean_rank[inverse]
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@functools.cache
def read_labels(path: str) -> list[int]:
    return [int(v) for v in Path(path).read_text(encoding="utf-8").split()]


def check_eval(report_dir: Path, scores_csv: Path, labels: str,
               ledger: Ledger) -> float | None:
    """The eval report's AUROC must equal an independent rank-sum AUROC of
    the score file against the generator's labels."""
    try:
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        auroc = float(report["auroc"])
    except (OSError, KeyError, TypeError, ValueError):
        ledger.check(False, "eval: report.json unreadable")
        return None
    rows = read_rows(scores_csv) or []
    expected = oracle_auroc([float(r["raw_score"]) for r in rows], read_labels(labels))
    ledger.check(abs(auroc - expected) <= 1e-9,
                 f"eval: report AUROC {auroc!r} != rank-sum AUROC {expected!r}")
    return auroc


def check_outputs(plan: dict, runs: Path, ledger: Ledger) -> None:
    """Output checks of one iteration; each counts as one operation."""
    from edenet.modelfile import load_model

    names = [step_name(a) for a in plan["steps"]]
    if "train" in names:
        try:
            load_model(runs / "train" / "model.json")
            ok = True
        except (OSError, ValueError):
            ok = False
        ledger.check(ok, "train: model.json does not reload")
        rows = read_rows(runs / "train" / "trace.csv")
        ledger.check(rows is not None and len(rows) == plan["epochs"]
                     and all(finite(v) for r in rows for v in r.values()),
                     "train: trace.csv lacks one finite row per epoch")
    if "score" in names:
        rows = read_rows(runs / "score" / "scores.csv")
        ledger.check(rows is not None and len(rows) == plan["score_rows"]
                     and all(finite(r["raw_score"]) and finite(r["normalized_score"])
                             for r in rows),
                     "score: scores.csv lacks one finite row per input row")
    if "meta_build" in names:
        rows = read_rows(runs / "meta_build" / "meta.csv")
        ledger.check(rows is not None
                     and len(rows) == plan["n_tasks"] * len(plan["candidates"])
                     and all(0.0 <= float(r["auroc"]) <= 1.0 for r in rows),
                     "meta build: meta.csv lacks tasks x candidates rows")
    if "meta_select" in names:
        try:
            doc = json.loads((runs / "meta_select" / "selection.json").read_text("utf-8"))
            ok = doc.get("chosen") in plan["candidates"]
        except (OSError, ValueError):
            ok = False
        ledger.check(ok, "meta select: chosen is not a candidate")


def iteration_auroc(plan: dict, runs: Path, ledger: Ledger) -> float | None:
    """heldout_auroc of workloads whose timed steps produce it."""
    names = [step_name(a) for a in plan["steps"]]
    if "eval" in names:
        return check_eval(runs / "eval", runs / "score" / "scores.csv",
                          plan["score_labels"], ledger)
    if "meta_build" in names:
        rows = read_rows(runs / "meta_build" / "meta.csv") or []
        return statistics.fmean(float(r["auroc"]) for r in rows) if rows else None
    return None


def heldout_after_training(plan: dict, runs: Path, ledger: Ledger, log) -> float | None:
    """Untimed `score` + `eval` of the trained model on the held-out split."""
    train = runs / "train"
    common = ["--data", plan["heldout"], "--schema", plan["schema"]]
    rc = run_cli(["score", "--model", str(train / "model.json"), "--scaling",
                  str(train / "scaling.json"), *common, "--out", str(runs / "heldout_score")], log)
    ledger.check(rc == 0, f"held-out score: exit code {rc}")
    rc = run_cli(["eval", "--scores", str(runs / "heldout_score" / "scores.csv"), *common,
                  "--out", str(runs / "heldout_eval")], log)
    ledger.check(rc == 0, f"held-out eval: exit code {rc}")
    return check_eval(runs / "heldout_eval", runs / "heldout_score" / "scores.csv",
                      plan["heldout_labels"], ledger)


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src" / "edenet", ROOT / "perfbench"):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_against_store(store: Path, key: str, record: dict, ledger: Ledger) -> None:
    """Artifact hash and held-out AUROC must match earlier runs of the same
    code and seed; the first run records them."""
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    if key in known:
        for field in ("sha256", "heldout_auroc"):
            ledger.check(known[key][field] == record[field],
                         f"{field} differs from an earlier run of the same code and seed")
        return
    known[key] = record
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, store)


class SpeedProbe:
    """Times a fixed mix of work that involves no edenet code: small
    matmuls (call overhead), larger matmuls with tanh, float parsing, and
    first touches of freshly mapped pages. The host's speed for both
    computing and page faults drifts by tens of percent over minutes and
    moves this probe and the workload alike, so each iteration's time is
    also reported scaled by PROBE_NOMINAL_S / (mean of the probes around
    it). The numpy buffers are small and preallocated and the mapping is
    small and returned at once, so the probe neither raises the peak RSS
    nor depends on the allocator's state."""

    PAGE = 4096
    MAPPED = 500 * PAGE

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a, self.b = rng.standard_normal((64, 32)), rng.standard_normal((32, 64))
        self.x, self.w = rng.standard_normal((1000, 64)), rng.standard_normal((64, 64))
        self.small, self.big = np.empty((64, 64)), np.empty((1000, 64))
        self.texts = [repr(v) for v in rng.standard_normal(5000).tolist()]

    def __call__(self) -> float:
        import numpy as np

        t0 = perf_counter()
        for _ in range(2000):
            np.tanh(np.matmul(self.a, self.b, out=self.small), out=self.small)
        for _ in range(120):
            np.tanh(np.matmul(self.x, self.w, out=self.big), out=self.big)
        for _ in range(6):
            sum(float(t) for t in self.texts)
        for _ in range(40):
            with mmap.mmap(-1, self.MAPPED) as mem:
                np.frombuffer(mem, dtype=np.uint8)[::self.PAGE] = 1
        return perf_counter() - t0


def environment(plan: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_text,
            "threads": {k: os.environ.get(k) for k in PINNED},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "workload": plan["workload"], "seed": plan["seed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--runs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import edenet.cli

    src = (ROOT / "src").resolve()
    if src not in Path(edenet.cli.__file__).resolve().parents:
        print(f"edenet was imported from {edenet.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from spans import Tracer

    plan = json.loads((Path(args.inputs) / "plan.json").read_text(encoding="utf-8"))
    runs = Path(args.runs)
    ledger = Ledger()
    log = io.StringIO()
    tracer = Tracer() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    normalized: list[float] = []
    step_walls: dict[str, list[float]] = {}
    hashes: set[str | None] = set()
    aurocs: set[float | None] = set()
    probe = SpeedProbe()
    probes = [probe()]

    start = perf_counter()
    n = 0
    while True:
        trace_this = tracer is not None and n % 2 == 1
        if trace_this:
            tracer.install()
        try:
            walls = run_steps(plan, runs, ledger, log)
        finally:
            if trace_this:
                tracer.uninstall()
        probes.append(probe())
        (traced if trace_this else untraced).append(sum(walls.values()))
        if not trace_this:
            normalized.append(untraced[-1] * PROBE_NOMINAL_S / statistics.fmean(probes[-2:]))
            for name, wall in walls.items():
                step_walls.setdefault(name, []).append(wall)
        check_outputs(plan, runs, ledger)
        hashes.add(sha256(runs / plan["artifact"]))
        aurocs.add(iteration_auroc(plan, runs, ledger))
        n += 1
        per_iter = (perf_counter() - start) / n
        enough = n >= (2 if tracer is not None else 1)
        if enough and perf_counter() - start + 0.5 * per_iter >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if "heldout" in plan:
        aurocs = {heldout_after_training(plan, runs, ledger, log)}
    ledger.check(len(hashes) == 1 and None not in hashes,
                 "output hash differs between iterations (or traced vs untraced)")
    ledger.check(len(aurocs) == 1 and None not in aurocs,
                 "heldout_auroc differs between iterations")
    heldout_auroc = next(iter(aurocs))
    record = {"sha256": next(iter(hashes)), "heldout_auroc": heldout_auroc}
    check_against_store(Path(args.store),
                        f"{plan['workload']}:{plan['seed']}:{code_fingerprint()}",
                        record, ledger)

    result = {"attempted": ledger.attempted, "failed": len(ledger.failures),
              "failures": ledger.failures, "iterations": untraced,
              "normalized_iterations": normalized, "probes": probes,
              "step_walls": step_walls, "peak_rss_mb": peak_rss_mb,
              "heldout_auroc": heldout_auroc, "sha256": record["sha256"],
              "env": environment(plan)}
    if tracer is not None:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        values, labels = tracer.layer_metrics(len(traced), overhead)
        tracer.write_spans(runs / "spans.csv")
        result.update(traced_iterations=traced, per_layer=values, tail_labels=labels)
    (runs / "cli.log").write_text(log.getvalue(), encoding="utf-8")
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
