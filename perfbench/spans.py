"""Span tracer that wraps edenet's public functions from outside the package.

`Tracer.install()` replaces each function in TARGETS by a wrapper in every
edenet module that binds it, so `from .x import y` copies are caught too.
A wrapper records one span (name, start, end, parent) in memory and keeps
a small payload for the derived counters. It draws no random numbers and
does not touch arguments or results, so traced and untraced runs write the
same bytes. `uninstall()` restores the originals.

Per-layer metrics are per traced iteration: a count or a time is the total
over all traced iterations divided by their number, so it repeats exactly
when the program's work is deterministic.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

# (span name, module, function). Spans of the CLI commands are named after
# the command; every other span is <module>.<function>.
TARGETS = [
    ("layers.dense_forward", "layers", "dense_forward"),
    ("layers.dense_backward", "layers", "dense_backward"),
    ("layers.lstm_forward", "layers", "lstm_forward"),
    ("layers.lstm_backward", "layers", "lstm_backward"),
    ("optim.adam_step", "optim", "adam_step"),
    ("model.loss_and_grads", "model", "loss_and_grads"),
    ("model.anomaly_score", "model", "anomaly_score"),
    ("ensemble.draw_batch_indices", "ensemble", "draw_batch_indices"),
    ("ensemble.ensemble_score", "ensemble", "ensemble_score"),
    ("ensemble.update_sample_weights", "ensemble", "update_sample_weights"),
    ("ensemble.train_ensemble", "ensemble", "train_ensemble"),
    ("data.load_csv", "data", "load_csv"),
    ("data.fit_scale", "data", "fit_scale"),
    ("data.apply_scale", "data", "apply_scale"),
    ("metrics.auroc", "metrics", "auroc"),
    ("metrics.evaluate", "metrics", "evaluate"),
    ("svr.fit_svr", "svr", "fit_svr"),
    ("svr.predict_svr", "svr", "predict_svr"),
    ("metalearn.extract_meta_features", "metalearn", "extract_meta_features"),
    ("metalearn.build_meta_dataset", "metalearn", "build_meta_dataset"),
    ("modelfile.save_model", "modelfile", "save_model"),
    ("modelfile.load_model", "modelfile", "load_model"),
    ("cli.read_scores_csv", "cli", "read_scores_csv"),
    ("cli.train", "cli", "cmd_train"),
    ("cli.score", "cli", "cmd_score"),
    ("cli.eval", "cli", "cmd_eval"),
    ("cli.meta_build", "cli", "cmd_meta_build"),
    ("cli.meta_fit", "cli", "cmd_meta_fit"),
    ("cli.meta_select", "cli", "cmd_meta_select"),
]


def _dense_flops(args, result, backward: bool):
    layer, x = args[0], args[1]
    macs = x.shape[0] * layer.weights.shape[0] * layer.weights.shape[1]
    if not backward:
        return 2 * macs
    # grad_w and grad_in, plus the forward matmul recomputed for tanh layers
    return (6 if layer.activation == "tanh" else 4) * macs


# what a wrapper keeps from a call, for the derived counters
KEEP = {
    "layers.dense_forward": lambda a, r: _dense_flops(a, r, backward=False),
    "layers.dense_backward": lambda a, r: _dense_flops(a, r, backward=True),
    "model.anomaly_score": lambda a, r: len(r),
    "ensemble.draw_batch_indices": lambda a, r: r,
    "ensemble.update_sample_weights": lambda a, r: r.values,
    "data.load_csv": lambda a, r: (r.n_rows, os.path.getsize(a[0])),
    "metalearn.build_meta_dataset": lambda a, r: len(r),
    "modelfile.save_model": lambda a, r: os.path.getsize(a[1]),
    "modelfile.load_model": lambda a, r: os.path.getsize(a[0]),
}

FULL = ("calls", "total_s", "self_s", "p50_us", "tail_us")
SHORT = FULL[:3]
CMD = FULL[1:3]
FULL_KEYS = ["layers.dense_forward", "layers.dense_backward", "layers.lstm_forward",
             "layers.lstm_backward", "optim.adam_step", "model.loss_and_grads",
             "model.anomaly_score", "ensemble.draw_batch_indices",
             "ensemble.ensemble_score.reweight", "ensemble.ensemble_score.score",
             "ensemble.update_sample_weights", "data.load_csv"]
SHORT_KEYS = ["ensemble.train_ensemble", "data.fit_scale", "data.apply_scale",
              "metrics.auroc", "metrics.evaluate", "svr.fit_svr", "svr.predict_svr",
              "metalearn.extract_meta_features", "metalearn.build_meta_dataset",
              "modelfile.save_model", "modelfile.load_model", "cli.read_scores_csv"]
CMD_KEYS = ["cli.train", "cli.score", "cli.eval", "cli.meta_build", "cli.meta_fit",
            "cli.meta_select"]
DERIVED = ["layers.dense_forward.computed_gflop_s", "layers.dense_backward.computed_gflop_s",
           "model.anomaly_score.rows", "model.anomaly_score.rows_per_s",
           "ensemble.draw_batch_indices.unique_frac",
           "ensemble.update_sample_weights.ess_frac",
           "ensemble.update_sample_weights.max_w_times_n",
           "data.load_csv.rows", "data.load_csv.bytes", "data.load_csv.mb_per_s",
           "metalearn.build_meta_dataset.cells", "modelfile.save_model.bytes",
           "modelfile.load_model.bytes", "trace.overhead_frac"]

# every per-layer metric; BENCHMARK.json lists the same names with units
PER_LAYER = ([f"{k}.{s}" for k in FULL_KEYS for s in FULL]
             + [f"{k}.{s}" for k in SHORT_KEYS for s in SHORT]
             + [f"{k}.{s}" for k in CMD_KEYS for s in CMD]
             + DERIVED)

TAIL_LADDER = (0.999, 0.99, 0.9, 0.5)


def tail(values: np.ndarray) -> tuple[str, float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it;
    the maximum when there are too few samples for any."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1 - q) >= 10:
            return f"p{q * 100:g}", float(np.quantile(values, q))
    return "max", float(values.max()) if n else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kept: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, kept = self._stack, self.kept

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if keep is not None:
                kept[idx] = keep(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for _, module, _ in TARGETS:
            importlib.import_module(f"edenet.{module}")
        modules = [m for n, m in sys.modules.items()
                   if n == "edenet" or n.startswith("edenet.")]
        for span, module, func in TARGETS:
            orig = getattr(sys.modules[f"edenet.{module}"], func)
            wrapper = self._wrap(span, orig, KEEP.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def write_spans(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "parent", "start_s", "end_s"])
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parents,
                                                 self.starts, self.ends)):
                w.writerow([i, n, p, f"{s - t0:.9f}", f"{e - t0:.9f}"])

    def layer_metrics(self, n_iters: int, overhead_frac: float) -> tuple[dict, dict]:
        """(metric values keyed by PER_LAYER name, tail percentile labels)."""
        dur = np.array(self.ends) - np.array(self.starts)
        parent = np.array(self.parents, dtype=np.int64)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered

        groups: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            if name == "ensemble.ensemble_score":
                caller = self.names[parent[i]] if parent[i] >= 0 else ""
                role = {"ensemble.train_ensemble": "reweight", "cli.score": "score"}.get(caller)
                if role is None:
                    continue
                name = f"{name}.{role}"
            groups.setdefault(name, []).append(i)

        values: dict[str, float] = {}
        labels: dict[str, str] = {}
        for keys, stats in ((FULL_KEYS, FULL), (SHORT_KEYS, SHORT), (CMD_KEYS, CMD)):
            for key in keys:
                idx = np.array(groups.get(key, []), dtype=np.int64)
                labels[key], slowest = tail(dur[idx])
                row = {"calls": len(idx) / n_iters,
                       "total_s": float(dur[idx].sum()) / n_iters,
                       "self_s": float(own[idx].sum()) / n_iters,
                       "p50_us": float(np.median(dur[idx])) * 1e6 if len(idx) else 0.0,
                       "tail_us": slowest * 1e6}
                for stat in stats:
                    values[f"{key}.{stat}"] = row[stat]

        def kept(key):
            return [self.kept[i] for i in groups.get(key, []) if i in self.kept]

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        for layer in ("dense_forward", "dense_backward"):
            flops = sum(kept(f"layers.{layer}"))
            values[f"layers.{layer}.computed_gflop_s"] = ratio(
                flops / 1e9, values[f"layers.{layer}.total_s"] * n_iters)
        rows = sum(kept("model.anomaly_score"))
        values["model.anomaly_score.rows"] = rows / n_iters
        values["model.anomaly_score.rows_per_s"] = ratio(
            rows, values["model.anomaly_score.total_s"] * n_iters)
        draws = kept("ensemble.draw_batch_indices")
        values["ensemble.draw_batch_indices.unique_frac"] = (
            float(np.mean([len(np.unique(d)) / len(d) for d in draws])) if draws else 0.0)
        ess, wmax = self._final_weights(groups)
        values["ensemble.update_sample_weights.ess_frac"] = ess
        values["ensemble.update_sample_weights.max_w_times_n"] = wmax
        loads = kept("data.load_csv")
        n_bytes = sum(b for _, b in loads)
        values["data.load_csv.rows"] = sum(r for r, _ in loads) / n_iters
        values["data.load_csv.bytes"] = n_bytes / n_iters
        values["data.load_csv.mb_per_s"] = ratio(
            n_bytes / 1e6, values["data.load_csv.total_s"] * n_iters)
        values["metalearn.build_meta_dataset.cells"] = sum(
            kept("metalearn.build_meta_dataset")) / n_iters
        values["modelfile.save_model.bytes"] = sum(kept("modelfile.save_model")) / n_iters
        values["modelfile.load_model.bytes"] = sum(kept("modelfile.load_model")) / n_iters
        values["trace.overhead_frac"] = overhead_frac
        return values, labels

    def _final_weights(self, groups) -> tuple[float, float]:
        """Median over training runs of the last epoch's (1/sum w^2)/N and
        max(w)*N; zeros when no run reweighted."""
        last: dict[int, np.ndarray] = {}
        for i in groups.get("ensemble.update_sample_weights", []):
            # the enclosing train_ensemble span is the parent
            if i in self.kept and self.parents[i] >= 0:
                last[self.parents[i]] = self.kept[i]
        if not last:
            return 0.0, 0.0
        ess = [1.0 / float(np.dot(w, w)) / len(w) for w in last.values()]
        wmax = [float(w.max()) * len(w) for w in last.values()]
        return float(np.median(ess)), float(np.median(wmax))
