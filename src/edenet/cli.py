"""Operator command-line surface.

Subcommands: train, score, eval, meta {build, fit, select}, bench, synth.
Each run takes an optional JSON config file; command-line flags override
file values, and the effective configuration is echoed into the output
directory. Output directories default to $EDENET_OUTPUT_ROOT/<command>
(EDENET_OUTPUT_ROOT itself defaults to ./runs).

Exit codes: 0 success, 2 configuration/validation problem, 3 numeric
failure (divergence, fit failure), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open, atomic_write_json
from .data import (
    Dataset,
    apply_scale,
    generate_synthetic,
    load_csv,
    load_schema,
    load_training_rows,
    numeric_schema_for,
    read_csv_blocks,
    save_schema,
    scaling_from_dict,
    scaling_to_dict,
    training_split,
    write_csv,
)
from .ensemble import (
    EnsembleModel,
    TrainConfig,
    ensemble_score,
    init_ensemble,
    train_ensemble,
    write_trace_csv,
)
from .errors import (
    ConfigError,
    FitError,
    NotFittedError,
    TrainingDivergedError,
    expect_type,
)
from .metalearn import (
    MetaTask,
    build_meta_dataset,
    extract_meta_features,
    load_meta_csv,
    pick_best,
    predict_candidates,
    save_meta_csv,
    svr_fit,
)
from .metrics import evaluate, save_report_csv, save_report_json
from .model import EdeNet, anomaly_score, make_arch, normalize_scores
from .modelfile import load_model, save_model
from .rng import derived_seed
from .svr import SvrModel

DEFAULT_CANDIDATES = (1, 3, 5, 7, 10, 15)
OUTPUT_ROOT_ENV = "EDENET_OUTPUT_ROOT"
METRIC_NAMES = ("precision", "recall", "f1", "accuracy", "auroc")


@dataclass
class RunConfig:
    """Everything a run can be told, with a default for every field.

    data/test_data/schema/model/scores/scaling/meta_csv are file paths;
    arch and train hold field overrides for ArchSpec and TrainConfig;
    svr holds C / epsilon / gamma for the meta-learner; tasks lists
    {train, test, [schema], [name]} entries for meta build; methods lists
    {name, [n_members], [arch], [train]} entries for bench; synthetic
    describes a generated bench task instead of files.
    """

    data: str | None = None
    test_data: str | None = None
    schema: str | None = None
    model: str | None = None
    scores: str | None = None
    scaling: str | None = None
    meta_csv: str | None = None
    out: str | None = None
    arch: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    svr: dict = field(default_factory=dict)
    n_members: int = 3
    candidates: list[int] = field(default_factory=lambda: list(DEFAULT_CANDIDATES))
    q: float = 0.2
    seeds: list[int] = field(default_factory=lambda: [0])
    scale: bool = True
    tasks: list[dict] = field(default_factory=list)
    methods: list[dict] = field(default_factory=list)
    synthetic: dict | None = None

    def __post_init__(self):
        expect_type("q", self.q, int, float)
        expect_type("n_members", self.n_members, int)
        if not 0 < self.q < 1:
            raise ConfigError("q must lie in (0, 1)")
        if self.n_members < 1:
            raise ConfigError("n_members must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def _load_config_file(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return RunConfig.from_dict(doc)


def _require(value: str | None, what: str) -> Path:
    if value is None:
        raise ConfigError(f"missing required {what}")
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _out_dir(cfg: RunConfig, command: str) -> Path:
    if cfg.out is not None:
        out = Path(cfg.out)
    else:
        out = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs")) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, command: str, cfg: RunConfig) -> None:
    doc = {"command": command, **asdict(cfg), "out": str(out)}
    atomic_write_json(out / "effective_config.json", doc, sort_keys=True)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "train")
    schema = load_schema(_require(cfg.schema, "schema path"))
    train_ds = load_training_rows(_require(cfg.data, "training data path"), schema,
                                  cfg.scale)
    if cfg.scale:
        with atomic_open(out / "scaling.json") as fh:
            fh.write(json.dumps(scaling_to_dict(train_ds.scaling_stats)) + "\n")

    tc = TrainConfig.from_dict(cfg.train)
    spec = make_arch(train_ds.n_features, cfg.arch)
    ens = init_ensemble(spec, cfg.n_members, seed=tc.seed)
    ens, trace = train_ensemble(ens, train_ds.features, tc)

    save_model(ens, out / "model.json")
    write_trace_csv(out / "trace.csv", trace)
    _echo_config(out, "train", cfg)

    print(f"trained ensemble: I={ens.size}, d={spec.input_dim}, "
          f"epochs={tc.epochs}, rows={train_ds.n_rows}")
    if trace:
        print(f"combined loss: first epoch {trace[0].combined:.6f}, "
              f"final epoch {trace[-1].combined:.6f}")
    print(f"wrote {out / 'model.json'}")
    return 0


# ---------------------------------------------------------------------------
# score


def _write_scores(path, raw: np.ndarray, norm: np.ndarray) -> None:
    """Write the bytes csv.writer writes for these rows, body in one call."""
    body = "".join(f"{i},{r!r},{s!r}\r\n"
                   for i, (r, s) in enumerate(zip(raw.tolist(), norm.tolist())))
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(["row_index", "raw_score", "normalized_score"])
        fh.write(body)


def cmd_score(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "score")
    obj = load_model(_require(cfg.model, "model path"))
    if not isinstance(obj, (EdeNet, EnsembleModel)):
        raise ConfigError("model file does not hold a net or an ensemble")
    schema = load_schema(_require(cfg.schema, "schema path"))
    ds = load_csv(_require(cfg.data, "data path"), schema, require_labels=False)
    if cfg.scaling is not None:
        stats = scaling_from_dict(json.loads(
            _require(cfg.scaling, "scaling stats path").read_text(encoding="utf-8")))
        ds = apply_scale(ds, stats)

    path = out / "scores.csv"
    if ds.n_rows == 0:
        _write_scores(path, np.empty(0), np.empty(0))
        print(f"scored 0 rows; wrote {path}")
    else:
        score = ensemble_score if isinstance(obj, EnsembleModel) else anomaly_score
        raw = score(obj, ds.features)
        norm = normalize_scores(raw)
        _write_scores(path, raw, norm)
        print(f"scored {ds.n_rows} rows; wrote {path}")
    _echo_config(out, "score", cfg)
    return 0


def read_scores_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Raw and normalized scores from a score CSV. Every row must carry as
    many fields as the header, and both score fields must be finite
    numbers (load_csv's grammar); otherwise CsvParseError names the line."""
    need = ("row_index", "raw_score", "normalized_score")
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None or not set(need) <= set(header):
            raise ValueError(f"score CSV must carry columns {sorted(need)}")
        scores = [header.index("raw_score"), header.index("normalized_score")]
        blocks = list(read_csv_blocks(fh, header, scores, [], has_header=True))
    raw, norm = (np.concatenate([b[i] for b in blocks]) for i in scores)
    return raw, norm


# ---------------------------------------------------------------------------
# eval


def cmd_eval(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "eval")
    raw, _ = read_scores_csv(_require(cfg.scores, "score CSV path"))
    schema = load_schema(_require(cfg.schema, "schema path"))
    ds = load_csv(_require(cfg.data, "labeled data path"), schema,
                  require_labels=True)
    if ds.n_rows != raw.size:
        raise ValueError(
            f"score CSV has {raw.size} rows, labeled data has {ds.n_rows}")

    report = evaluate(raw, ds.labels, q=cfg.q)
    save_report_json(report, out / "report.json")
    save_report_csv(report, out / "report.csv")
    _echo_config(out, "eval", cfg)

    for name in METRIC_NAMES:
        value = getattr(report, name)
        print(f"{name}: " + ("undefined" if value is None else f"{value:.4f}"))
    print(f"threshold_used: {report.threshold_used:.6g} (q={cfg.q})")
    if report.auroc is None:
        print("warning: AUROC undefined, labels contain a single class",
              file=sys.stderr)
    print(f"wrote {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# meta


def _load_task(entry: dict, cfg: RunConfig, index: int) -> MetaTask:
    if not isinstance(entry, dict) or "train" not in entry or "test" not in entry:
        raise ConfigError(f"task {index} must give 'train' and 'test' paths")
    unknown = set(entry) - {"train", "test", "schema", "name"}
    if unknown:
        raise ConfigError(f"task {index} has unknown keys: {sorted(unknown)}")
    schema_path = entry.get("schema", cfg.schema)
    schema = load_schema(_require(schema_path, f"task {index} schema path"))
    train_ds = load_training_rows(
        _require(entry["train"], f"task {index} train path"), schema, cfg.scale)
    test_ds = load_csv(_require(entry["test"], f"task {index} test path"), schema,
                       require_labels=True)
    if cfg.scale:
        test_ds = apply_scale(test_ds, train_ds.scaling_stats)
    return MetaTask(train=train_ds, test=test_ds,
                    name=entry.get("name", f"task{index}"))


def cmd_meta_build(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "meta")
    if not cfg.tasks:
        raise ConfigError("meta build needs a nonempty tasks list")
    if not cfg.candidates:
        raise ConfigError("candidate list is empty")
    tasks = [_load_task(entry, cfg, i) for i, entry in enumerate(cfg.tasks)]
    tc = TrainConfig.from_dict(cfg.train)
    records = build_meta_dataset(tasks, cfg.candidates, tc,
                                 arch_template=cfg.arch or None)
    path = out / "meta.csv"
    save_meta_csv(records, path)
    _echo_config(out, "meta-build", cfg)
    print(f"built {len(records)} meta records over {len(tasks)} tasks "
          f"x {len(cfg.candidates)} candidates; wrote {path}")
    return 0


def cmd_meta_fit(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "meta")
    records = load_meta_csv(_require(cfg.meta_csv, "meta CSV path"))
    unknown = set(cfg.svr) - {"C", "epsilon", "gamma"}
    if unknown:
        raise ConfigError(f"unknown svr settings: {sorted(unknown)}")
    model = svr_fit(records, **cfg.svr)
    path = out / "meta_model.json"
    save_model(model, path)
    _echo_config(out, "meta-fit", cfg)
    print(f"fitted meta-learner on {len(records)} records "
          f"(gamma={model.gamma:.6g}, C={model.C:g}, epsilon={model.epsilon:g})")
    print(f"wrote {path}")
    return 0


def cmd_meta_select(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "meta")
    if not cfg.candidates:
        raise ConfigError("candidate list is empty")
    model = load_model(_require(cfg.model, "meta model path"))
    if not isinstance(model, SvrModel):
        raise ConfigError("meta model file does not hold a meta-learner")
    schema = load_schema(_require(cfg.schema, "schema path"))
    # the rows meta build described for its tasks: normal, scaled like training
    ds = load_training_rows(_require(cfg.data, "task data path"), schema, cfg.scale)

    feats = extract_meta_features(ds)
    scored = predict_candidates(model, feats, list(cfg.candidates))
    chosen = pick_best([c for c, _ in scored], [p for _, p in scored])

    print(f"meta-features: n_instances={feats.n_instances} "
          f"n_sparse={feats.n_sparse} n_pos_skew={feats.n_pos_skew} "
          f"n_neg_skew={feats.n_neg_skew}")
    for cand, pred in scored:
        marker = "  <- chosen" if cand == chosen else ""
        print(f"I={cand}: predicted score {pred:.6f}{marker}")
    atomic_write_json(out / "selection.json", {
        "chosen": chosen,
        "predictions": {str(c): p for c, p in scored},
    })
    _echo_config(out, "meta-select", cfg)
    return 0


# ---------------------------------------------------------------------------
# bench


@dataclass
class BenchRow:
    method: str
    means: dict[str, float | None]
    stds: dict[str, float | None]


@dataclass
class BenchmarkTable:
    rows: list[BenchRow]
    n_seeds: int


def _bench_task(cfg: RunConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Train/test pair for one replication seed."""
    if cfg.synthetic is not None:
        spec = dict(cfg.synthetic)
        unknown = set(spec) - {"d", "n_train", "n_test_normal",
                               "n_test_anomaly", "shift"}
        if unknown:
            raise ConfigError(f"unknown synthetic task keys: {sorted(unknown)}")
        d = int(spec.get("d", 10))
        shift = float(spec.get("shift", 4.0))
        train = training_split(
            generate_synthetic(d, int(spec.get("n_train", 2000)), 0, shift,
                               seed=derived_seed(seed, 0)), cfg.scale)
        test = generate_synthetic(d, int(spec.get("n_test_normal", 400)),
                                  int(spec.get("n_test_anomaly", 100)), shift,
                                  seed=derived_seed(seed, 1))
    else:
        schema = load_schema(_require(cfg.schema, "schema path"))
        train = load_training_rows(_require(cfg.data, "training data path"), schema,
                                   cfg.scale)
        test = load_csv(_require(cfg.test_data, "test data path"), schema,
                        require_labels=True)
    if cfg.scale:
        test = apply_scale(test, train.scaling_stats)
    return train, test


def _run_bench_cell(cfg: RunConfig, method: dict, seed: int, train: Dataset,
                    test: Dataset, cell_dir: Path):
    arch_overrides = {**cfg.arch, **method.get("arch", {})}
    train_overrides = {**cfg.train, **method.get("train", {}), "seed": seed}
    tc = TrainConfig.from_dict(train_overrides)
    spec = make_arch(train.n_features, arch_overrides)
    n_members = method.get("n_members", cfg.n_members)

    ens = init_ensemble(spec, n_members, seed=seed)
    ens, trace = train_ensemble(ens, train.features, tc)
    raw = ensemble_score(ens, test.features)
    report = evaluate(raw, test.labels, q=cfg.q)

    cell_dir.mkdir(parents=True, exist_ok=True)
    _write_scores(cell_dir / "scores.csv", raw, normalize_scores(raw))
    save_report_json(report, cell_dir / "report.json")
    write_trace_csv(cell_dir / "trace.csv", trace)
    return report


def _aggregate(reports: list) -> tuple[dict, dict]:
    means: dict[str, float | None] = {}
    stds: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in reports]
        if any(v is None for v in values):
            means[name] = None
            stds[name] = None
            continue
        arr = np.array(values, dtype=np.float64)
        means[name] = float(arr.mean())
        stds[name] = float(arr.std(ddof=1)) if arr.size > 1 else None
    return means, stds


def cmd_bench(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "bench")
    if not cfg.methods:
        raise ConfigError("bench needs a nonempty methods list")
    if not cfg.seeds:
        raise ConfigError("bench needs at least one seed")
    names = [m.get("name") for m in cfg.methods]
    if any(not n for n in names):
        raise ConfigError("every bench method needs a name")
    if len(set(names)) != len(names):
        raise ConfigError("bench method names must be unique")

    for method in cfg.methods:
        unknown = set(method) - {"name", "n_members", "arch", "train"}
        if unknown:
            raise ConfigError(f"method {method['name']!r} has unknown keys: "
                              f"{sorted(unknown)}")
        if "n_members" in method:
            expect_type(f"method {method['name']!r} n_members", method["n_members"], int)

    reports: dict[str, list] = {name: [] for name in names}
    for seed in cfg.seeds:
        train, test = _bench_task(cfg, seed)  # shared by every method
        for method in cfg.methods:
            name = method["name"]
            try:
                reports[name].append(_run_bench_cell(cfg, method, seed, train, test,
                                                     out / name / f"seed{seed}"))
            except Exception:
                print(f"bench aborted: method {name!r} failed on seed {seed}",
                      file=sys.stderr)
                raise

    rows = [BenchRow(name, *_aggregate(reports[name])) for name in names]
    table = BenchmarkTable(rows=rows, n_seeds=len(cfg.seeds))
    _write_bench_table(out / "bench_table.csv", table)
    _write_plot_data(out / "plot_data.csv", table)
    _echo_config(out, "bench", cfg)
    _print_bench_table(table)
    print(f"wrote {out / 'bench_table.csv'} and {out / 'plot_data.csv'}")
    return 0


def _write_bench_table(path, table: BenchmarkTable) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        header = ["method"]
        for name in METRIC_NAMES:
            header += [f"{name}_mean", f"{name}_std"]
        writer.writerow(header)
        for row in table.rows:
            out = [row.method]
            for name in METRIC_NAMES:
                out += [row.means[name], row.stds[name]]
            writer.writerow(out)


def _write_plot_data(path, table: BenchmarkTable) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "metric", "mean", "stddev"])
        for row in table.rows:
            for name in METRIC_NAMES:
                writer.writerow([row.method, name, row.means[name], row.stds[name]])


def _print_bench_table(table: BenchmarkTable) -> None:
    print(f"benchmark over {table.n_seeds} seed(s):")
    for row in table.rows:
        parts = []
        for name in METRIC_NAMES:
            mean = row.means[name]
            if mean is None:
                parts.append(f"{name}=undefined")
            elif row.stds[name] is None:
                parts.append(f"{name}={mean:.4f}")
            else:
                parts.append(f"{name}={mean:.4f}+-{row.stds[name]:.4f}")
        print(f"  {row.method}: " + " ".join(parts))


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: RunConfig, d: int, n_normal: int, n_anomaly: int,
              shift: float, seed: int) -> int:
    out = _out_dir(cfg, "synth")
    ds = generate_synthetic(d, n_normal, n_anomaly, shift, seed=seed)
    write_csv(out / "data.csv", ds)
    save_schema(numeric_schema_for(ds), out / "schema.json")
    cfg.synthetic = {"d": d, "n_normal": n_normal, "n_anomaly": n_anomaly,
                     "shift": shift, "seed": seed}
    _echo_config(out, "synth", cfg)
    print(f"generated {n_normal} normal + {n_anomaly} anomalous rows in "
          f"{d} dims (shift {shift}, seed {seed})")
    print(f"wrote {out / 'data.csv'} and {out / 'schema.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edenet",
        description="Ensembles of encoder-decoder-encoder anomaly detectors "
                    "with meta-learned ensemble sizing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an ensemble on normal data")
    _add_common(p)
    p.add_argument("--data", help="training CSV")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--members", type=int, help="ensemble size I")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--encoder", choices=["feedforward", "lstm"])
    p.add_argument("--no-reweight", action="store_true",
                   help="keep sampling weights uniform")
    p.add_argument("--no-scale", action="store_true",
                   help="skip min-max scaling")

    p = sub.add_parser("score", help="write per-sample anomaly scores")
    _add_common(p)
    p.add_argument("--model", help="model file from train")
    p.add_argument("--data", help="CSV to score")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--scaling", help="scaling.json from the training run")

    p = sub.add_parser("eval", help="metrics from a score CSV and labels")
    _add_common(p)
    p.add_argument("--scores", help="score CSV from score")
    p.add_argument("--data", help="labeled CSV aligned with the scores")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--q", type=float, help="top fraction flagged anomalous")

    meta = sub.add_parser("meta", help="meta-learning over ensemble size")
    meta_sub = meta.add_subparsers(dest="meta_command", required=True)

    p = meta_sub.add_parser("build", help="train per-(task, I) and record AUROC")
    _add_common(p)
    p.add_argument("--candidates", type=_int_list,
                   help="comma-separated ensemble sizes")

    p = meta_sub.add_parser("fit", help="fit the meta-learner on a meta CSV")
    _add_common(p)
    p.add_argument("--meta", dest="meta_csv", help="meta dataset CSV")

    p = meta_sub.add_parser("select", help="pick I for a new dataset")
    _add_common(p)
    p.add_argument("--model", help="meta model file from fit")
    p.add_argument("--data", help="new task CSV")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--candidates", type=_int_list,
                   help="comma-separated ensemble sizes")

    p = sub.add_parser("bench", help="replicated comparison table")
    _add_common(p)
    p.add_argument("--seeds", type=_int_list, help="comma-separated seed list")

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    _add_common(p)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--n-normal", type=int, default=1000)
    p.add_argument("--n-anomaly", type=int, default=100)
    p.add_argument("--shift", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for name in ("data", "test_data", "schema", "model", "scores", "scaling",
                 "meta_csv", "out"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "members", None) is not None:
        cfg.n_members = args.members
    if getattr(args, "candidates", None) is not None:
        cfg.candidates = args.candidates
    if getattr(args, "q", None) is not None:
        cfg.q = args.q
    if getattr(args, "seeds", None) is not None:
        cfg.seeds = args.seeds
    for train_key in ("epochs", "batch_size", "seed"):
        value = getattr(args, train_key, None)
        if value is not None and args.command != "synth":
            cfg.train[train_key] = value
    if getattr(args, "encoder", None) is not None:
        cfg.arch["encoder_kind"] = args.encoder
    if getattr(args, "no_reweight", False):
        cfg.train["reweight"] = False
    if getattr(args, "no_scale", False):
        cfg.scale = False
    # re-run validation after overrides
    return RunConfig.from_dict(asdict(cfg))


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _merge_flags(_load_config_file(args.config), args)
    if args.command == "train":
        return cmd_train(cfg)
    if args.command == "score":
        return cmd_score(cfg)
    if args.command == "eval":
        return cmd_eval(cfg)
    if args.command == "meta":
        if args.meta_command == "build":
            return cmd_meta_build(cfg)
        if args.meta_command == "fit":
            return cmd_meta_fit(cfg)
        return cmd_meta_select(cfg)
    if args.command == "bench":
        return cmd_bench(cfg)
    return cmd_synth(cfg, d=args.d, n_normal=args.n_normal,
                     n_anomaly=args.n_anomaly, shift=args.shift,
                     seed=args.seed)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (TrainingDivergedError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotFittedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # covers config, schema, parse, format, and shape errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
