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
import os
import sys
from contextlib import closing
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .atomic import atomic_write_json
from .data import (
    Schema,
    expanded_meta,
    generate_synthetic,
    load_csv,
    load_scaling,
    load_schema,
    load_training_rows,
    numeric_schema_for,
    read_number_table,
    save_scaling,
    save_schema,
    training_split,
    write_csv,
    write_number_table,
    write_table,
)
from .ensemble import (
    EnsembleModel,
    EpochTrace,
    TrainConfig,
    check_input_names,
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
    check_fields,
    from_fields,
    read_json,
)
from .metalearn import (
    MetaTask,
    build_meta_dataset,
    load_meta_csv,
    run_cells,
    save_meta_csv,
    select_hyperparams,
    svr_fit,
)
from .metrics import evaluate, save_report_csv, save_report_json
from .model import ArchSpec, make_arch, normalize_scores
from .modelfile import load_model, save_model
from .rng import derived_seed
from .svr import SvrModel, SvrSettings

DEFAULT_CANDIDATES = (1, 3, 5, 7, 10, 15)
OUTPUT_ROOT_ENV = "EDENET_OUTPUT_ROOT"
METRIC_NAMES = ("precision", "recall", "f1", "accuracy", "auroc")


@dataclass
class RunConfig:
    """Everything a run can be told, with a default for every field.

    data/test_data/schema/model/scores/scaling/meta_csv are file paths;
    arch and train hold field overrides for ArchSpec and TrainConfig;
    svr, tasks, methods and synthetic hold the raw sections that
    SvrSettings, TaskEntry, BenchMethod and SyntheticTask or SynthSpec
    check where they are used: the meta-learner's settings, meta build's
    tasks, bench's methods, and bench's generated task or synth's dataset.
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
        check_fields(self)
        if not 0 < self.q < 1:
            raise ConfigError("q must lie in (0, 1)")
        if self.n_members < 1:
            raise ConfigError("n_members must be >= 1")
        if not self.candidates:
            raise ConfigError("candidates must be a nonempty list")
        for cand in self.candidates:
            if cand < 1:
                raise ConfigError(f"each candidate must be >= 1, got {cand}")
        for i, seed in enumerate(self.seeds):
            if seed < 0:
                raise ConfigError(f"seeds[{i}] must be >= 0, got {seed}")
        for name in ("candidates", "seeds"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ConfigError(f"{name} lists {v} more than once")


def _load_config_file(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    doc = read_json(_require(path, "config file"), "config file")
    return from_fields(RunConfig, doc, "config")


def _require(value: str | None, what: str) -> Path:
    if value is None:
        raise ConfigError(f"missing required {what}")
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _out_dir(cfg: RunConfig, command: str) -> Path:
    """The output directory; it is made at the first write into it
    (atomic_open), so a command that fails before writing leaves none."""
    if cfg.out is not None:
        return Path(cfg.out)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs")) / command


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
    tc = from_fields(TrainConfig, cfg.train, "train")
    schema = load_schema(_require(cfg.schema, "schema path"))
    # the arch is checked at the schema's expanded width before a row is read
    spec = make_arch(len(expanded_meta(schema)), cfg.arch)
    train_ds = load_training_rows(_require(cfg.data, "training data path"), schema,
                                  cfg.scale)
    ens, trace = train_ensemble(init_ensemble(spec, cfg.n_members, seed=tc.seed),
                                train_ds, tc)
    # written once training succeeded, so a diverged run leaves no --out
    save_model(ens, out / "model.json")
    write_trace_csv(out / "trace.csv", trace)
    if cfg.scale:
        save_scaling(train_ds.scaling_stats, out / "scaling.json")
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
    write_number_table(path, ["row_index", "raw_score", "normalized_score"],
                       [np.arange(raw.size), raw, norm])


def cmd_score(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "score")
    ens = load_model(_require(cfg.model, "model path"))
    if not isinstance(ens, EnsembleModel):
        raise ConfigError("model file does not hold an ensemble")
    schema = load_schema(_require(cfg.schema, "schema path"))
    stats = None if cfg.scaling is None else load_scaling(
        _require(cfg.scaling, "scaling stats path"))
    if stats is not None and ens.columns is None and ens.scaling is None:
        if stats.col_min.size != ens.spec.input_dim:  # checked here to name the file
            raise ConfigError(f"scaling file {cfg.scaling} holds {stats.col_min.size} columns, "
                              f"model expects {ens.spec.input_dim}")
        ens = replace(ens, scaling=stats)  # a file that records no input: complete its record
    elif stats is not None and stats != ens.scaling:
        raise ConfigError(f"scaling file {cfg.scaling} does not hold the model's own scaling"
                          + ("" if ens.scaling else ", which is none (trained unscaled)"))
    check_input_names(ens, expanded_meta(schema), "input")  # the names load_csv will give

    ds = load_csv(_require(cfg.data, "data path"), schema, require_labels=False)
    path = out / "scores.csv"
    raw = ensemble_score(ens, ds)  # checks ds against the model's record and scales it
    _write_scores(path, raw, normalize_scores(raw) if raw.size else raw)
    print(f"scored {ds.n_rows} rows; wrote {path}")
    _echo_config(out, "score", cfg)
    return 0


def read_scores_csv(path) -> np.ndarray:
    """The raw scores of a score CSV, read by column name."""
    return read_number_table(path, ["raw_score"], "score CSV")[0]


# ---------------------------------------------------------------------------
# eval


def cmd_eval(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "eval")
    schema = load_schema(_require(cfg.schema, "schema path"))
    raw = read_scores_csv(_require(cfg.scores, "score CSV path"))
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


@dataclass(frozen=True)
class TaskEntry:
    """One meta build task: CSV paths of its training and labeled test rows."""

    train: str
    test: str
    schema: str | None = None
    name: str = ""

    def __post_init__(self):
        check_fields(self, "task")


def _load_task(cfg: RunConfig, schema: Schema, train: str | None, test: str | None,
               name: str = "", where: str = "") -> MetaTask:
    """A task from CSV paths: the training file's normal rows and the test
    file's labeled rows. Error messages name the task by `where`."""
    train = load_training_rows(_require(train, f"{where}train path"), schema, cfg.scale)
    return MetaTask(train, load_csv(_require(test, f"{where}test path"), schema,
                                    require_labels=True), name)


def cmd_meta_build(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "meta")
    entries = [from_fields(TaskEntry, e, f"task {i}") for i, e in enumerate(cfg.tasks)]
    if not entries:
        raise ConfigError("meta build needs a nonempty tasks list")
    tc = from_fields(TrainConfig, cfg.train, "train")
    schemas = [load_schema(_require(e.schema or cfg.schema, f"task {i} schema path"))
               for i, e in enumerate(entries)]
    for schema in schemas:  # every task's arch is checked before a row is read
        make_arch(len(expanded_meta(schema)), cfg.arch)
    tasks = [_load_task(cfg, schema, e.train, e.test, e.name, f"task {i} ")
             for i, (e, schema) in enumerate(zip(entries, schemas))]
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
    settings = from_fields(SvrSettings, cfg.svr, "svr")
    records = load_meta_csv(_require(cfg.meta_csv, "meta CSV path"))
    model = svr_fit(records, **asdict(settings))
    path = out / "meta_model.json"
    save_model(model, path)
    _echo_config(out, "meta-fit", cfg)
    print(f"fitted meta-learner on {len(records)} records "
          f"(gamma={model.gamma:.6g}, C={model.C:g}, epsilon={model.epsilon:g})")
    print(f"wrote {path}")
    return 0


def cmd_meta_select(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "meta")
    model = load_model(_require(cfg.model, "meta model path"))
    if not isinstance(model, SvrModel):
        raise ConfigError("meta model file does not hold a meta-learner")
    schema = load_schema(_require(cfg.schema, "schema path"))
    # the rows meta build described for its tasks: normal, scaled like training
    ds = load_training_rows(_require(cfg.data, "task data path"), schema, cfg.scale)

    sel = select_hyperparams(model, ds, cfg.candidates)
    feats = sel.features
    print(f"meta-features: n_instances={feats.n_instances} "
          f"n_sparse={feats.n_sparse} n_pos_skew={feats.n_pos_skew} "
          f"n_neg_skew={feats.n_neg_skew}")
    for cand, pred in sel.predictions:
        marker = "  <- chosen" if cand == sel.chosen else ""
        print(f"I={cand}: predicted score {pred:.6f}{marker}")
    atomic_write_json(out / "selection.json", {
        "chosen": sel.chosen,
        "predictions": {str(c): p for c, p in sel.predictions},
    })
    _echo_config(out, "meta-select", cfg)
    return 0


# ---------------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class SyntheticTask:
    """A generated bench task: generate_synthetic's width, row counts and shift."""

    d: int = 10
    n_train: int = 2000
    n_test_normal: int = 400
    n_test_anomaly: int = 100
    shift: float = 4.0

    def __post_init__(self):
        check_fields(self, "synthetic")


@dataclass(frozen=True)
class BenchMethod:
    """One bench method: a name and overrides of the run's n_members, arch, train."""

    name: str
    n_members: int | None = None
    arch: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self, f"method {self.name!r}")
        if not self.name:
            raise ConfigError("every bench method needs a name")
        if self.n_members is not None and self.n_members < 1:
            raise ConfigError(f"method {self.name!r}: n_members must be >= 1")


def _bench_task(cfg: RunConfig, spec: SyntheticTask, seed: int) -> MetaTask:
    """The generated train/test pair for one replication seed."""
    train = training_split(
        generate_synthetic(spec.d, spec.n_train, 0, spec.shift,
                           seed=derived_seed(seed, 0)), cfg.scale)
    test = generate_synthetic(spec.d, spec.n_test_normal, spec.n_test_anomaly,
                              spec.shift, seed=derived_seed(seed, 1))
    return MetaTask(train=train, test=test)


def _bench_settings(cfg: RunConfig, method: BenchMethod, width: int
                    ) -> tuple[ArchSpec, int, TrainConfig]:
    """A method's arch at the task width, ensemble size and training config,
    merged over the run's. Each cell trains under its seed from seeds, so a
    train seed, which no cell would use, is refused."""
    train = {**cfg.train, **method.train}
    if "seed" in train:
        raise ConfigError("bench trains each cell under its seed from seeds; "
                          "set seeds, not train seed")
    return (make_arch(width, {**cfg.arch, **method.arch}),
            cfg.n_members if method.n_members is None else method.n_members,
            from_fields(TrainConfig, train, "train"))


def _write_bench_cell(cfg: RunConfig, raw: np.ndarray, trace: list[EpochTrace],
                      labels: np.ndarray, cell_dir: Path):
    report = evaluate(raw, labels, q=cfg.q)

    _write_scores(cell_dir / "scores.csv", raw, normalize_scores(raw))
    save_report_json(report, cell_dir / "report.json")
    write_trace_csv(cell_dir / "trace.csv", trace)
    return report


def _bench_summary(reports: dict[str, list]) -> list[tuple]:
    """(method, metric, mean, std) rows, methods in the given order and
    metrics in METRIC_NAMES order. A metric undefined on any seed has no
    mean and no std; one seed gives no std."""
    rows = []
    for method, method_reports in reports.items():
        for name in METRIC_NAMES:
            values = [getattr(r, name) for r in method_reports]
            if any(v is None for v in values):
                rows.append((method, name, None, None))
                continue
            arr = np.array(values, dtype=np.float64)
            rows.append((method, name, float(arr.mean()),
                         float(arr.std(ddof=1)) if arr.size > 1 else None))
    return rows


def cmd_bench(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "bench")
    methods = [from_fields(BenchMethod, m, f"method {i}") for i, m in enumerate(cfg.methods)]
    if not methods:
        raise ConfigError("bench needs a nonempty methods list")
    if not cfg.seeds:
        raise ConfigError("bench needs at least one seed")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("bench method names must be unique")

    spec = None if cfg.synthetic is None else from_fields(
        SyntheticTask, cfg.synthetic, "synthetic")
    schema = load_schema(_require(cfg.schema, "schema path")) if spec is None else None
    # every method's settings are built before a row is read, so a bad
    # value fails with no row read and no cell trained or written
    width = spec.d if schema is None else len(expanded_meta(schema))
    settings = [_bench_settings(cfg, m, width) for m in methods]
    file_task = None if schema is None else _load_task(cfg, schema, cfg.data, cfg.test_data)
    # one task per seed, shared by every method
    tasks = [file_task or _bench_task(cfg, spec, seed) for seed in cfg.seeds]
    cells = [(task, arch, n_members, replace(tc, seed=seed))
             for seed, task in zip(cfg.seeds, tasks) for arch, n_members, tc in settings]
    reports: dict[str, list] = {name: [] for name in names}
    with closing(run_cells(cells)) as results:
        for seed, task in zip(cfg.seeds, tasks):
            for name in names:
                try:
                    raw, trace = next(results)
                    reports[name].append(_write_bench_cell(
                        cfg, raw, trace, task.test.labels, out / name / f"seed{seed}"))
                except Exception:
                    print(f"bench aborted: method {name!r} failed on seed {seed}",
                          file=sys.stderr)
                    raise

    summary = _bench_summary(reports)
    _write_bench_table(out / "bench_table.csv", summary)
    _write_plot_data(out / "plot_data.csv", summary)
    _echo_config(out, "bench", cfg)
    _print_bench_table(summary, len(cfg.seeds))
    print(f"wrote {out / 'bench_table.csv'} and {out / 'plot_data.csv'}")
    return 0


def _write_bench_table(path, summary: list[tuple]) -> None:
    write_table(path, ["method", *(f"{name}_{stat}" for name in METRIC_NAMES
                                   for stat in ("mean", "std"))],
                ([method, *(v for row in rows for v in row[2:])]
                 for method, rows in groupby(summary, key=itemgetter(0))))


def _write_plot_data(path, summary: list[tuple]) -> None:
    write_table(path, ["method", "metric", "mean", "stddev"], summary)


def _print_bench_table(summary: list[tuple], n_seeds: int) -> None:
    print(f"benchmark over {n_seeds} seed(s):")
    for method, rows in groupby(summary, key=itemgetter(0)):
        print(f"  {method}: " + " ".join(
            f"{name}=undefined" if mean is None
            else f"{name}={mean:.4f}" + ("" if std is None else f"+-{std:.4f}")
            for _, name, mean, std in rows))


# ---------------------------------------------------------------------------
# synth


@dataclass(frozen=True)
class SynthSpec:
    """synth's dataset: generate_synthetic's width, row counts, shift and seed."""

    d: int = 10
    n_normal: int = 1000
    n_anomaly: int = 100
    shift: float = 4.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "synthetic")
        if self.seed < 0:
            raise ConfigError(f"synthetic seed must be >= 0, got {self.seed}")


def cmd_synth(cfg: RunConfig) -> int:
    """Generate the dataset of cfg.synthetic, the config file's section
    with synth's flags over it; the echo gives every SynthSpec value."""
    spec = from_fields(SynthSpec, cfg.synthetic or {}, "synthetic")
    out = _out_dir(cfg, "synth")
    ds = generate_synthetic(spec.d, spec.n_normal, spec.n_anomaly, spec.shift,
                            seed=spec.seed)
    write_csv(out / "data.csv", ds)
    save_schema(numeric_schema_for(ds), out / "schema.json")
    _echo_config(out, "synth", replace(cfg, synthetic=asdict(spec)))
    print(f"generated {spec.n_normal} normal + {spec.n_anomaly} anomalous rows "
          f"in {spec.d} dims (shift {spec.shift}, seed {spec.seed})")
    print(f"wrote {out / 'data.csv'} and {out / 'schema.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """The edenet parser. A flag's dest is the config key it sets: a
    RunConfig field ("n_members") or a key of a dict field ("train.epochs").
    Each command's `run` default is its cmd_* function, looked up when the
    parser is built."""
    parser = argparse.ArgumentParser(
        prog="edenet",
        description="Ensembles of encoder-decoder-encoder anomaly detectors "
                    "with meta-learned ensemble sizing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, run, help: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")
        return p

    p = command(sub, "train", cmd_train, "train an ensemble on normal data")
    p.add_argument("--data", help="training CSV")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--members", dest="n_members", type=int, help="ensemble size I")
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--seed", dest="train.seed", type=int)
    p.add_argument("--encoder", dest="arch.encoder_kind", choices=["feedforward", "lstm"])
    p.add_argument("--no-reweight", dest="train.reweight", action="store_false",
                   default=None, help="keep sampling weights uniform")
    p.add_argument("--no-scale", dest="scale", action="store_false", default=None,
                   help="skip min-max scaling")

    p = command(sub, "score", cmd_score, "write per-sample anomaly scores")
    p.add_argument("--model", help="model file from train")
    p.add_argument("--data", help="CSV to score")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--scaling", help="scaling.json, for a model file that records none")

    p = command(sub, "eval", cmd_eval, "metrics from a score CSV and labels")
    p.add_argument("--scores", help="score CSV from score")
    p.add_argument("--data", help="labeled CSV aligned with the scores")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--q", type=float, help="top fraction flagged anomalous")

    meta = sub.add_parser("meta", help="meta-learning over ensemble size")
    meta_sub = meta.add_subparsers(dest="meta_command", required=True)

    p = command(meta_sub, "build", cmd_meta_build, "train per-(task, I) and record AUROC")
    p.add_argument("--candidates", type=_int_list, help="comma-separated ensemble sizes")

    p = command(meta_sub, "fit", cmd_meta_fit, "fit the meta-learner on a meta CSV")
    p.add_argument("--meta", dest="meta_csv", help="meta dataset CSV")

    p = command(meta_sub, "select", cmd_meta_select, "pick I for a new dataset")
    p.add_argument("--model", help="meta model file from fit")
    p.add_argument("--data", help="new task CSV")
    p.add_argument("--schema", help="schema JSON")
    p.add_argument("--candidates", type=_int_list, help="comma-separated ensemble sizes")

    p = command(sub, "bench", cmd_bench, "replicated comparison table")
    p.add_argument("--seeds", type=_int_list, help="comma-separated seed list")

    p = command(sub, "synth", cmd_synth, "generate a labeled synthetic dataset")
    p.add_argument("--d", dest="synthetic.d", type=int)
    p.add_argument("--n-normal", dest="synthetic.n_normal", type=int)
    p.add_argument("--n-anomaly", dest="synthetic.n_anomaly", type=int)
    p.add_argument("--shift", dest="synthetic.shift", type=float)
    p.add_argument("--seed", dest="synthetic.seed", type=int)

    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """cfg with every given flag's value at the config key its dest names,
    checked again as a whole."""
    doc = asdict(cfg)
    for dest, value in vars(args).items():
        head, _, key = dest.partition(".")
        if value is None or head not in doc:
            continue  # not given, or not a config key (command, config, run)
        doc[head] = {**(doc[head] or {}), key: value} if key else value
    return from_fields(RunConfig, doc, "config")


def main(argv: list[str] | None = None) -> int:
    # built per call, so `run` is whatever each cmd_* name holds now
    args = build_parser().parse_args(argv)
    try:
        return args.run(_merge_flags(_load_config_file(args.config), args))
    except (TrainingDivergedError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotFittedError, ValueError) as exc:
        # ValueError covers config, schema, parse, format, and shape errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
