"""Dataset ingestion and preparation.

CSV rows are parsed against a schema that declares each column as numeric
or categorical (with a fixed value vocabulary). Categorical columns
expand to one-hot blocks in vocabulary order; values outside the
vocabulary map to an all-zero block so the feature width never depends on
the file contents. Feature scaling is per-column min-max fitted on the
training split only.

The training rows of a labeled file are its normal rows. load_csv and
load_training_rows share one loader, which decodes a file in blocks of
CSV_BLOCK_ROWS rows and writes each block's kept rows into the output
matrix before it reads the next; load_training_rows keeps the normal rows
only and scales them in place. So a load holds its output matrix plus one
parsed block, whatever the file's length. Every scaling step writes into
one matrix (fit_scale and apply_scale a fresh one each, training_split and
load_training_rows the matrix they built) with the same elementwise
operations in the same order, so the bytes do not depend on the route.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .atomic import atomic_open, atomic_write_json
from .errors import CsvParseError, FormatError, NotFittedError, SchemaError, ShapeError
from .rng import make_rng

NORMAL = 0
ANOMALY = 1

CLIP_LO = -0.5
CLIP_HI = 1.5

# Rows per numpy reader call when loading a CSV file: a load holds its
# output plus one block of parsed rows, whatever the file's length. On a
# 51k-row KDD-shaped file, load_training_rows' peak RSS was 84, 85 and
# 88 MB at 1024, 2048 and 4096 rows (the matrix is 46 MB), at the same
# CPU time within noise from 512 to 16384 rows.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SchemaColumn:
    name: str
    kind: str  # "numeric" | "categorical"
    values: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind not in ("numeric", "categorical"):
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.values:
                raise SchemaError(f"column {self.name!r}: empty vocabulary")
            if len(set(self.values)) != len(self.values):
                raise SchemaError(f"column {self.name!r}: duplicate vocabulary values")
        elif self.values:
            raise SchemaError(f"numeric column {self.name!r} must not list values")

    @property
    def width(self) -> int:
        return len(self.values) if self.kind == "categorical" else 1


@dataclass(frozen=True)
class Schema:
    """Column declarations plus the labeling rule.

    normal_value names the raw label string that reads as Normal; setting
    invert_labels swaps the two classes after that match (used when the
    majority class plays the role of normal traffic and the nominal
    "normal" label is the anomaly of interest).
    """

    columns: tuple[SchemaColumn, ...]
    label_column: str | None = None
    normal_value: str | None = None
    invert_labels: bool = False

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise SchemaError("schema declares no feature columns")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if self.label_column in names:
            raise SchemaError("label column also declared as a feature column")
        if self.label_column is not None and self.normal_value is None:
            raise SchemaError("schema with a label column must give normal_value")

    @property
    def feature_width(self) -> int:
        return sum(c.width for c in self.columns)

    def label_of(self, raw: str) -> int:
        matches = raw == self.normal_value
        if self.invert_labels:
            return ANOMALY if matches else NORMAL
        return NORMAL if matches else ANOMALY


@dataclass(frozen=True)
class ColumnMeta:
    """Origin of one expanded feature column."""

    name: str
    origin: str  # "numeric" | "onehot"
    source: str
    value: str | None = None


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place; for arrays this module just built."""
    arr.flags.writeable = False
    return arr


def _read_only(given, dtype) -> np.ndarray:
    """given as a read-only dtype array. Writeable memory that the caller
    passed in is copied first; a fresh conversion or an array that is
    already read-only is not."""
    arr = np.asarray(given, dtype=dtype)
    if arr.flags.writeable and np.may_share_memory(arr, given):
        arr = arr.copy()
    return _frozen(arr)


@dataclass
class ScalingStats:
    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self):
        self.col_min = np.asarray(self.col_min, dtype=np.float64)
        self.col_max = np.asarray(self.col_max, dtype=np.float64)
        if self.col_min.shape != self.col_max.shape or self.col_min.ndim != 1:
            raise ShapeError("scaling stats must be matching 1-D arrays")

    @property
    def span(self) -> np.ndarray:
        return self.col_max - self.col_min


@dataclass
class Dataset:
    """Feature matrix with optional labels, both read-only.

    A writeable array the caller passes in is copied, so the caller cannot
    change the dataset through it. A read-only one is kept as it is: the
    module freezes the arrays it builds itself (_frozen) instead of paying
    for a copy.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    column_meta: list[ColumnMeta] | None = None
    scaling_stats: ScalingStats | None = None

    def __post_init__(self):
        f = _read_only(self.features, np.float64)
        if f.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {f.shape}")
        self.features = f
        if self.labels is not None:
            lab = _read_only(self.labels, np.int8)
            if lab.shape != (f.shape[0],):
                raise ShapeError("labels length must match the row count")
            if lab.size and not np.isin(lab, (NORMAL, ANOMALY)).all():
                raise ValueError("labels must be 0 (normal) or 1 (anomaly)")
            self.labels = lab
        if self.column_meta is not None and len(self.column_meta) != f.shape[1]:
            raise ShapeError("column_meta length must match the feature width")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def feature_names(self) -> list[str]:
        if self.column_meta is not None:
            return [m.name for m in self.column_meta]
        return [f"x{i}" for i in range(self.n_features)]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            features=_frozen(self.features[idx]),
            labels=None if self.labels is None else _frozen(self.labels[idx]),
            column_meta=self.column_meta,
            scaling_stats=self.scaling_stats,
        )

    def without_labels(self) -> "Dataset":
        """The same rows with the labels dropped."""
        return Dataset(features=self.features, labels=None,
                       column_meta=self.column_meta,
                       scaling_stats=self.scaling_stats)


def expanded_meta(schema: Schema) -> list[ColumnMeta]:
    meta: list[ColumnMeta] = []
    for col in schema.columns:
        if col.kind == "numeric":
            meta.append(ColumnMeta(col.name, "numeric", col.name))
        else:
            for v in col.values:
                meta.append(ColumnMeta(f"{col.name}={v}", "onehot", col.name, v))
    return meta


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(path, schema: Schema, require_labels: bool | None = None,
             has_header: bool = True) -> Dataset:
    """Parse a CSV file into an expanded numeric Dataset.

    require_labels: None loads labels whenever the schema declares a label
    column and the file carries it; True insists on them; False skips them
    even when present. With has_header=False the columns are taken in
    schema declaration order with the label column (if any) last.

    Accepted grammar: fields are separated by commas and rows by \\n, \\r\\n
    or \\r; blank lines are skipped and every other row carries exactly as
    many fields as the header. Double quotes work as in the csv module's
    default dialect: a field that starts with one may hold commas and line
    breaks (read as \\n) up to the closing quote, and "" inside it is a
    literal quote. Categorical and label fields are compared after
    stripping surrounding whitespace. A numeric field, stripped likewise,
    is an ASCII decimal or exponent literal as Python's float() reads it,
    but without float()'s underscores (1_000) and non-ASCII digits, and
    its value must be finite (nan, inf and 1e400 are rejected). Line
    numbers count CSV records from 1 for the header, so a quoted line
    break does not advance them. A malformed row raises CsvParseError with
    its line and, for a bad value, its column: the first such row of the
    file, or failing one the first non-finite value.

    The file is decoded CSV_BLOCK_ROWS rows at a time into a matrix sized
    from its line count, so the load holds about the matrix plus one block.
    """
    features, labels = _load_rows(path, schema, require_labels, has_header,
                                  normal_only=False)
    return Dataset(features=_frozen(features), labels=labels,
                   column_meta=expanded_meta(schema))


def load_training_rows(path, schema: Schema, scale: bool) -> Dataset:
    """training_split(load_csv(path, schema), scale), byte for byte, built
    as one matrix: every row is parsed and checked (and every label
    decoded) as load_csv does, block by block, but only the normal rows
    are written into the feature matrix, which is then scaled in place."""
    features, _ = _load_rows(path, schema, require_labels=None, has_header=True,
                             normal_only=True)
    return _training_rows(features, expanded_meta(schema), scale)


def _load_rows(path, schema: Schema, require_labels: bool | None,
               has_header: bool, normal_only: bool
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """load_csv's (features, frozen labels). The file is decoded in blocks
    of CSV_BLOCK_ROWS rows, and each block's rows are written into the
    matrix before the next block is read. With normal_only the matrix
    holds only the rows labeled normal and no labels come back; a file
    without labels keeps every row."""
    path = Path(path)
    if require_labels and schema.label_column is None:
        raise SchemaError("labels requested but the schema has no label column")
    want_labels = require_labels is not False and schema.label_column is not None

    with open(path, encoding="utf-8") as fh:
        if has_header:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise CsvParseError("file is empty", 1) from None
            header = [h.strip() for h in header]
        else:
            header = [c.name for c in schema.columns]
            if schema.label_column is not None:
                header.append(schema.label_column)

        pos = {name: i for i, name in enumerate(header)}
        if len(pos) != len(header):
            raise SchemaError("duplicate column names in CSV header")
        for col in schema.columns:
            if col.name not in pos:
                raise SchemaError(f"CSV is missing declared column {col.name!r}")
        declared = {c.name for c in schema.columns} | {schema.label_column}
        unknown = [h for h in header if h not in declared]
        if unknown:
            raise SchemaError(f"CSV columns not covered by the schema: {unknown}")

        if want_labels and schema.label_column not in pos:
            if require_labels:
                raise SchemaError(
                    f"label column {schema.label_column!r} missing from CSV")
            want_labels = False

        numeric = [pos[c.name] for c in schema.columns if c.kind == "numeric"]
        text = [pos[c.name] for c in schema.columns if c.kind != "numeric"]
        if want_labels:
            text.append(pos[schema.label_column])
        slots = [{v: i for i, v in enumerate(c.values)} for c in schema.columns]

        # The rows are not known before they are read. The pages of a large
        # np.zeros matrix cost no memory until written, and resize gives
        # back the unused tail.
        bound = _row_bound(path)
        features = np.zeros((bound, schema.feature_width))
        labels = np.zeros(bound, np.int8) if want_labels and not normal_only else None
        n = 0
        for columns in read_csv_blocks(fh, header, numeric, text, has_header):
            rows = slice(None)
            k = len(columns[pos[schema.columns[0].name]])
            if n + k > bound:
                raise ValueError(f"{path} changed while it was read")
            if want_labels:
                block_labels = _encode(columns[pos[schema.label_column]],
                                       schema.label_of, np.int8)
                if normal_only:
                    rows = np.flatnonzero(block_labels == NORMAL)
                    k = rows.size
                else:
                    labels[n:n + k] = block_labels
            offset = 0
            for col, col_slots in zip(schema.columns, slots):
                values = columns[pos[col.name]][rows]
                if col.kind == "numeric":
                    features[n:n + k, offset] = values
                else:
                    slot = _encode(values, lambda v: col_slots.get(v, -1))
                    hit = np.flatnonzero(slot >= 0)
                    features[n + hit, offset + slot[hit]] = 1.0
                offset += col.width
            n += k

    features.resize((n, schema.feature_width), refcheck=False)
    if labels is not None:
        labels.resize(n, refcheck=False)
        labels = _frozen(labels)
    return features, labels


def _row_bound(path: Path) -> int:
    """An upper bound on the CSV records of a file: one plus its line ends
    (\\n, a lone \\r, and \\r\\n once), counted in 64 KB binary chunks."""
    bound, after_cr = 1, False
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            bound += chunk.count(b"\n")
            if b"\r" in chunk:  # a fast scan; counting is not
                bound += chunk.count(b"\r") - chunk.count(b"\r\n")
            bound -= after_cr and chunk.startswith(b"\n")
            after_cr = chunk.endswith(b"\r")
    return bound


def _encode(values: np.ndarray, code, dtype=np.intp) -> np.ndarray:
    """code(v.strip()) for each str in `values` as a dtype array,
    evaluated once per distinct value."""
    raw = values.tolist()
    codes = {v: code(v.strip()) for v in dict.fromkeys(raw)}
    return np.fromiter(map(codes.__getitem__, raw), dtype=dtype, count=len(raw))


def read_csv_blocks(fh, header: list[str], numeric: list[int], text: list[int],
                    has_header: bool) -> Iterator[list[np.ndarray | None]]:
    """Read the rows left in `fh` with numpy's C reader, in load_csv's
    grammar, CSV_BLOCK_ROWS rows at a time (a last block may be empty).
    Each block is one entry per header column: a float64 array for the
    positions in `numeric`, the raw field text (str objects) for those in
    `text`, and None for a column nobody reads. An unread column is still
    parsed, so every row must carry all the header's fields, but only as a
    one-character unicode field (U1: no Python str per row, and non-ASCII
    text is accepted as in any other column).

    `fh` is a text handle opened with universal newlines (the default),
    since numpy's reader takes \\n and \\r\\n but not a lone \\r as a line
    end, and positioned after the header row when has_header. On a
    malformed row or a non-finite number the whole file is re-scanned to
    raise the CsvParseError that names its first fault, so neither the
    block it sits in nor the blocks already read change the outcome.
    """
    def kind(i):
        return np.float64 if i in numeric else object if i in text else "U1"

    dtype = np.dtype([(f"c{i}", kind(i)) for i in range(len(header))])
    while True:
        try:
            with warnings.catch_warnings():
                # a header-only file or a last empty block is 0 rows, and a
                # blank line is skipped: neither is worth a warning
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                warnings.filterwarnings(
                    "ignore", r"Input line \d+ contained no data", UserWarning)
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1, max_rows=CSV_BLOCK_ROWS)
        except ValueError as exc:
            _raise_fault(fh.name, header, numeric, has_header, exc)
        columns = [table[f"c{i}"] if i in numeric or i in text else None
                   for i in range(len(header))]
        if not all(np.isfinite(columns[i]).all() for i in numeric):
            _raise_fault(fh.name, header, numeric, has_header, None)
        yield columns
        if len(table) < CSV_BLOCK_ROWS:
            return


def _number(text: str) -> float | None:
    """float(text) restricted to the grammar numpy's reader accepts."""
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _raise_fault(path, header: list[str], numeric: list[int],
                 has_header: bool, cause: ValueError | None) -> NoReturn:
    """Raise the CsvParseError for the first fault of a rejected file.

    Rows are checked in file order, a row's numeric fields in the order of
    `numeric`: the first row with the wrong field count or a non-number
    wins. Failing both, the first non-finite number is reported.
    """
    n_cols = len(header)
    nonfinite = None
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        line = 0
        if has_header:
            next(reader)
            line = 1
        for row in reader:
            line += 1
            if not row:
                continue
            if len(row) != n_cols:
                raise CsvParseError(
                    f"expected {n_cols} fields, found {len(row)}", line)
            for src in numeric:
                text = row[src].strip()
                value = _number(text)
                if value is None:
                    raise CsvParseError(
                        f"non-numeric value {text!r} in column "
                        f"{header[src]!r}", line)
                if nonfinite is None and not math.isfinite(value):
                    nonfinite = CsvParseError(
                        f"non-finite value {value!r} in column "
                        f"{header[src]!r}", line)
    if nonfinite is not None:
        raise nonfinite
    # not reached while both readers agree on the grammar and the file
    # stays unchanged between the two reads
    raise ValueError(f"cannot parse {path}: {cause}")


def write_csv(path, data: Dataset) -> None:
    """Write the expanded numeric matrix (plus labels when present) with a
    header row; floats use shortest-roundtrip repr so a reload is exact.
    The bytes are those csv.writer writes for the same rows."""
    header = data.feature_names()
    rows = [",".join(map(repr, r)) for r in data.features.tolist()]
    if data.labels is not None:
        header = header + ["label"]
        rows = [f"{r},{y}" for r, y in zip(rows, data.labels.tolist())]
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(r + "\r\n" for r in rows))


def numeric_schema_for(data: Dataset) -> Schema:
    """Schema that reads back a write_csv file of this dataset."""
    cols = tuple(SchemaColumn(name, "numeric") for name in data.feature_names())
    if data.labels is not None:
        return Schema(cols, label_column="label", normal_value="0")
    return Schema(cols)


# ---------------------------------------------------------------------------
# scaling


def fit_scale(data: Dataset) -> Dataset:
    """Min-max scale each column to [0, 1] and attach the fitted stats.

    Constant columns map to all zeros. Only ever call this on the training
    split; use apply_scale for everything else. The result is one fresh
    matrix; `data` is left as it is.
    """
    if data.n_rows == 0:
        raise ValueError("cannot fit scaling on an empty dataset")
    return _scale_with(data, _fit_stats(data.features), clip=False)


def apply_scale(data: Dataset, stats: ScalingStats | None) -> Dataset:
    """Scale with stats fitted elsewhere; out-of-range results are clipped
    to [-0.5, 1.5]. The result is one fresh matrix."""
    if stats is None:
        raise NotFittedError("scaling stats missing; call fit_scale first")
    if stats.col_min.shape[0] != data.n_features:
        raise ShapeError(
            f"scaling stats cover {stats.col_min.shape[0]} columns, "
            f"data has {data.n_features}"
        )
    return _scale_with(data, stats, clip=True)


def _fit_stats(x: np.ndarray) -> ScalingStats:
    return ScalingStats(x.min(axis=0), x.max(axis=0))


def _scale_with(data: Dataset, stats: ScalingStats, clip: bool) -> Dataset:
    scaled = _scale(data.features, stats, clip)
    return Dataset(features=_frozen(scaled), labels=data.labels,
                   column_meta=data.column_meta, scaling_stats=stats)


def _scale(x: np.ndarray, stats: ScalingStats, clip: bool,
           out: np.ndarray | None = None) -> np.ndarray:
    """(x - col_min) / span, written into `out` (which may be x itself) or
    into one fresh matrix: constant columns become 0, and with clip the
    result is clipped to [CLIP_LO, CLIP_HI]."""
    span = stats.span
    out = np.subtract(x, stats.col_min, out=out)
    out /= np.where(span > 0, span, 1.0)
    out[:, span == 0] = 0.0
    if clip:
        np.clip(out, CLIP_LO, CLIP_HI, out=out)
    return out


def scaling_to_dict(stats: ScalingStats) -> dict:
    return {"col_min": stats.col_min.tolist(), "col_max": stats.col_max.tolist()}


def scaling_from_dict(d: dict) -> ScalingStats:
    """Stats from a scaling.json document; FormatError names what is wrong."""
    if not isinstance(d, dict):
        raise FormatError("scaling file must hold a JSON object")
    try:
        cols = [np.asarray(d[key]) for key in ("col_min", "col_max")]
        if not all(c.dtype.kind in "iuf" and np.isfinite(c).all() for c in cols):
            raise ValueError("col_min and col_max must hold finite numbers")
        stats = ScalingStats(*cols)
        below = np.flatnonzero(stats.col_max < stats.col_min)
        if below.size:
            raise ValueError(f"col_max is below col_min in column {below[0]}")
        return stats
    except KeyError as exc:
        raise FormatError(f"scaling file lacks field {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"bad scaling file: {exc}") from exc


# ---------------------------------------------------------------------------
# splits and synthetic data


def training_split(data: Dataset, scale: bool) -> Dataset:
    """The rows a model trains on and meta-features describe: the normal
    rows with the labels dropped (all rows of an unlabeled dataset),
    min-max scaled as fit_scale scales them when `scale` is set. An empty
    result raises ValueError. For a CSV file, load_training_rows gives the
    same rows without building the whole file's matrix."""
    if data.labels is None:
        if data.n_rows == 0:
            raise ValueError("no normal rows to train on")
        return fit_scale(data) if scale else data
    return _training_rows(data.features[data.labels == NORMAL],
                          data.column_meta, scale, data.scaling_stats)


def _training_rows(features: np.ndarray, column_meta: list[ColumnMeta] | None,
                   scale: bool, stats: ScalingStats | None = None) -> Dataset:
    """An unlabeled Dataset over `features`, a fresh matrix that nothing
    else holds, min-max scaled in place when `scale` is set (otherwise it
    keeps `stats`)."""
    if features.shape[0] == 0:
        raise ValueError("no normal rows to train on")
    if scale:
        stats = _fit_stats(features)
        _scale(features, stats, clip=False, out=features)
    return Dataset(features=_frozen(features), column_meta=column_meta,
                   scaling_stats=stats)


def split_normal_train(data: Dataset, train_fraction: float, seed: int = 0
                       ) -> tuple[Dataset, Dataset]:
    """Seeded split into a normal-only training set and a labeled test set.

    A train_fraction share of rows is drawn at random; anomalies landing
    in that share are pushed back to the test side, so the two outputs are
    disjoint and together cover the input.
    """
    if data.labels is None:
        raise ValueError("split requires labels")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    n = data.n_rows
    perm = make_rng(seed).permutation(n)
    n_train = int(round(train_fraction * n))
    chosen = perm[:n_train]
    rest = perm[n_train:]

    train = training_split(data.take(np.sort(chosen)), scale=False)
    pushed_back = chosen[data.labels[chosen] == ANOMALY]
    test_idx = np.sort(np.concatenate([rest, pushed_back]))
    return train, data.take(test_idx)


def generate_synthetic(d: int, n_normal: int, n_anomaly: int,
                       anomaly_shift: float, seed: int = 0) -> Dataset:
    """Gaussian toy data: normals at the origin, anomalies at shift*(1,..,1),
    both with identity covariance. Rows are normals first, then anomalies."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_normal < 0 or n_anomaly < 0:
        raise ValueError("counts must be >= 0")
    rng = make_rng(seed)
    normal = rng.standard_normal((n_normal, d))
    anomaly = rng.standard_normal((n_anomaly, d)) + anomaly_shift
    features = np.vstack([normal, anomaly])
    labels = np.concatenate([
        np.full(n_normal, NORMAL, dtype=np.int8),
        np.full(n_anomaly, ANOMALY, dtype=np.int8),
    ])
    meta = [ColumnMeta(f"x{i}", "numeric", f"x{i}") for i in range(d)]
    return Dataset(features=_frozen(features), labels=_frozen(labels), column_meta=meta)


# ---------------------------------------------------------------------------
# schema files


def schema_to_dict(schema: Schema) -> dict:
    cols = []
    for c in schema.columns:
        entry: dict = {"name": c.name, "type": c.kind}
        if c.kind == "categorical":
            entry["values"] = list(c.values)
        cols.append(entry)
    doc: dict = {"columns": cols}
    if schema.label_column is not None:
        doc["label_column"] = schema.label_column
        doc["normal_value"] = schema.normal_value
        doc["invert_labels"] = schema.invert_labels
    return doc


def schema_from_dict(doc: dict) -> Schema:
    if not isinstance(doc, dict) or "columns" not in doc:
        raise SchemaError("schema file must be an object with a 'columns' list")
    cols = []
    for entry in doc["columns"]:
        try:
            cols.append(SchemaColumn(
                name=str(entry["name"]),
                kind=str(entry.get("type", "numeric")),
                values=tuple(entry.get("values", ())),
            ))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad column entry {entry!r}: {exc}") from exc
    return Schema(
        columns=tuple(cols),
        label_column=doc.get("label_column"),
        normal_value=(None if doc.get("normal_value") is None
                      else str(doc["normal_value"])),
        invert_labels=bool(doc.get("invert_labels", False)),
    )


def load_schema(path) -> Schema:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    return schema_from_dict(doc)


def save_schema(schema: Schema, path) -> None:
    atomic_write_json(path, schema_to_dict(schema))
