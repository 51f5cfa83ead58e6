"""Dataset ingestion and preparation.

CSV rows are parsed against a schema that declares each column as numeric
or categorical (with a fixed value vocabulary). Categorical columns
expand to one-hot blocks in vocabulary order; values outside the
vocabulary map to an all-zero block so the feature width never depends on
the file contents. Feature scaling is per-column min-max fitted on the
training split only.

Schema and scaling files are checked as config files are (errors.py):
their keys are the fields of Schema, SchemaColumn and ScalingStats.

This is the one module that writes or reads CSV: the data files and, through
write_table, write_number_table and read_number_table, every other table.

Every load keeps its rows in one layout, a Rows store of two parts: a
float64 matrix of numeric columns and a uint8 matrix of one-hot columns.
On the KDD99 schema (34 numeric columns, 87 one-hot) a row costs 359
bytes against 968 for the expanded float64 row. Rows.take expands rows on
demand, so training, scoring and the meta-features, which read a batch, a
block or a column at a time, never hold the expanded matrix; only
Dataset.features (for write_csv) builds it. A one-hot entry is exactly 0.0
or 1.0 before and after min-max scaling (its column's min is 0 and its
span 1, or its span is 0 and it is zeroed), so one byte carries it. Every
scaling step applies the elementwise operations that scaling the expanded
matrix would, in the same order, so the bytes do not depend on the route.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .atomic import atomic_open, atomic_write_json
from .errors import (CsvParseError, FormatError, NotFittedError, SchemaError, ShapeError,
                     check_fields, expect_numbers, expect_type, from_fields, read_json)
from .rng import make_rng

NORMAL = 0
ANOMALY = 1

# Rows per block, one size for loading and scoring so their blocks line
# up. A CSV load holds its output plus one parsed block: on a 51k-row
# KDD-shaped file, load_training_rows' peak RSS was 84, 85 and 88 MB at
# 1024, 2048 and 4096 rows (the matrix is 46 MB), at the same CPU time
# within noise from 512 to 16384 rows. Scoring (model.row_chunks) the
# 100k-row perfbench score-100k input (I=5, d=10, one OpenBLAS thread)
# took a median 0.90 s in 1024-row blocks, 0.91-0.93 s in 256- or 512-row
# blocks, 0.96-1.00 s in 2048- or 4096-row blocks, 1.07 s in 128-row
# blocks and 1.75 s as one matrix.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SchemaColumn:
    name: str
    type: str = "numeric"  # "numeric" | "categorical"
    values: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self, f"column {self.name!r}", SchemaError)
        object.__setattr__(self, "values", tuple(self.values))
        if self.type not in ("numeric", "categorical"):
            raise SchemaError(f"column {self.name!r}: unknown type {self.type!r}")
        if self.type == "categorical":
            if not self.values:
                raise SchemaError(f"column {self.name!r}: empty vocabulary")
            if len(set(self.values)) != len(self.values):
                raise SchemaError(f"column {self.name!r}: duplicate vocabulary values")
        elif self.values:
            raise SchemaError(f"numeric column {self.name!r} must not list values")

    @property
    def width(self) -> int:
        return len(self.values) if self.type == "categorical" else 1


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
        check_fields(self, "schema", SchemaError)
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

    def label_of(self, raw: str) -> int:
        matches = raw == self.normal_value
        if self.invert_labels:
            return ANOMALY if matches else NORMAL
        return NORMAL if matches else ANOMALY


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place; for arrays this module just built."""
    arr.flags.writeable = False
    return arr


def _frozen_rows(rows: Rows) -> Rows:
    """rows with both parts made read-only in place; for rows this module
    just built."""
    _frozen(rows.numeric)
    _frozen(rows.onehot)
    return rows


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
        if self.col_min.shape != self.col_max.shape or self.col_min.ndim != 1:
            raise ShapeError("scaling stats must be matching 1-D arrays")

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalingStats) and scaling_to_dict(self) == scaling_to_dict(other)

    @property
    def span(self) -> np.ndarray:
        return self.col_max - self.col_min


@dataclass(frozen=True)
class Rows:
    """Expanded feature rows held in two parts.

    numeric is an (n, k) float64 matrix and onehot an (n, m) uint8 matrix
    of 0/1 entries; num_cols and hot_cols give their columns' positions in
    the expanded row of width k + m, each position once. take expands
    rows to float64 on demand, a slice copy per run of consecutive columns
    (runs); with no one-hot part it is numeric[idx]. The arrays are kept
    as given: Dataset makes them read-only.
    """

    numeric: np.ndarray
    onehot: np.ndarray
    num_cols: np.ndarray
    hot_cols: np.ndarray
    runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num, hot = self.numeric, self.onehot
        if num.dtype != np.float64 or hot.dtype != np.uint8:
            raise TypeError("rows need a float64 numeric part and a uint8 one-hot part")
        if num.ndim != 2 or hot.ndim != 2 or num.shape[0] != hot.shape[0]:
            raise ShapeError(f"row parts of shapes {num.shape} and {hot.shape} "
                             "are not two matrices of one row count")
        if (self.num_cols.shape, self.hot_cols.shape) != ((num.shape[1],), (hot.shape[1],)):
            raise ShapeError("column positions must match the parts' widths")
        cols = np.concatenate([self.num_cols, self.hot_cols])
        if not np.array_equal(np.sort(cols), np.arange(cols.size)):
            raise ShapeError("column positions must cover the expanded row once each")
        object.__setattr__(self, "runs", (_runs(self.num_cols), _runs(self.hot_cols)))

    @classmethod
    def dense(cls, x: np.ndarray) -> Rows:
        """An (n, d) float64 matrix as rows with no one-hot part."""
        return cls(x, _frozen(np.zeros((x.shape[0], 0), np.uint8)),
                   np.arange(x.shape[1]), np.arange(0))

    @property
    def n_rows(self) -> int:
        return self.numeric.shape[0]

    @property
    def width(self) -> int:
        return self.numeric.shape[1] + self.onehot.shape[1]

    def take(self, idx) -> np.ndarray:
        """The expanded float64 rows at idx, an int array of any shape or a
        slice: shape idx.shape + (width,). Without a one-hot part this is
        numeric[idx] itself, a view for a slice."""
        num = self.numeric[idx]
        if not self.hot_cols.size:
            return num
        out = np.empty(num.shape[:-1] + (self.width,))
        for part, runs in zip((num, self.onehot[idx]), self.runs):
            for src, dst, n in runs:
                out[..., dst:dst + n] = part[..., src:src + n]
        return out

    def column(self, j: int) -> np.ndarray:
        """Expanded column j as float64 values."""
        at = np.flatnonzero(self.num_cols == j)
        if at.size:
            return self.numeric[:, at[0]]
        return self.onehot[:, np.flatnonzero(self.hot_cols == j)[0]].astype(np.float64)

    def subset(self, idx) -> Rows:
        """The rows at idx, in both parts."""
        return replace(self, numeric=self.numeric[idx], onehot=self.onehot[idx])


def _runs(cols: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """(first column in the part, its position in the row, length) of each
    run of consecutive positions in cols."""
    starts = np.flatnonzero(np.diff(cols, prepend=-2) != 1)
    lengths = np.diff(starts, append=cols.size)
    return tuple(zip(starts.tolist(), cols[starts].tolist(), lengths.tolist()))


@dataclass(init=False)
class Dataset:
    """Feature rows with optional labels, all read-only.

    Built from a features matrix or from Rows. A writeable array the
    caller passes in is copied, so the caller cannot change the dataset
    through it. A read-only one is kept as it is: the module freezes the
    arrays it builds itself (_frozen) instead of paying for a copy.
    """

    rows: Rows
    labels: np.ndarray | None
    column_meta: list[str] | None
    scaling_stats: ScalingStats | None

    def __init__(self, features: np.ndarray | None = None, labels=None,
                 column_meta: list[str] | None = None,
                 scaling_stats: ScalingStats | None = None, *, rows: Rows | None = None):
        if (features is None) == (rows is None):
            raise TypeError("a dataset takes either features or rows")
        if rows is None:
            f = _read_only(features, np.float64)
            if f.ndim != 2:
                raise ShapeError(f"features must be 2-D, got shape {f.shape}")
            rows = Rows.dense(f)
        else:
            rows = replace(rows, numeric=_read_only(rows.numeric, np.float64),
                           onehot=_read_only(rows.onehot, np.uint8))
        if labels is not None:
            labels = _read_only(labels, np.int8)
            if labels.shape != (rows.n_rows,):
                raise ShapeError("labels length must match the row count")
            if labels.size and not np.isin(labels, (NORMAL, ANOMALY)).all():
                raise ValueError("labels must be 0 (normal) or 1 (anomaly)")
        if column_meta is not None and len(column_meta) != rows.width:
            raise ShapeError("column_meta length must match the feature width")
        self.rows, self.labels = rows, labels
        self.column_meta, self.scaling_stats = column_meta, scaling_stats

    @property
    def features(self) -> np.ndarray:
        """Every row expanded (Rows.take)."""
        return self.rows.take(slice(None))

    @property
    def n_rows(self) -> int:
        return self.rows.n_rows

    @property
    def n_features(self) -> int:
        return self.rows.width

    def feature_names(self) -> list[str]:
        if self.column_meta is not None:
            return list(self.column_meta)
        return [f"x{i}" for i in range(self.n_features)]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            rows=_frozen_rows(self.rows.subset(idx)),
            labels=None if self.labels is None else _frozen(self.labels[idx]),
            column_meta=self.column_meta,
            scaling_stats=self.scaling_stats,
        )


def expanded_meta(schema: Schema) -> list[str]:
    """The expanded feature names: a numeric column's, and name=value per value."""
    names: list[str] = []
    for col in schema.columns:
        names += [col.name] if col.type == "numeric" else [f"{col.name}={v}" for v in col.values]
    return names


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(path, schema: Schema, require_labels: bool | None = None,
             has_header: bool = True) -> Dataset:
    """Parse a CSV file into a Dataset.

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

    The file is decoded BLOCK_ROWS rows at a time into a store sized
    from its line count (Rows: numeric columns as float64, one-hot blocks
    as uint8), so the load holds about the store plus one block.
    """
    rows, labels = _load_rows(path, schema, require_labels, has_header,
                              normal_only=False)
    return Dataset(rows=_frozen_rows(rows), labels=labels,
                   column_meta=expanded_meta(schema))


def load_training_rows(path, schema: Schema, scale: bool) -> Dataset:
    """training_split(load_csv(path, schema), scale), value for value, in
    one store: every row is parsed and checked (and every label decoded)
    as load_csv does, but only the normal rows are kept, scaled in place."""
    rows, _ = _load_rows(path, schema, require_labels=None, has_header=True,
                         normal_only=True)
    return _training_rows(rows, expanded_meta(schema), scale)


def _load_rows(path, schema: Schema, require_labels: bool | None,
               has_header: bool, normal_only: bool
               ) -> tuple[Rows, np.ndarray | None]:
    """load_csv's rows and frozen labels. The file is decoded in blocks of
    BLOCK_ROWS rows, and each block's rows are written into the store
    before the next block is read. With normal_only the store holds only
    the rows labeled normal and no labels come back; a file without labels
    keeps every row."""
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

        numeric = [pos[c.name] for c in schema.columns if c.type == "numeric"]
        text = [pos[c.name] for c in schema.columns if c.type != "numeric"]
        if want_labels:
            text.append(pos[schema.label_column])
        slots = [{v: i for i, v in enumerate(c.values)} for c in schema.columns]

        # each schema column's first column in its part
        num_cols, hot_cols, offsets = [], [], []
        for col in schema.columns:
            cols = num_cols if col.type == "numeric" else hot_cols
            offsets.append(len(cols))
            start = len(num_cols) + len(hot_cols)
            cols.extend(range(start, start + col.width))

        # The rows are not known before they are read. The pages of a large
        # np.zeros matrix cost no memory until written, and resize gives
        # back the unused tail.
        bound = _row_bound(path)
        num_part = np.zeros((bound, len(num_cols)))
        hot_part = np.zeros((bound, len(hot_cols)), np.uint8)
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
            for col, col_slots, offset in zip(schema.columns, slots, offsets):
                values = columns[pos[col.name]][rows]
                if col.type == "numeric":
                    num_part[n:n + k, offset] = values
                else:
                    slot = _encode(values, lambda v: col_slots.get(v, -1))
                    hit = np.flatnonzero(slot >= 0)
                    hot_part[n + hit, offset + slot[hit]] = 1
            n += k

    num_part.resize((n, len(num_cols)), refcheck=False)
    hot_part.resize((n, len(hot_cols)), refcheck=False)
    if labels is not None:
        labels.resize(n, refcheck=False)
        labels = _frozen(labels)
    return Rows(num_part, hot_part, np.array(num_cols, np.intp),
                np.array(hot_cols, np.intp)), labels


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
    grammar, BLOCK_ROWS rows at a time (a last block may be empty).
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
                                   comments=None, ndmin=1, max_rows=BLOCK_ROWS)
        except ValueError as exc:
            _raise_fault(fh.name, header, numeric, has_header, exc)
        columns = [table[f"c{i}"] if i in numeric or i in text else None
                   for i in range(len(header))]
        if not all(np.isfinite(columns[i]).all() for i in numeric):
            _raise_fault(fh.name, header, numeric, has_header, None)
        yield columns
        if len(table) < BLOCK_ROWS:
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
    header row, in blocks (write_number_table), so a reload is exact."""
    header, columns = data.feature_names(), list(data.features.T)
    if data.labels is not None:
        header, columns = header + ["label"], columns + [data.labels]
    write_number_table(path, header, columns)


def write_table(path, header: list[str], rows) -> None:
    """Write a header and rows as csv.writer does: floats as repr, None as
    an empty field, a field quoted where it holds a comma or a quote."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_number_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """write_table's bytes for equal-length int or float columns, BLOCK_ROWS
    rows at a time and at less CPU: a field is the repr of its value."""
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(columns[0]), BLOCK_ROWS):
            fields = [map(repr, col[lo:lo + BLOCK_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def read_number_table(path, names: list[str], what: str) -> list[np.ndarray]:
    """The columns `names` of a CSV table as float64 arrays, found by name;
    the header must name each once, else ValueError names it. Rows follow
    load_csv's grammar (else CsvParseError names the line): each carries the
    header's field count, and the named columns hold finite numbers."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        for name in names:
            if header.count(name) != 1:
                raise ValueError(f"{what} header must name column {name!r} once")
        at = [header.index(name) for name in names]
        blocks = list(read_csv_blocks(fh, header, at, [], has_header=True))
    return [np.concatenate([b[i] for b in blocks]) for i in at]


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
    split; use apply_scale for everything else. The result holds fresh
    arrays; `data` is left as it is.
    """
    if data.n_rows == 0:
        raise ValueError("cannot fit scaling on an empty dataset")
    return _scaled(data, _fit_stats(data.rows))


def apply_scale(data: Dataset, stats: ScalingStats | None) -> Dataset:
    """Scale with stats fitted elsewhere (_scale_rows) into fresh arrays.
    Stats that map a one-hot column off {0, 1} raise ValueError."""
    if stats is None:
        raise NotFittedError("scaling stats missing; call fit_scale first")
    if stats.col_min.shape[0] != data.n_features:
        raise ShapeError(f"scaling stats cover {stats.col_min.shape[0]} columns, "
                         f"data has {data.n_features}")
    _check_one_hot(stats, data.rows, data.feature_names())
    return _scaled(data, stats)


def _check_one_hot(stats: ScalingStats, rows: Rows, names: list[str]) -> None:
    """Refuse stats that map a one-hot column of rows off {0, 1}, naming the
    first by names; stats fitted on rows of the same schema never do."""
    lo, hi, hot = stats.col_min, stats.col_max, rows.hot_cols
    off = hot[(stats.span[hot] != 0) & ((lo[hot] != 0) | (hi[hot] != 1))]
    if off.size:
        j = off[0]
        raise ValueError(f"scaling stats map one-hot column {names[j]!r} off {{0, 1}}: "
                         f"min {lo[j].item()!r}, max {hi[j].item()!r}")


def _fit_stats(rows: Rows) -> ScalingStats:
    """Per-column min and max; a one-hot column's are its uint8 min and
    max as floats, the 0.0 or 1.0 its dense column would give."""
    stats = ScalingStats(np.empty(rows.width), np.empty(rows.width))
    for bound, reduce in ((stats.col_min, np.min), (stats.col_max, np.max)):
        bound[rows.num_cols] = reduce(rows.numeric, axis=0)
        bound[rows.hot_cols] = reduce(rows.onehot, axis=0)
    return stats


def _scaled(data: Dataset, stats: ScalingStats) -> Dataset:
    """data with its rows scaled into fresh parts (_scale_rows)."""
    return Dataset(rows=_frozen_rows(_scale_rows(data.rows, stats)),
                   labels=data.labels, column_meta=data.column_meta,
                   scaling_stats=stats)


def _scale_rows(rows: Rows, stats: ScalingStats, in_place: bool = False) -> Rows:
    """rows min-max scaled into fresh parts or, in_place, into their own:
    a numeric column to (x - col_min) / span, 0 where the span is 0,
    clipped to [-0.5, 1.5]; a one-hot column zeroed where its span
    is 0 and kept elsewhere, where its min is 0 and its span 1. The clip
    leaves rows scaled by their own fitted stats as they are: x - col_min
    rounds to at most the span, so each value lies in [0, 1]."""
    lo, span = stats.col_min[rows.num_cols], stats.span[rows.num_cols]
    numeric = np.subtract(rows.numeric, lo, out=rows.numeric if in_place else None)
    numeric /= np.where(span > 0, span, 1.0)
    numeric[:, span == 0] = 0.0
    np.clip(numeric, -0.5, 1.5, out=numeric)
    onehot = rows.onehot if in_place else rows.onehot.copy()
    onehot[:, stats.span[rows.hot_cols] == 0] = 0
    return replace(rows, numeric=numeric, onehot=onehot)


def scaling_to_dict(stats: ScalingStats) -> dict:
    return {"col_min": stats.col_min.tolist(), "col_max": stats.col_max.tolist()}


def scaling_from_dict(d: dict, what: str = "scaling file") -> ScalingStats:
    """Stats from a scaling.json document or model file; FormatError names `what`."""
    expect_type(what, d, dict, error=FormatError)
    try:
        stats = from_fields(ScalingStats, {
            key: expect_numbers(f"{what} {key}", value, FormatError)
            for key, value in d.items()}, what, FormatError)
    except ShapeError as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    below = np.flatnonzero(stats.col_max < stats.col_min)
    if below.size:
        raise FormatError(f"bad {what}: col_max is below col_min in column {below[0]}")
    return stats


# ---------------------------------------------------------------------------
# splits and synthetic data


def training_split(data: Dataset, scale: bool) -> Dataset:
    """The rows a model trains on and meta-features describe: the normal
    rows with the labels dropped (all rows of an unlabeled dataset),
    min-max scaled as fit_scale scales them when `scale` is set. An empty
    result raises ValueError. For a CSV file, load_training_rows gives the
    same rows without holding the whole file's."""
    normal = np.ones(data.n_rows, bool) if data.labels is None else data.labels == NORMAL
    return _training_rows(data.rows.subset(normal), data.column_meta, scale,
                          data.scaling_stats)


def _training_rows(rows: Rows, column_meta: list[str] | None,
                   scale: bool, stats: ScalingStats | None = None) -> Dataset:
    """An unlabeled Dataset over `rows`, fresh arrays that nothing else
    holds, min-max scaled in place when `scale` is set (otherwise it keeps
    `stats`)."""
    if rows.n_rows == 0:
        raise ValueError("no normal rows to train on")
    if scale:
        stats = _fit_stats(rows)
        rows = _scale_rows(rows, stats, in_place=True)
    return Dataset(rows=_frozen_rows(rows), column_meta=column_meta,
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
    return Dataset(features=_frozen(features), labels=_frozen(labels),
                   column_meta=[f"x{i}" for i in range(d)])


# ---------------------------------------------------------------------------
# schema files


def schema_to_dict(schema: Schema) -> dict:
    """The schema file's document: a numeric column lists no values, and a
    schema without a label column writes no labeling keys."""
    doc = asdict(schema)
    for col in doc["columns"]:
        if col["type"] == "numeric":
            del col["values"]
    if schema.label_column is None:
        del doc["label_column"], doc["normal_value"], doc["invert_labels"]
    return doc


def schema_from_dict(doc: dict) -> Schema:
    """The Schema a schema file's document declares; SchemaError names what
    is wrong."""
    expect_type("schema", doc, dict, error=SchemaError)
    columns = expect_type("schema columns", doc.get("columns"), list, error=SchemaError)
    cols = [from_fields(SchemaColumn, entry, f"schema column {i}", SchemaError)
            for i, entry in enumerate(columns)]
    return from_fields(Schema, {**doc, "columns": cols}, "schema", SchemaError)


def load_schema(path) -> Schema:
    return schema_from_dict(read_json(path, "schema file", SchemaError))


def save_schema(schema: Schema, path) -> None:
    atomic_write_json(path, schema_to_dict(schema))


def load_scaling(path) -> ScalingStats:
    """The stats of a scaling file; FormatError names what is wrong."""
    return scaling_from_dict(read_json(path, "scaling file", FormatError))


def save_scaling(stats: ScalingStats, path) -> None:
    """The scaling file load_scaling reads: one line of JSON."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(scaling_to_dict(stats)) + "\n")
