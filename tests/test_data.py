import ast
import csv
import io
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from edenet.data import (
    ANOMALY,
    NORMAL,
    Dataset,
    Schema,
    SchemaColumn,
    ScalingStats,
    apply_scale,
    expanded_meta,
    fit_scale,
    generate_synthetic,
    load_csv,
    load_schema,
    load_training_rows,
    numeric_schema_for,
    read_csv_blocks,
    save_schema,
    scaling_from_dict,
    scaling_to_dict,
    schema_from_dict,
    schema_to_dict,
    split_normal_train,
    training_split,
    write_csv,
)
import edenet.data as data_mod
from edenet.ensemble import EpochTrace, write_trace_csv
from edenet.errors import (
    CsvParseError,
    FormatError,
    NotFittedError,
    SchemaError,
    ShapeError,
)
from edenet.metalearn import MetaFeatures, MetaRecord, save_meta_csv
from edenet.metrics import evaluate, save_report_csv
from kdd_shaped import KDD_SCHEMA, write_kdd_rows

NUM2 = Schema((SchemaColumn("a", "numeric"), SchemaColumn("b", "numeric")))
MIXED = Schema((
    SchemaColumn("size", "numeric"),
    SchemaColumn("color", "categorical", ("red", "green", "blue")),
))
LABELED = Schema(
    (SchemaColumn("v", "numeric"),),
    label_column="status", normal_value="ok",
)


def expanded(ds):
    """Every row of a dataset as one float64 matrix."""
    return ds.rows.take(slice(None))


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# schema objects


def test_schema_column_validation():
    with pytest.raises(SchemaError):
        SchemaColumn("x", "text")
    with pytest.raises(SchemaError):
        SchemaColumn("x", "categorical", ())
    with pytest.raises(SchemaError):
        SchemaColumn("x", "categorical", ("a", "a"))
    with pytest.raises(SchemaError):
        SchemaColumn("x", "numeric", ("a",))


def test_schema_validation():
    with pytest.raises(SchemaError):
        Schema(())
    with pytest.raises(SchemaError):
        Schema((SchemaColumn("a", "numeric"), SchemaColumn("a", "numeric")))
    with pytest.raises(SchemaError):
        Schema((SchemaColumn("a", "numeric"),), label_column="a",
               normal_value="0")
    with pytest.raises(SchemaError):
        Schema((SchemaColumn("a", "numeric"),), label_column="y")


def test_feature_width_counts_onehot_slots():
    assert len(expanded_meta(MIXED)) == 4
    assert len(expanded_meta(NUM2)) == 2


def test_label_of_plain_and_inverted():
    assert LABELED.label_of("ok") == NORMAL
    assert LABELED.label_of("bad") == ANOMALY
    flipped = Schema(LABELED.columns, label_column="status",
                     normal_value="ok", invert_labels=True)
    assert flipped.label_of("ok") == ANOMALY
    assert flipped.label_of("bad") == NORMAL


# ---------------------------------------------------------------------------
# csv loading


def test_load_numeric_columns(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3.5,-4\n0,0\n")
    ds = load_csv(p, NUM2)
    assert np.array_equal(ds.features, [[1, 2], [3.5, -4], [0, 0]])
    assert ds.labels is None
    assert ds.feature_names() == ["a", "b"]


def test_onehot_expansion_in_vocabulary_order(tmp_path):
    p = write(tmp_path, "size,color\n2,green\n1,red\n")
    ds = load_csv(p, MIXED)
    assert ds.feature_names() == ["size", "color=red", "color=green", "color=blue"]
    assert np.array_equal(ds.features, [[2, 0, 1, 0], [1, 1, 0, 0]])


def test_unknown_categorical_value_becomes_zero_block(tmp_path):
    p = write(tmp_path, "size,color\n1,purple\n")
    ds = load_csv(p, MIXED)
    assert np.array_equal(ds.features, [[1, 0, 0, 0]])


def test_column_order_in_file_does_not_matter(tmp_path):
    p = write(tmp_path, "color,size\nblue,7\n")
    ds = load_csv(p, MIXED)
    assert np.array_equal(ds.features, [[7, 0, 0, 1]])


def test_labels_parsed_from_label_column(tmp_path):
    p = write(tmp_path, "v,status\n1,ok\n2,fail\n3,ok\n")
    ds = load_csv(p, LABELED)
    assert np.array_equal(ds.labels, [NORMAL, ANOMALY, NORMAL])
    assert ds.n_features == 1  # label never enters the feature matrix


def test_require_labels_false_drops_them(tmp_path):
    p = write(tmp_path, "v,status\n1,ok\n")
    assert load_csv(p, LABELED, require_labels=False).labels is None


MIXED_LABELED = Schema(MIXED.columns, label_column="status", normal_value="ok")


def test_unread_label_column_leaves_features_unchanged(tmp_path):
    p = write(tmp_path, 'size,status,color\n1.5,ok,red\n2,"x,\ny",blue\n'
                        '-3e2,ünknown,green\n4,日本,teal\n5,,red\n')
    with_labels = load_csv(p, MIXED_LABELED)
    without = load_csv(p, MIXED_LABELED, require_labels=False)
    assert without.labels is None
    assert np.array_equal(without.features, with_labels.features)
    assert np.array_equal(with_labels.labels, [NORMAL, ANOMALY, ANOMALY, ANOMALY, ANOMALY])


@pytest.mark.parametrize("row, found", [("1,ok,red,4", 4), ("1,ok", 2)])
def test_unread_label_column_still_counts_fields(tmp_path, row, found):
    p = write(tmp_path, f"size,status,color\n1,ok,red\n{row}\n2,ok,blue\n")
    with pytest.raises(CsvParseError, match=f"expected 3 fields, found {found}") as exc:
        load_csv(p, MIXED_LABELED, require_labels=False)
    assert exc.value.line == 3


def test_unread_columns_come_back_as_none(tmp_path):
    p = write(tmp_path, "i,s,t\n0,0.5,é\n1,0.25,b\n")
    with open(p, encoding="utf-8") as fh:
        next(fh)
        columns = next(read_csv_blocks(fh, ["i", "s", "t"], [1], [2], has_header=True))
    assert columns[0] is None
    assert columns[1].tolist() == [0.5, 0.25]
    assert columns[2].tolist() == ["é", "b"]


def test_require_labels_errors(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(SchemaError):
        load_csv(p, NUM2, require_labels=True)  # schema has no label column
    p2 = write(tmp_path, "v\n1\n", name="nolabel.csv")
    with pytest.raises(SchemaError):
        load_csv(p2, LABELED, require_labels=True)


def test_headerless_mode_takes_schema_order_label_last(tmp_path):
    p = write(tmp_path, "1,ok\n2,fail\n")
    ds = load_csv(p, LABELED, has_header=False)
    assert np.array_equal(ds.features, [[1], [2]])
    assert np.array_equal(ds.labels, [NORMAL, ANOMALY])


def test_missing_declared_column_rejected(tmp_path):
    p = write(tmp_path, "a\n1\n")
    with pytest.raises(SchemaError, match="missing"):
        load_csv(p, NUM2)


def test_unknown_csv_column_rejected(tmp_path):
    p = write(tmp_path, "a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError, match="not covered"):
        load_csv(p, NUM2)


def test_ragged_row_reports_line_number(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(CsvParseError, match="expected 2 fields") as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 3


def test_non_numeric_value_reports_line_and_column(tmp_path):
    p = write(tmp_path, "a,b\n1,oops\n")
    with pytest.raises(CsvParseError, match="'b'") as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 2


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_value_reports_line_and_column(tmp_path, text):
    schema = Schema((
        SchemaColumn("color", "categorical", ("red", "blue")),
        SchemaColumn("size", "numeric"),
    ))
    p = write(tmp_path, f"color,size\nred,1\n\nblue,{text}\nred,2\n")
    with pytest.raises(CsvParseError, match="non-finite value .* 'size'") as exc:
        load_csv(p, schema)
    assert exc.value.line == 4


def test_empty_file_rejected(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(CsvParseError):
        load_csv(p, NUM2)


def test_blank_lines_skipped(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n\n3,4\n")
    assert load_csv(p, NUM2).n_rows == 2


def test_quoted_categorical_value_may_hold_a_comma(tmp_path):
    schema = Schema((
        SchemaColumn("size", "numeric"),
        SchemaColumn("city", "categorical", ("Paris, TX", "Paris")),
    ))
    p = write(tmp_path, 'size,city\n1,"Paris, TX"\n2, Paris \n')
    assert np.array_equal(load_csv(p, schema).features, [[1, 1, 0], [2, 0, 1]])


def test_crlf_line_endings(tmp_path):
    p = tmp_path / "crlf.csv"
    p.write_bytes(b"v,status\r\n1.5,ok\r\n\r\n2,fail\r\n")
    ds = load_csv(p, LABELED)
    assert np.array_equal(ds.features, [[1.5], [2]])
    assert np.array_equal(ds.labels, [NORMAL, ANOMALY])


def test_header_only_file_is_zero_rows_without_warning(tmp_path):
    p = write(tmp_path, "size,color\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_csv(p, MIXED)
    assert ds.features.shape == (0, 4)


@pytest.mark.parametrize("row, found", [("1,2,3", 3), ("4", 1)])
def test_long_and_short_rows_report_line(tmp_path, row, found):
    p = write(tmp_path, f"a,b\n1,2\n5,6\n{row}\n7,8\n")
    with pytest.raises(CsvParseError, match=f"expected 2 fields, found {found}") as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 4


def test_bad_value_after_blank_lines_reports_its_line(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n\n\n3,4\n\n5,x\n")
    with pytest.raises(CsvParseError, match="non-numeric value 'x' in column 'b'") as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 7


def test_non_numeric_value_in_a_later_column(tmp_path):
    schema = Schema(tuple(SchemaColumn(f"x{i}", "numeric") for i in range(5)))
    p = write(tmp_path, "x0,x1,x2,x3,x4\n1,2,3,4,5\n1,2,3,4,five\n")
    with pytest.raises(CsvParseError, match="'five' in column 'x4'") as exc:
        load_csv(p, schema)
    assert exc.value.line == 3


def test_parse_error_beats_an_earlier_non_finite_value(tmp_path):
    p = write(tmp_path, "a,b\n1,inf\n2,3\nx,4\n")
    with pytest.raises(CsvParseError, match="non-numeric value 'x'") as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 4


@pytest.mark.parametrize("text", ["1_000", "\u0661", "1\u0662", "\uff15"])
def test_underscores_and_non_ascii_digits_are_rejected(tmp_path, text):
    # float() accepts all of these; the CSV grammar does not
    float(text)
    p = write(tmp_path, f"a,b\n1,2\n3,{text}\n", name="narrow.csv")
    with pytest.raises(CsvParseError, match=f"non-numeric value {text!r} in column 'b'") as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 3


def _literals():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        finite.map(repr),
        finite.map(lambda v: "%.17g" % v),
        finite.map(lambda v: "%e" % v),
        st.integers(-10**300, 10**300).map(str),
    )


@given(st.lists(st.tuples(_literals(), st.sampled_from(["", " ", "  ", "\t"]),
                          st.sampled_from(["", " ", "\t "])),
                min_size=1, max_size=8))
def test_numeric_fields_parse_exactly_like_float(tmp_path_factory, cells):
    texts = [lead + lit + trail for lit, lead, trail in cells]
    p = tmp_path_factory.mktemp("prop") / "vals.csv"
    p.write_text("v\n" + "".join(f"{t}\n" for t in texts))
    got = load_csv(p, Schema((SchemaColumn("v", "numeric"),))).features[:, 0]
    want = np.array([float(t) for t in texts])
    assert got.tobytes() == want.tobytes()


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def test_write_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((25, 3)) * 10.0 ** rng.integers(-8, 8, (25, 3))
    x[0] = [0.0, -0.0, 1e300]
    meta = ['odd "name", quoted', "b", "c"]
    for labels in (None, rng.integers(0, 2, 25)):
        ds = Dataset(features=x, labels=labels, column_meta=meta)
        p = tmp_path / "out.csv"
        write_csv(p, ds)
        rows = [[repr(float(v)) for v in row] for row in x]
        header = ds.feature_names()
        if labels is not None:
            rows = [r + [str(int(y))] for r, y in zip(rows, labels)]
            header = header + ["label"]
        assert p.read_bytes() == _csv_writer_bytes(header, rows)

    # the package's other tables, one input each
    p = tmp_path / "trace.csv"
    trace = [EpochTrace(k, *x[k].tolist()) for k in range(4)]
    write_trace_csv(p, trace)
    assert p.read_bytes() == _csv_writer_bytes(
        ["epoch", "mean_Lr", "mean_Le", "combined"],
        [[str(t.epoch), repr(t.mean_lr), repr(t.mean_le), repr(t.combined)] for t in trace])

    p = tmp_path / "meta.csv"
    records = [MetaRecord(MetaFeatures(60 + k, k, 2, 1), 2 * k + 1, 1 / (k + 3))
               for k in range(3)]
    save_meta_csv(records, p)
    assert p.read_bytes() == _csv_writer_bytes(
        ["n_instances", "n_sparse", "n_pos_skew", "n_neg_skew", "I", "auroc"],
        [[str(60 + k), str(k), "2", "1", str(2 * k + 1), repr(1 / (k + 3))]
         for k in range(3)])

    p = tmp_path / "report.csv"
    report = evaluate([0.1, 0.7, 0.3, 0.9], [0, 0, 0, 0], q=0.5)
    assert report.auroc is None
    save_report_csv(report, p)
    assert p.read_bytes() == _csv_writer_bytes(
        ["precision", "recall", "f1", "accuracy", "auroc", "threshold_used",
         "tp", "fp", "tn", "fn"],
        [["0.0", "0.0", "0.0", "0.5", "", "0.7", "0", "2", "2", "0"]])


def test_write_then_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(features=rng.standard_normal((20, 3)) * 1e3,
                 labels=rng.integers(0, 2, 20))
    p = tmp_path / "roundtrip.csv"
    write_csv(p, ds)
    back = load_csv(p, numeric_schema_for(ds))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(features=np.zeros(3))
    with pytest.raises(ShapeError):
        Dataset(features=np.zeros((2, 2)), labels=np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 7]))


def test_dataset_features_are_read_only():
    ds = Dataset(features=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0


# ---------------------------------------------------------------------------
# scaling


def test_fit_scale_maps_to_unit_interval():
    ds = fit_scale(Dataset(features=np.array([[0.0], [5.0], [10.0]])))
    assert np.allclose(ds.features, [[0.0], [0.5], [1.0]], atol=1e-12)
    assert ds.scaling_stats is not None


def test_fit_scale_constant_column_goes_to_zero():
    ds = fit_scale(Dataset(features=np.array([[3.0, 1.0], [3.0, 2.0]])))
    assert np.array_equal(ds.features[:, 0], [0.0, 0.0])


def test_fit_scale_empty_rejected():
    with pytest.raises(ValueError):
        fit_scale(Dataset(features=np.zeros((0, 2))))


def test_apply_scale_requires_fitted_stats():
    ds = Dataset(features=np.zeros((2, 2)))
    with pytest.raises(NotFittedError):
        apply_scale(ds, None)
    with pytest.raises(ShapeError):
        apply_scale(ds, ScalingStats(np.zeros(3), np.ones(3)))


def test_apply_scale_clips_out_of_range_values():
    train = fit_scale(Dataset(features=np.array([[0.0], [10.0]])))
    test = apply_scale(Dataset(features=np.array([[-100.0], [5.0], [100.0]])),
                       train.scaling_stats)
    assert np.allclose(test.features[:, 0], [-0.5, 0.5, 1.5], atol=1e-12)


@given(st.integers(2, 5).flatmap(lambda d: st.lists(
    st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
    min_size=2, max_size=20)))
def test_fit_scale_output_always_in_unit_interval(rows):
    ds = fit_scale(Dataset(features=np.array(rows)))
    assert ds.features.min() >= -1e-12
    assert ds.features.max() <= 1 + 1e-12


# ---------------------------------------------------------------------------
# splitting


def tagged_dataset(n=100, anomaly_every=5):
    # column 0 is a unique row id so split accounting is easy to audit
    ids = np.arange(n, dtype=np.float64)
    labels = np.where(ids % anomaly_every == 0, ANOMALY, NORMAL)
    return Dataset(features=np.column_stack([ids, ids * 0.5]), labels=labels)


def test_split_train_is_normal_only_and_unlabeled():
    data = tagged_dataset()
    train, test = split_normal_train(data, 0.8, seed=3)
    assert train.labels is None
    train_ids = set(train.features[:, 0].astype(int))
    anomaly_ids = {i for i in range(100) if i % 5 == 0}
    assert not train_ids & anomaly_ids


def test_split_is_disjoint_and_covers_input():
    data = tagged_dataset()
    train, test = split_normal_train(data, 0.8, seed=3)
    train_ids = set(train.features[:, 0].astype(int))
    test_ids = set(test.features[:, 0].astype(int))
    assert not train_ids & test_ids
    assert train_ids | test_ids == set(range(100))
    assert len(train_ids) + len(test_ids) == 100


def test_split_pushes_sampled_anomalies_to_test():
    data = tagged_dataset()
    train, test = split_normal_train(data, 0.8, seed=3)
    # 80 rows drawn, those that were anomalies went back to the test side
    assert train.n_rows <= 80
    assert test.n_rows == 100 - train.n_rows
    assert int(test.labels.sum()) == 20


def test_split_same_seed_reproduces():
    data = tagged_dataset()
    a_train, _ = split_normal_train(data, 0.6, seed=9)
    b_train, _ = split_normal_train(data, 0.6, seed=9)
    assert np.array_equal(a_train.features, b_train.features)


def test_split_argument_validation():
    data = tagged_dataset()
    with pytest.raises(ValueError):
        split_normal_train(data, 1.5)
    with pytest.raises(ValueError):
        split_normal_train(Dataset(features=np.zeros((4, 1))), 0.5)


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_layout_and_labels():
    ds = generate_synthetic(d=3, n_normal=10, n_anomaly=4, anomaly_shift=2.0,
                            seed=1)
    assert ds.features.shape == (14, 3)
    assert np.array_equal(ds.labels, [NORMAL] * 10 + [ANOMALY] * 4)
    assert ds.feature_names() == ["x0", "x1", "x2"]


def test_synthetic_anomalies_are_shifted():
    ds = generate_synthetic(d=4, n_normal=2000, n_anomaly=2000,
                            anomaly_shift=3.0, seed=2)
    tol = 3.0 / np.sqrt(2000)
    assert np.all(np.abs(ds.features[:2000].mean(axis=0)) < tol)
    assert np.all(np.abs(ds.features[2000:].mean(axis=0) - 3.0) < tol)


def test_synthetic_is_seed_deterministic_and_allows_zero_anomalies():
    a = generate_synthetic(2, 5, 0, 1.0, seed=4)
    b = generate_synthetic(2, 5, 0, 1.0, seed=4)
    assert np.array_equal(a.features, b.features)
    assert int(a.labels.sum()) == 0
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 5, 1.0)


# ---------------------------------------------------------------------------
# schema and scaling files


def test_schema_json_round_trip(tmp_path):
    p = tmp_path / "schema.json"
    save_schema(MIXED, p)
    assert load_schema(p) == MIXED
    save_schema(LABELED, p)
    assert load_schema(p) == LABELED


def test_schema_dict_defaults_type_to_numeric():
    s = schema_from_dict({"columns": [{"name": "a"}]})
    assert s.columns[0].type == "numeric"
    assert "label_column" not in schema_to_dict(s)


def test_schema_file_bad_json_rejected(tmp_path):
    p = write(tmp_path, "{not json", name="schema.json")
    with pytest.raises(SchemaError):
        load_schema(p)
    with pytest.raises(SchemaError):
        schema_from_dict({"kind": "nope"})


@pytest.mark.parametrize("doc, message", [
    ({"columns": [{"name": "a"}], "label_column": "y", "normal_value": "0",
      "invert_labels": "false"}, "schema invert_labels must be bool, got 'false'"),
    ({"columns": [{"name": "a"}], "label_column": "y", "normal_value": 0},
     "schema normal_value must be str, got 0"),
    ({"columns": [{"name": "p", "type": "categorical", "values": "tcp"}]},
     "column 'p' values must be tuple or list, got 'tcp'"),
    ({"columns": [{"name": 5}]}, "column 5 name must be str, got 5"),
    ({"columns": [{"name": "a", "kind": "categorical"}]},
     r"schema column 0 has unknown keys: \['kind'\]"),
    ({"columns": [{"type": "numeric"}]}, r"schema column 0 is missing keys: \['name'\]"),
    ({"columns": {"a": {"name": "a"}}}, "schema columns must be list"),
    ({"columns": ["a"]}, "schema column 0 must be dict, got 'a'"),
    ({"columns": [{"name": "a"}], "label": "y"}, r"schema has unknown keys: \['label'\]"),
])
def test_schema_values_are_checked_never_coerced(doc, message):
    with pytest.raises(SchemaError, match=message):
        schema_from_dict(doc)


def test_scaling_dict_round_trip():
    stats = ScalingStats(np.array([0.0, -1.5]), np.array([2.0, 3.25]))
    back = scaling_from_dict(scaling_to_dict(stats))
    assert np.array_equal(back.col_min, stats.col_min)
    assert np.array_equal(back.col_max, stats.col_max)


def test_dataset_copies_a_writeable_caller_array():
    given = np.zeros((3, 2))
    ds = Dataset(features=given)
    assert not np.shares_memory(ds.features, given)
    given[0, 0] = 5.0  # the caller's array stays its own
    assert given.flags.writeable and ds.features[0, 0] == 0.0


def test_dataset_keeps_a_read_only_array_without_copying():
    ds = Dataset(features=np.arange(6.0).reshape(3, 2), labels=np.array([0, 1, 0]))
    bare = Dataset(rows=ds.rows)
    assert np.shares_memory(bare.features, ds.features)
    assert bare.labels is None
    assert not bare.features.flags.writeable


def test_arrays_the_module_builds_are_frozen_without_copying(tmp_path, monkeypatch):
    original, passed = data_mod._read_only, []

    def recording(given, dtype):
        arr = original(given, dtype)
        passed.append((given, arr))
        return arr

    monkeypatch.setattr(data_mod, "_read_only", recording)
    ds = load_csv(write(tmp_path, "v,status\n1,ok\n2,fail\n3,ok\n"), LABELED)
    ds.take(np.array([2, 0]))
    generate_synthetic(2, 3, 1, 4.0)
    assert len(passed) == 8  # the two row parts and the labels of each of the three
    for given, arr in passed:
        assert arr is given and not arr.flags.writeable


@pytest.mark.parametrize("doc, message", [
    ({"col_min": [True, 0.0], "col_max": [2.5, 1.0]}, "col_min must hold numbers, got True"),
    ({"col_min": [0.0, 0.0], "col_max": ["2.5", 1.0]}, "col_max must hold numbers, got '2.5'"),
    ({"col_min": [0.0, 1e999], "col_max": [1.0, 1e999]}, "col_min holds a non-finite value"),
    ({"col_min": [0, 10**400], "col_max": [1, 1]}, "col_min holds a non-finite value"),
    ({"col_min": [0, 1], "col_max": [2]}, "matching 1-D arrays"),
    ({"col_min": [0, 1]}, r"missing keys: \['col_max'\]"),
])
def test_scaling_values_are_checked_never_coerced(doc, message):
    with pytest.raises(FormatError, match=message):
        scaling_from_dict(doc)


def test_scaling_dict_rejects_a_max_below_its_min():
    with pytest.raises(FormatError, match="column 1"):
        scaling_from_dict({"col_min": [0, 5], "col_max": [10, 1]})
    # equal bounds are a constant column, not an error
    stats = scaling_from_dict({"col_min": [0, 5], "col_max": [10, 5]})
    assert stats.span.tolist() == [10.0, 0.0]


# ---------------------------------------------------------------------------
# training rows straight from a file

TRAIN_SCHEMA = Schema(
    (SchemaColumn("a", "numeric"),
     SchemaColumn("kind", "categorical", ("x", "y,z", "w")),
     SchemaColumn("flat", "numeric"),
     SchemaColumn("b", "numeric")),
    label_column="status", normal_value="ok",
)
TRAIN_FILES = {
    "mixed": ("a,kind,flat,b,status\n1.5,x,2,-3,ok\n9,w,2,4,bad\n"
              "-2,\"y,z\",2,0.25,ok\n4,q,2,7,ok\n100,x,2,1e3,bad\n"),
    "all_normal": "a,kind,flat,b,status\n1,x,2,3,ok\n2,w,2,5,ok\n0.5,w,2,-1,ok\n",
    "unlabeled": "b,a,flat,kind\n3,1,2,x\n5,2,2,\"y,z\"\n-1,0.5,2,nope\n",
    "quoted": ('a,kind,flat,b,status\n"1",\" x \",2,"2e1",\"ok\"\n'
               '"-1","y,z",2,3,\" ok \"\n7,w,2,"8","not ok"\n'),
}


@pytest.mark.parametrize("scale", [True, False], ids=["scaled", "raw"])
@pytest.mark.parametrize("name", sorted(TRAIN_FILES))
def test_training_rows_equal_the_split_of_the_full_load(tmp_path, name, scale):
    """Every file carries a constant column (flat) and a categorical with a
    quoted vocabulary value; mixed and unlabeled hold an out-of-vocabulary
    value."""
    path = write(tmp_path, TRAIN_FILES[name])
    full = load_csv(path, TRAIN_SCHEMA)
    normal = full if full.labels is None else full.take(
        np.flatnonzero(full.labels == NORMAL))
    oracle = normal
    if scale:
        oracle = fit_scale(oracle)

    got = load_training_rows(path, TRAIN_SCHEMA, scale)
    for other in (got, training_split(full, scale)):
        assert expanded(other).tobytes() == oracle.features.tobytes()
        assert expanded(other).shape == oracle.features.shape
        assert other.labels is None
        assert not other.rows.numeric.flags.writeable
        assert not other.rows.onehot.flags.writeable
        assert other.column_meta == full.column_meta
        if scale:
            assert other.scaling_stats.col_min.tobytes() == oracle.scaling_stats.col_min.tobytes()
            assert other.scaling_stats.col_max.tobytes() == oracle.scaling_stats.col_max.tobytes()
        else:
            assert other.scaling_stats is None
    if name == "mixed":
        assert got.n_rows == 3


def test_training_rows_without_a_normal_row_fail_like_the_split(tmp_path):
    path = write(tmp_path, "v,status\n1,bad\n2,worse\n")
    with pytest.raises(ValueError) as split_error:
        training_split(load_csv(path, LABELED), scale=True)
    with pytest.raises(ValueError) as loader_error:
        load_training_rows(path, LABELED, scale=True)
    assert type(loader_error.value) is type(split_error.value)
    assert str(loader_error.value) == str(split_error.value)


@pytest.mark.parametrize("row,found", [
    ("oops,bad", "non-numeric value 'oops'"),
    ("4", "expected 2 fields, found 1"),
    ("4,bad,extra", "expected 2 fields, found 3"),
], ids=["numeric", "missing_label", "extra_field"])
def test_a_fault_on_a_dropped_row_still_names_its_line(tmp_path, row, found):
    path = write(tmp_path, f"v,status\n1,ok\n2,ok\n{row}\n3,ok\n")
    with pytest.raises(CsvParseError, match=found) as exc:
        load_training_rows(path, LABELED, scale=True)
    assert exc.value.line == 4


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_block_peak(path, schema):
    """The traced peak of parsing the first CSV block of a file."""
    def parse_one_block():
        with open(path, encoding="utf-8") as fh:
            header = next(csv.reader(fh))
            numeric = [i for i, c in enumerate(schema.columns) if c.type == "numeric"]
            text = [i for i in range(len(header)) if i not in numeric]
            return next(read_csv_blocks(fh, header, numeric, text, has_header=True))

    return traced_peak(parse_one_block)[1]


def store_row_bytes(schema):
    """8 bytes a row per numeric column and 1 per one-hot column."""
    n_numeric = sum(c.type == "numeric" for c in schema.columns)
    return 8 * n_numeric + (len(expanded_meta(schema)) - n_numeric)


def test_training_rows_hold_one_matrix_plus_one_block(tmp_path):
    """Preparing a KDD-shaped file's training rows peaks at about the
    store it allocates (8 bytes a row per numeric column, 1 per one-hot
    column) plus what parsing one block of rows takes. Parsing the whole
    file before filling the store held both whole, and the float64 matrix
    of the expanded rows alone is over the bound."""
    path = tmp_path / "kdd.csv"
    schema = write_kdd_rows(path, 20_000, seed=3, anomaly_share=0.02)
    block_peak = one_block_peak(path, schema)
    ds, peak = traced_peak(load_training_rows, path, schema, True)
    allocated = (20_000 + 2) * store_row_bytes(schema)  # a row per line end, plus one
    assert ds.n_rows > 19_000 and allocated > 10 * block_peak
    assert peak < allocated + 3 * block_peak


def test_csv_load_holds_one_hot_columns_as_bytes(tmp_path):
    """load_csv on a KDD-shaped file peaks at about the store it allocates,
    359 bytes a row plus 1 for the label, plus one parsed block. The
    float64 matrix of the expanded rows, 968 bytes a row, is over the
    bound."""
    path = tmp_path / "kdd.csv"
    schema = write_kdd_rows(path, 20_000, seed=4, anomaly_share=0.02)
    block_peak = one_block_peak(path, schema)
    ds, peak = traced_peak(load_csv, path, schema)
    assert store_row_bytes(schema) == 359
    bound = (20_000 + 2) * (359 + 1) + 3 * block_peak
    assert ds.n_rows == 20_000 and ds.labels.shape == (20_000,)
    assert 20_000 * len(expanded_meta(schema)) * 8 > bound
    assert peak < bound


def test_training_peaks_below_the_dense_matrix(tmp_path):
    """An in-process edenet train on a 20k-row KDD-shaped file, from the
    load to the saved model, never holds as much as the float64 matrix of
    its expanded training rows would take alone."""
    from edenet.cli import main

    path = tmp_path / "kdd.csv"
    schema = write_kdd_rows(path, 20_000, seed=6, anomaly_share=0.02)
    n_train = load_training_rows(path, schema, False).n_rows
    rc, peak = traced_peak(main, [
        "train", "--data", str(path), "--schema", str(KDD_SCHEMA), "--members", "1",
        "--epochs", "1", "--out", str(tmp_path / "run")])
    assert rc == 0 and n_train > 19_000
    assert peak < n_train * len(expanded_meta(schema)) * 8


def hand_expanded(path, schema):
    """A CSV file's expanded float64 matrix and labels, built a field at a
    time with the csv module and each column's vocabulary."""
    x, y = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            row = []
            for col in schema.columns:
                field = record[col.name].strip()
                if col.type == "numeric":
                    row.append(float(field))
                else:
                    row.extend(1.0 if field == v else 0.0 for v in col.values)
            x.append(row)
            y.append(schema.label_of(record[schema.label_column].strip()))
    return np.array(x), np.array(y, dtype=np.int8)


def hand_scaled(x, lo, hi, clip):
    """Min-max scaling of a whole matrix, as a per-element formula."""
    span = hi - lo
    out = (x - lo) / np.where(span > 0, span, 1.0)
    out[:, span == 0] = 0.0
    return np.clip(out, -0.5, 1.5) if clip else out


@pytest.fixture(scope="module")
def kdd_pair(tmp_path_factory):
    """A KDD-shaped file of about 2.5 blocks of training rows (with odd
    values), its schema and its full load."""
    path = tmp_path_factory.mktemp("kdd") / "kdd.csv"
    schema = write_kdd_rows(path, 2600, seed=5, anomaly_share=0.02,
                            oov_service=True, constant_land=True)
    return path, schema, load_csv(path, schema)


@pytest.mark.parametrize("scale", [True, False], ids=["scaled", "raw"])
def test_training_store_takes_the_bytes_of_the_dense_split(kdd_pair, scale):
    path, schema, full = kdd_pair
    split = training_split(full, scale)
    x, y = hand_expanded(path, schema)
    dense = x[y == NORMAL]
    if scale:
        dense = hand_scaled(dense, dense.min(axis=0), dense.max(axis=0), clip=False)
    assert split.features.tobytes() == dense.tobytes()
    store = load_training_rows(path, schema, scale)
    rows = store.rows
    assert rows.n_rows == dense.shape[0] > 2 * data_mod.BLOCK_ROWS
    assert (rows.numeric.shape[1], rows.onehot.shape[1]) == (34, 87)
    assert rows.numeric.dtype == np.float64 and rows.onehot.dtype == np.uint8
    rng = np.random.default_rng(0)
    block = data_mod.BLOCK_ROWS
    picks = [
        rng.integers(0, rows.n_rows, 50),                  # (k,), repeats likely
        np.array([3, 3, 0, rows.n_rows - 1, 3]),           # explicit repeats
        rng.integers(0, rows.n_rows, (3, 64)),             # (a, B), a round's batches
        slice(0, block),                                   # ends at the block size
        slice(block - 10, block + 10),                     # crosses it
        slice(block, 2 * block),
        slice(0, rows.n_rows),
        slice(None),
    ]
    for idx in picks:
        got = rows.take(idx)
        assert got.dtype == np.float64
        assert got.shape == dense[idx].shape
        assert got.tobytes() == dense[idx].tobytes(), idx
    for j in range(rows.width):
        assert rows.column(j).tobytes() == np.ascontiguousarray(dense[:, j]).tobytes()
    meta = {name: j for j, name in enumerate(store.column_meta)}
    land0, service = meta["land=0"], [meta[f"service={v}"] for v in schema.columns[2].values]
    assert dense[:, land0].tolist() == [0.0 if scale else 1.0] * rows.n_rows
    assert (dense[:, service].sum(axis=1) == 0).any()  # out-of-vocabulary blocks
    if scale:
        for bound in ("col_min", "col_max"):
            assert (getattr(store.scaling_stats, bound).tobytes()
                    == getattr(split.scaling_stats, bound).tobytes())
        assert store.scaling_stats.span[land0] == 0.0


def test_csv_load_and_scaling_give_the_bytes_of_a_hand_expansion(kdd_pair, tmp_path):
    """load_csv, fit_scale and apply_scale on categorical rows against a
    matrix expanded and scaled by hand. Some of the second file's numbers
    reach past the fitted range (clipped), and land "1" appears only
    there, in a one-hot column constant 0 in training (zeroed)."""
    path, schema, full = kdd_pair
    x, y = hand_expanded(path, schema)
    assert full.features.tobytes() == x.tobytes()
    assert full.labels.tobytes() == y.tobytes()

    train = fit_scale(training_split(full, scale=False))
    normal = x[y == NORMAL]
    lo, hi = normal.min(axis=0), normal.max(axis=0)
    assert train.scaling_stats.col_min.tobytes() == lo.tobytes()
    assert train.scaling_stats.col_max.tobytes() == hi.tobytes()
    assert train.features.tobytes() == hand_scaled(normal, lo, hi, clip=False).tobytes()

    other = tmp_path / "other.csv"
    write_kdd_rows(other, 1500, seed=9, anomaly_share=0.02)
    x2, y2 = hand_expanded(other, schema)
    test = apply_scale(load_csv(other, schema), train.scaling_stats)
    want = hand_scaled(x2, lo, hi, clip=True)
    assert test.features.tobytes() == want.tobytes()
    assert test.labels.tobytes() == y2.tobytes()
    land1 = full.column_meta.index("land=1")
    assert hi[land1] == 0.0 and x2[:, land1].any() and not want[:, land1].any()
    assert (want == 1.5).any()


@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
              elements=st.floats(-1e300, 1e300)))
def test_rows_scaled_by_their_own_stats_are_the_unclipped_formula(x):
    """Scaling always clips, and the clip changes no row scaled by stats
    fitted on its own column: x - min rounds to at most max - min, so each
    value lies in [0, 1] (signed zeros included), in fit_scale and in the
    training store alike. Values stay within +-1e300 so that no span
    overflows."""
    span = x.max(axis=0) - x.min(axis=0)
    want = (x - x.min(axis=0)) / np.where(span > 0, span, 1.0)
    want[:, span == 0] = 0.0
    ds = Dataset(features=x)
    for scaled in (fit_scale(ds), training_split(ds, scale=True)):
        assert scaled.features.tobytes() == want.tobytes()


def test_apply_scale_refuses_stats_that_move_a_one_hot_column(tmp_path):
    ds = load_csv(write(tmp_path, "size,color\n1,red\n2,green\n"), MIXED)
    for bounds, shown in [((0.0, 2.0), "min 0.0, max 2.0"), ((-1.0, 1.0), "min -1.0, max 1.0"),
                          ((0.5, 1.0), "min 0.5, max 1.0")]:
        stats = ScalingStats(np.array([1.0, 0, bounds[0], 0]), np.array([2.0, 1, bounds[1], 1]))
        with pytest.raises(ValueError, match=f"one-hot column 'color=green' off {{0, 1}}: {shown}"):
            apply_scale(ds, stats)
    # bounds 0 and 1 keep the column, and a zero span zeroes it
    stats = ScalingStats(np.array([1.0, 0, 0, 3]), np.array([2.0, 1, 1, 3]))
    assert apply_scale(ds, stats).features.tolist() == [[0, 1, 0, 0], [1, 0, 1, 0]]


def test_rows_take_copies_runs_of_columns_as_a_scatter_would():
    rng = np.random.default_rng(7)
    num_cols, hot_cols = np.array([0, 3, 4, 7, 9]), np.array([1, 2, 5, 6, 8])
    numeric = rng.standard_normal((6, 5))
    onehot = rng.integers(0, 2, (6, 5)).astype(np.uint8)
    rows = data_mod.Rows(numeric, onehot, num_cols, hot_cols)
    assert rows.runs == (((0, 0, 1), (1, 3, 2), (3, 7, 1), (4, 9, 1)),
                         ((0, 1, 2), (2, 5, 2), (4, 8, 1)))
    for idx in (np.array([5, 0, 0]), rng.integers(0, 6, (2, 3)), slice(1, 4), slice(None)):
        want = np.empty(numeric[idx].shape[:-1] + (10,))
        want[..., num_cols] = numeric[idx]
        want[..., hot_cols] = onehot[idx]
        assert rows.take(idx).tobytes() == want.tobytes()
    assert data_mod.Rows.dense(numeric).runs == (((0, 0, 5),), ())


def test_rows_without_a_one_hot_part_take_the_matrix_itself():
    x = np.arange(12.0).reshape(4, 3)
    rows = data_mod.Rows.dense(x)
    assert np.shares_memory(rows.take(slice(1, 3)), x)
    idx = np.array([[0, 0], [3, 1]])
    assert rows.take(idx).tobytes() == x[idx].tobytes()
    assert rows.column(2).tolist() == [2.0, 5.0, 8.0, 11.0]


@pytest.mark.parametrize("parts, message", [
    ((np.zeros((2, 1)), np.zeros((3, 1), np.uint8), [0], [1]), "row count"),
    ((np.zeros((2, 1)), np.zeros((2, 1), np.uint8), [0], [0]), "once each"),
    ((np.zeros((2, 1)), np.zeros((2, 1), np.uint8), [0], [2]), "once each"),
    ((np.zeros((2, 1)), np.zeros((2, 2), np.uint8), [0], [1]), "widths"),
])
def test_rows_check_their_parts(parts, message):
    num, hot, num_cols, hot_cols = parts
    with pytest.raises(ShapeError, match=message):
        data_mod.Rows(num, hot, np.array(num_cols), np.array(hot_cols))
    with pytest.raises(TypeError, match="uint8"):
        data_mod.Rows(np.zeros((2, 1)), np.zeros((2, 1)), np.array([0]), np.array([1]))


def test_a_dataset_with_one_hot_rows_expands_its_features_matrix(kdd_pair):
    path, schema, full = kdd_pair
    store = load_training_rows(path, schema, True)
    assert store.features.tobytes() == store.rows.take(slice(None)).tobytes()
    assert store.features.shape == (store.n_rows, 121)
    assert store.n_features == 121 and store.n_rows == store.rows.n_rows
    sub = store.take(np.array([4, 1]))
    assert sub.rows.take(slice(None)).tobytes() == store.rows.take(np.array([4, 1])).tobytes()
    assert not sub.rows.numeric.flags.writeable and not sub.rows.onehot.flags.writeable
    # load_csv keeps the one-hot blocks apart too; in-memory data has none
    assert full.rows.onehot.shape == (full.n_rows, 87) and full.rows.onehot.dtype == np.uint8
    dense = Dataset(features=np.arange(6.0).reshape(2, 3))
    assert np.shares_memory(dense.features, dense.rows.numeric)
    assert dense.rows.onehot.shape == (2, 0)
    with pytest.raises(TypeError):
        Dataset()
    with pytest.raises(TypeError):
        Dataset(features=np.zeros((1, 1)), rows=store.rows)


# ---------------------------------------------------------------------------
# files longer than one block

BLOCK_SCHEMA = Schema(
    (SchemaColumn("a", "numeric"),
     SchemaColumn("kind", "categorical", ("x", "y\nz", "w,v")),
     SchemaColumn("b", "numeric")),
    label_column="status", normal_value="ok",
)


@pytest.fixture
def block_rows(monkeypatch):
    """Sets the rows per reader call for the rest of the test."""
    return lambda n: monkeypatch.setattr(data_mod, "BLOCK_ROWS", n)


def load_whole(monkeypatch, fn, *args):
    """fn(*args) with the whole file read in one reader call."""
    with monkeypatch.context() as m:
        m.setattr(data_mod, "BLOCK_ROWS", 1000)
        return fn(*args)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quoted_line_breaks_across_block_boundaries(tmp_path, block_rows, n):
    """Rows 2 to 5 each hold a quoted line break (\\n, \\r\\n or \\r), so
    with one, two or three rows a block some of them end one block and
    others start the next."""
    p = tmp_path / "quoted.csv"
    p.write_bytes(b'a,kind,b,status\n1,x,2,ok\n2,"y\nz",3,ok\n3,"y\r\nz",4,bad\n'
                  b'4,"y\rz",5,ok\r\n5,"w,v",6,"o\nk"\n6,x,7,ok\n')
    block_rows(n)
    ds = load_csv(p, BLOCK_SCHEMA)
    assert ds.features.tolist() == [
        [1, 1, 0, 0, 2], [2, 0, 1, 0, 3], [3, 0, 1, 0, 4],
        [4, 0, 1, 0, 5], [5, 0, 0, 1, 6], [6, 1, 0, 0, 7]]
    assert ds.labels.tolist() == [NORMAL, NORMAL, ANOMALY, NORMAL, ANOMALY, NORMAL]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_blank_lines_and_mixed_line_ends_across_blocks(tmp_path, block_rows, n):
    p = tmp_path / "ends.csv"
    p.write_bytes(b"v,status\r\n\r\n1,ok\r2,bad\n\n\n3,ok\r\n\r4,ok\n"
                  b"\r\n5,bad\r\r6,ok")
    block_rows(n)
    ds = load_csv(p, LABELED)
    assert ds.features[:, 0].tolist() == [1, 2, 3, 4, 5, 6]
    assert ds.labels.tolist() == [NORMAL, ANOMALY, NORMAL, NORMAL, ANOMALY, NORMAL]
    assert load_training_rows(p, LABELED, scale=False).features[:, 0].tolist() == [1, 3, 4, 6]


def test_header_only_file_in_blocks_is_zero_rows_without_warning(tmp_path, block_rows):
    p = write(tmp_path, "a,kind,b,status\n\n")
    block_rows(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_csv(p, BLOCK_SCHEMA)
    assert ds.features.shape == (0, 5) and ds.labels.shape == (0,)
    with pytest.raises(ValueError, match="no normal rows"):
        load_training_rows(p, BLOCK_SCHEMA, scale=True)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_row_count_a_multiple_of_the_block(tmp_path, block_rows, n):
    p = write(tmp_path, "a,b\n" + "".join(f"{i},{-i}\n" for i in range(6)))
    block_rows(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_csv(p, NUM2)
    assert ds.features.tolist() == [[i, -i] for i in range(6)]


@pytest.mark.parametrize("load", [
    lambda p: load_csv(p, NUM2),
    lambda p: load_training_rows(p, NUM2, scale=True),
], ids=["load_csv", "load_training_rows"])
def test_a_bad_field_in_block_3_beats_a_non_finite_value_in_block_1(
        tmp_path, block_rows, load):
    p = write(tmp_path, "a,b\n1,nan\n2,3\n4,5\n6,7\n8,oops\n9,inf\n")
    block_rows(2)
    with pytest.raises(CsvParseError, match="non-numeric value 'oops' in column 'b'") as exc:
        load(p)
    assert exc.value.line == 6
    p = write(tmp_path, "a,b\n1,2\n2,3\n4,5\n6,7\n8,9\n9,-inf\n")
    with pytest.raises(CsvParseError, match="non-finite value -inf in column 'b'") as exc:
        load(p)
    assert exc.value.line == 7


@pytest.mark.parametrize("row, found", [
    ("7,x", "non-numeric value 'x' in column 'b'"),
    ("7", "expected 2 fields, found 1"),
    ("7,1e400", "non-finite value inf in column 'b'"),
])
def test_line_numbers_stay_absolute_in_later_blocks(tmp_path, block_rows, row, found):
    """Line 9 is the third block's second row, as numpy's max_rows does
    not count blank lines: blank lines count as lines, a quoted line
    break does not."""
    p = write(tmp_path, 'a,b\n1,2\n\n3,"4"\n"5\n",6\n\n8,9\n1,1\n' + row + "\n2,2\n")
    block_rows(2)
    with pytest.raises(CsvParseError, match=found) as exc:
        load_csv(p, NUM2)
    assert exc.value.line == 9


def test_blocks_stay_full_across_blank_lines_and_quoted_line_breaks(tmp_path, block_rows):
    """Every block but the last holds BLOCK_ROWS rows, so CSV blocks line
    up with model.row_chunks: blank lines take no place in a block, and a
    field's quoted line break does not end its row."""
    p = write(tmp_path, 'a,b\n\n1,"x"\n\n\n2,"y\nz"\n3,w\n\n"4","v\n\nu"\n5,s\n\n6,t\n7,r\n\n')
    block_rows(2)
    with open(p, encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        blocks = list(read_csv_blocks(fh, header, [0], [1], has_header=True))
    assert [len(b[0]) for b in blocks] == [2, 2, 2, 1]
    assert np.concatenate([b[0] for b in blocks]).tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert [v for b in blocks for v in b[1]] == ["x", "y\nz", "w", "v\n\nu", "s", "t", "r"]


def write_block_file(path, n_rows, seed):
    """BLOCK_SCHEMA rows with quoted and multi-line fields, blank lines,
    out-of-vocabulary values, a constant column and mixed line ends."""
    rng = np.random.default_rng(seed)
    kinds = ["x", '"y\nz"', '" w,v "', "q", '"x"']
    ends = ["\n", "\r\n", "\r"]
    lines = ["a,kind,b,status" + ends[0]]
    for i in range(n_rows):
        status = "ok" if rng.random() < 0.7 else '"bad"'
        lines.append(f"{rng.normal():.6g},{kinds[rng.integers(5)]},{i % 1},{status}"
                     + ends[rng.integers(3)])
        if rng.random() < 0.1:
            lines.append(ends[rng.integers(3)])
    path.write_bytes("".join(lines).encode())
    return path


@pytest.mark.parametrize("n", [1, 7, 16])
def test_blocks_give_the_whole_file_bytes(tmp_path, monkeypatch, block_rows, n):
    p = write_block_file(tmp_path / "many.csv", 100, seed=n)
    whole = load_whole(monkeypatch, load_csv, p, BLOCK_SCHEMA)
    whole_train = {scale: load_whole(monkeypatch, load_training_rows, p, BLOCK_SCHEMA, scale)
                   for scale in (True, False)}
    block_rows(n)
    got = load_csv(p, BLOCK_SCHEMA)
    assert got.features.shape == whole.features.shape == (100, 5)
    assert got.features.tobytes() == whole.features.tobytes()
    assert got.labels.tobytes() == whole.labels.tobytes()
    assert 0 < np.count_nonzero(got.labels) < 100
    for scale, oracle in whole_train.items():
        train = load_training_rows(p, BLOCK_SCHEMA, scale)
        assert expanded(train).shape == expanded(oracle).shape
        assert expanded(train).tobytes() == expanded(oracle).tobytes()
        assert expanded(train).tobytes() == training_split(got, scale).features.tobytes()
        if scale:
            assert train.scaling_stats.col_min.tobytes() == oracle.scaling_stats.col_min.tobytes()
            assert train.scaling_stats.col_max.tobytes() == oracle.scaling_stats.col_max.tobytes()
        else:
            assert train.scaling_stats is None


def test_loaded_arrays_own_their_memory(tmp_path, block_rows):
    """Each part is cut down to its rows, not a view of a larger one."""
    p = write_block_file(tmp_path / "many.csv", 40, seed=1)
    block_rows(8)
    for ds in (load_csv(p, BLOCK_SCHEMA), load_training_rows(p, BLOCK_SCHEMA, True)):
        for part in (ds.rows.numeric, ds.rows.onehot):
            assert part.flags.owndata and part.base is None
            assert not part.flags.writeable
    assert ds.n_rows < 40


def test_row_bound_counts_each_line_end_once(tmp_path):
    p = tmp_path / "ends.bin"
    # the \r\n straddles the first 64 KB chunk's end
    p.write_bytes(b"a" * 65535 + b"\r\n1\r2\n3\r\n4")
    assert data_mod._row_bound(p) == 5
    p.write_bytes(b"")
    assert data_mod._row_bound(p) == 1


def test_a_file_longer_than_its_count_is_refused(tmp_path, monkeypatch):
    p = write(tmp_path, "a,b\n1,2\n3,4\n")
    monkeypatch.setattr(data_mod, "_row_bound", lambda path: 1)
    with pytest.raises(ValueError, match="changed while it was read"):
        load_csv(p, NUM2)


@pytest.mark.parametrize("scale", [fit_scale, lambda ds: apply_scale(
    ds, ScalingStats(np.full(121, -1.0), np.full(121, 2.0)))],
    ids=["fit_scale", "apply_scale"])
def test_scaling_writes_one_matrix_and_leaves_its_input(scale):
    x = np.random.default_rng(4).standard_normal((4000, 121))
    ds = Dataset(features=x, labels=np.zeros(4000, dtype=np.int8))
    before = ds.features.tobytes()
    out, peak = traced_peak(scale, ds)
    assert peak < 1.1 * out.features.nbytes
    assert ds.features.tobytes() == before
    assert not ds.features.flags.writeable and not out.features.flags.writeable
    assert out.labels is ds.labels


def test_only_data_formats_csv_tables():
    """data is the one module that imports csv, and atomic_open is imported
    only by data and modelfile (and defined in atomic)."""
    src = Path(data_mod.__file__).parent
    for path in sorted(src.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names |= {node.module or ""} | {alias.name for alias in node.names}
        if path.stem != "data":
            assert "csv" not in names, f"{path.name} imports csv"
        if path.stem not in ("atomic", "data", "modelfile"):
            assert "atomic_open" not in names, f"{path.name} imports atomic_open"
