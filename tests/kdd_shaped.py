"""KDD99-shaped CSV rows for the tests: the columns of the bundled schema,
random values, then a label."""

from pathlib import Path

import numpy as np

from edenet.data import load_schema

KDD_SCHEMA = Path(__file__).resolve().parents[1] / "schemas" / "kdd99_10pct.json"


def write_kdd_rows(path, n_rows: int, seed: int, anomaly_share: float = 0.2, *,
                   header: bool = True, oov_service: bool = False,
                   constant_land: bool = False):
    """Write n_rows rows in the KDD99 schema, after a header row unless
    header is False, and return the schema.

    A categorical value is drawn from its vocabulary, and a numeric one is
    a lognormal draw written with 3 significant digits, except
    num_outbound_cmds, which is "0" as in KDD99. About anomaly_share of the
    rows are labeled "normal.": the anomalies under the schema's label
    inversion, which training drops. With oov_service about 5% of the
    service values lie outside the vocabulary (an all-zero one-hot block).
    With constant_land land is "0" on every row, so over the training rows
    its first one-hot column is constant 1 and its second constant 0.
    Columns draw in schema order, and the labels last.
    """
    schema = load_schema(KDD_SCHEMA)
    rng = np.random.default_rng(seed)
    cols = []
    for col in schema.columns:
        if col.name == "num_outbound_cmds" or (constant_land and col.name == "land"):
            cols.append(["0"] * n_rows)
        elif col.type == "categorical":
            values = rng.choice(col.values, n_rows)
            if oov_service and col.name == "service":
                values[rng.random(n_rows) < 0.05] = "zz_unlisted"
            cols.append(values.tolist())
        else:
            cols.append([f"{v:.3g}" for v in rng.lognormal(0.0, 2.0, n_rows)])
    cols.append(np.where(rng.random(n_rows) < anomaly_share, "normal.", "smurf.").tolist())
    names = [c.name for c in schema.columns] + [schema.label_column]
    Path(path).write_text((",".join(names) + "\n" if header else "")
                          + "".join(",".join(r) + "\n" for r in zip(*cols)))
    return schema
