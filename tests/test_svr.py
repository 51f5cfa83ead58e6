import json

import numpy as np
import pytest

from edenet.errors import FitError, FormatError, NotFittedError
from edenet.modelfile import load_model, save_model
from edenet.svr import (
    SvrModel,
    fit_svr,
    predict_svr,
    svr_from_dict,
    svr_to_dict,
)


def grid_1d(n=21, lo=-1.0, hi=1.0):
    return np.linspace(lo, hi, n)[:, None]


# ---------------------------------------------------------------------------
# fitting behavior


def test_constant_targets_predict_constant():
    x = grid_1d()
    y = np.full(x.shape[0], 0.7)
    model = fit_svr(x, y)
    pred = predict_svr(model, grid_1d(7, -0.8, 0.8))
    # flat target fits inside the epsilon tube around 0.7
    assert np.all(np.abs(pred - 0.7) <= 0.05)


def test_linear_target_interpolates():
    x = grid_1d(25, 0.0, 1.0)
    y = x[:, 0].copy()
    model = fit_svr(x, y, C=10.0)
    assert abs(predict_svr(model, [[0.5]])[0] - 0.5) <= 0.1


def test_training_error_stays_near_epsilon_tube():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (40, 2))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1]
    model = fit_svr(x, y, C=10.0, epsilon=0.05)
    mae = np.abs(predict_svr(model, x) - y).max()
    assert mae <= 0.05 + 0.1


def test_duplicated_training_set_gives_same_predictions():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (15, 3))
    y = x @ np.array([1.0, -0.5, 0.25])
    # C high enough that no dual coefficient sits on the box bound
    a = fit_svr(x, y, C=10.0, epsilon=0.02)
    b = fit_svr(np.vstack([x, x]), np.concatenate([y, y]), C=10.0, epsilon=0.02)
    probe = rng.uniform(-1, 1, (10, 3))
    assert np.max(np.abs(predict_svr(a, probe) - predict_svr(b, probe))) <= 1e-3


def test_dual_coefficients_respect_box():
    rng = np.random.default_rng(11)
    for C in (0.1, 1.0, 5.0):
        x = rng.uniform(-2, 2, (30, 2))
        y = rng.standard_normal(30) * 3
        model = fit_svr(x, y, C=C, epsilon=0.01)
        assert np.all(np.abs(model.beta) <= C + 1e-9)


def test_predictions_vary_continuously():
    x = grid_1d(30)
    y = np.tanh(2 * x[:, 0])
    model = fit_svr(x, y, C=5.0)
    fine = grid_1d(200, -0.9, 0.9)
    pred = predict_svr(model, fine)
    assert np.max(np.abs(np.diff(pred))) < 0.1
    assert np.isfinite(pred).all()


def test_identical_rows_rejected():
    with pytest.raises(FitError):
        fit_svr(np.ones((5, 2)), np.arange(5.0))


def test_too_few_rows_rejected():
    with pytest.raises(ValueError):
        fit_svr(np.array([[1.0]]), np.array([2.0]))


def test_parameter_validation():
    x = grid_1d(5)
    y = x[:, 0]
    with pytest.raises(ValueError):
        fit_svr(x, y, C=0.0)
    with pytest.raises(ValueError):
        fit_svr(x, y, epsilon=-0.1)
    with pytest.raises(ValueError):
        fit_svr(x, y, gamma=0.0)


def test_predict_input_checks():
    model = fit_svr(grid_1d(5), np.arange(5.0))
    with pytest.raises(NotFittedError):
        predict_svr("not a model", [[1.0]])
    with pytest.raises(ValueError):
        predict_svr(model, [[1.0, 2.0]])


def test_one_dimensional_query_promoted():
    model = fit_svr(grid_1d(9), np.arange(9.0))
    single = predict_svr(model, np.array([0.0]))
    assert single.shape == (1,)


# ---------------------------------------------------------------------------
# serialization


def fitted_example():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, (12, 2))
    y = x[:, 0] ** 2 - x[:, 1]
    return fit_svr(x, y, C=2.0, epsilon=0.05), rng.uniform(-1, 1, (6, 2))


def test_save_load_round_trip_is_exact(tmp_path):
    model, probe = fitted_example()
    p = tmp_path / "svr.json"
    save_model(model, p)
    back = load_model(p)
    assert isinstance(back, SvrModel)
    assert np.array_equal(predict_svr(back, probe), predict_svr(model, probe))


def test_resave_is_byte_identical(tmp_path):
    model, _ = fitted_example()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_int_valued_settings_resave_byte_identical(tmp_path):
    x = np.arange(12.0).reshape(6, 2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(fit_svr(x, np.sin(x[:, 0]), C=1, epsilon=0), p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dict_round_trip_preserves_fields():
    model, _ = fitted_example()
    back = svr_from_dict(svr_to_dict(model))
    assert back.bias == model.bias
    assert back.gamma == model.gamma
    assert np.array_equal(back.beta, model.beta)


def rewrite(path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def test_wrong_kind_rejected(tmp_path):
    model, _ = fitted_example()
    p = tmp_path / "svr.json"
    save_model(model, p)
    rewrite(p, kind="ede")
    with pytest.raises(FormatError):
        load_model(p)


def test_corrupt_file_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{truncated")
    with pytest.raises(FormatError):
        load_model(p)
    p.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(FormatError):
        load_model(p)


def test_missing_field_rejected(tmp_path):
    model, _ = fitted_example()
    p = tmp_path / "svr.json"
    save_model(model, p)
    doc = json.loads(p.read_text())
    del doc["bias"]
    p.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_model(p)


@pytest.mark.parametrize("key", ["train_x", "beta", "x_mean", "x_std"])
def test_payload_arrays_given_as_strings_are_rejected(tmp_path, key):
    model, _ = fitted_example()
    doc = svr_to_dict(model)
    doc[key] = np.asarray(doc[key]).astype(str).tolist()
    with pytest.raises(ValueError, match=f"svr model {key} must hold numbers"):
        svr_from_dict(doc)
    p = tmp_path / "svr.json"
    save_model(model, p)
    rewrite(p, **{key: doc[key]})
    with pytest.raises(FormatError, match=f"svr model {key} must hold numbers"):
        load_model(p)


@pytest.mark.parametrize("changes", [
    {"beta": "x"},
    {"train_x": 3},
    {"x_mean": [0.0]},
    {"gamma": None},
    {"gamma": float("nan")},
    {"beta": [float("nan")] * 12},
    {"beta": [[1.0]]},
])
def test_malformed_payload_rejected(tmp_path, changes):
    model, _ = fitted_example()
    p = tmp_path / "svr.json"
    save_model(model, p)
    rewrite(p, **changes)
    with pytest.raises(FormatError):
        load_model(p)
