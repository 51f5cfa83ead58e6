"""Epsilon-insensitive kernel regression fitted by coordinate descent.

The dual variable beta_j = alpha_j - alpha*_j lives in [-C, C]. The bias
is folded into an augmented kernel K' = K + 1, giving f(x) =
sum_j beta_j K(x, x_j) + b with b = sum_j beta_j; each coordinate is then
minimized exactly by soft-thresholding the residual. Inputs are z-scored
with statistics kept on the model; constant columns are zeroed.

Fine for the meta-datasets this serves (tens to hundreds of rows); no
attempt at working-set tricks for large problems.

svr_to_dict/svr_from_dict are the model's payload in the shared model
file format; modelfile.save_model/load_model write and read the files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FitError, NotFittedError, ShapeError, check_fields, expect_numbers,
                     from_fields)

DEFAULT_C = 1.0
DEFAULT_EPSILON = 0.01


@dataclass(frozen=True)
class SvrSettings:
    """fit_svr's settings as the config's `svr` section gives them; gamma
    None takes fit_svr's default."""

    C: float = DEFAULT_C
    epsilon: float = DEFAULT_EPSILON
    gamma: float | None = None

    def __post_init__(self):
        check_fields(self, "svr")


@dataclass
class SvrModel:
    train_x: np.ndarray       # standardized training rows (m, p)
    beta: np.ndarray          # dual coefficients, each in [-C, C]
    bias: float
    gamma: float
    C: float
    epsilon: float
    x_mean: np.ndarray
    x_std: np.ndarray         # 0 marks a constant (dropped) column
    kernel: str = "rbf"

    def __post_init__(self):
        check_fields(self, "svr model")
        if self.kernel != "rbf":
            raise ValueError(f"unsupported kernel {self.kernel!r}")
        if not all(np.isfinite(v).all() for v in (
                self.train_x, self.beta, self.bias, self.gamma, self.C,
                self.epsilon, self.x_mean, self.x_std)):
            raise ValueError("model values must be finite")
        if self.gamma <= 0 or self.C <= 0 or self.epsilon < 0:
            raise ValueError("need gamma > 0, C > 0, epsilon >= 0")
        if (self.train_x.ndim != 2
                or not self.x_mean.shape == self.x_std.shape == (self.n_inputs,)):
            raise ShapeError("train_x must be (m, p) with length-p x_mean, x_std")
        if self.beta.shape != (self.train_x.shape[0],):
            raise ShapeError("one dual coefficient per training row required")
        if np.any(np.abs(self.beta) > self.C + 1e-9):
            raise ValueError("dual coefficients must lie in [-C, C]")

    @property
    def n_inputs(self) -> int:
        return self.train_x.shape[1]


def _standardize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    safe = np.where(std > 0, std, 1.0)
    out = (x - mean) / safe
    out[:, std == 0] = 0.0
    return out


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def fit_svr(x, y, C: float = DEFAULT_C, epsilon: float = DEFAULT_EPSILON,
            gamma: float | None = None, tol: float = 1e-6,
            max_sweeps: int = 5000) -> SvrModel:
    """Fit the regressor on raw (unstandardized) inputs.

    gamma defaults to 1/(p * mean column variance) of the standardized
    inputs. Coordinate sweeps stop once the largest coefficient change in
    a full pass drops below tol, or at max_sweeps.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError("x must be (m, p) with matching y of length m")
    m, p = x.shape
    if m < 2:
        raise ValueError("need at least 2 training rows")
    if C <= 0 or epsilon < 0:
        raise ValueError("need C > 0 and epsilon >= 0")
    if np.all(x == x[0]):
        raise FitError("all training inputs are identical")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    xs = _standardize(x, mean, std)

    if gamma is None:
        mean_var = float(xs.var(axis=0).mean())
        if mean_var <= 0:
            raise FitError("inputs have no variance after standardization")
        gamma = 1.0 / (p * mean_var)
    elif gamma <= 0:
        raise ValueError("gamma must be positive")

    kernel = _rbf(xs, xs, gamma) + 1.0  # +1 absorbs the bias term
    diag = np.diag(kernel).copy()
    beta = np.zeros(m)
    f = np.zeros(m)  # kernel @ beta, maintained incrementally

    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(m):
            r = y[j] - (f[j] - diag[j] * beta[j])
            if r > epsilon:
                new = min(C, (r - epsilon) / diag[j])
            elif r < -epsilon:
                new = max(-C, (r + epsilon) / diag[j])
            else:
                new = 0.0
            step = new - beta[j]
            if step != 0.0:
                f += step * kernel[:, j]
                beta[j] = new
                delta = max(delta, abs(step))
        if delta < tol:
            break

    return SvrModel(train_x=xs, beta=beta, bias=float(beta.sum()),
                    gamma=gamma, C=C, epsilon=epsilon,
                    x_mean=mean, x_std=std)


def predict_svr(model: SvrModel, x) -> np.ndarray:
    """Predicted targets for raw input rows (m', p)."""
    if not isinstance(model, SvrModel):
        raise NotFittedError("predict_svr needs a fitted SvrModel")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.n_inputs:
        raise ShapeError(
            f"input has {x.shape[1]} columns, model expects {model.n_inputs}")
    xs = _standardize(x, model.x_mean, model.x_std)
    k = _rbf(xs, model.train_x, model.gamma)
    return k @ model.beta + model.bias


# ---------------------------------------------------------------------------
# payload codec; modelfile adds the file header and turns decoding errors
# into FormatError


def svr_to_dict(model: SvrModel) -> dict:
    return {
        "kernel": model.kernel,
        "gamma": model.gamma,
        "C": model.C,
        "epsilon": model.epsilon,
        "bias": model.bias,
        "beta": model.beta.tolist(),
        "x_mean": model.x_mean.tolist(),
        "x_std": model.x_std.tolist(),
        "train_x": model.train_x.tolist(),
    }


def svr_from_dict(doc: dict) -> SvrModel:
    """The model whose fields the payload names, its arrays as nested lists."""
    arrays = ("train_x", "beta", "x_mean", "x_std")
    return from_fields(SvrModel, {
        key: expect_numbers(f"svr model {key}", value) if key in arrays else value
        for key, value in doc.items()}, "svr model")
