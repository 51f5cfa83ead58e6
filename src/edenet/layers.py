"""Dense and LSTM layer primitives with hand-derived backward passes.

All math is float64 numpy. Forward passes are pure functions of
(parameters, input); backward passes consume the explicit caches returned
by the forward calls, never hidden state. Gradients are verified against
central finite differences in the test suite.

Scoring needs no backward pass, so it runs forward-only: DenseStack.infer
and lstm_infer return what forward and lstm_forward return, bit for bit,
but keep no cache (the LSTM paths share one per-step helper, lstm_step).
model.anomaly_score feeds them fixed-size blocks of rows, so its memory
does not grow with the row count. A product over a block can round
differently in the last bits from the same rows inside a larger matrix,
so a scored row can differ that much from the same row in a whole-matrix
training forward.

Every function also takes a stack of I independent nets at once: a
layer's weights are then (I, in_dim, out_dim), its bias (I, out_dim), and
every activation carries the member axis first, (I, B, width). np.matmul
runs one product per member, the same BLAS call a lone net makes, so a
member's results are bit-identical either way. A backward pass can write
its parameter gradients into given arrays (out=) instead of fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ShapeError

ACTIVATIONS = ("tanh", "identity")

# gate order within concatenated LSTM weight blocks
_GATES = ("input", "forget", "cell", "output")


def as_matrix(x, name: str = "input") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass
class DenseLayer:
    """Fully connected layer: out = act(x @ weights + bias)."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "tanh"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weights must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weights.shape[1]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != out_dim {self.weights.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-1]


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int,
               activation: str = "tanh") -> DenseLayer:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights and bias."""
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(in_dim, out_dim))
    b = rng.uniform(-bound, bound, size=out_dim)
    return DenseLayer(w, b, activation)


def dense_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    if x.ndim < 2 or x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"input has shape {x.shape}, layer expects (*, {layer.in_dim})"
        )
    # in place: one (B, out_dim) temporary instead of three
    pre = x @ layer.weights
    pre += layer.bias[..., None, :]
    if layer.activation == "tanh":
        np.tanh(pre, out=pre)
    return pre


def dense_backward(layer: DenseLayer, cached_input: np.ndarray,
                   cached_output: np.ndarray, grad_out: np.ndarray,
                   out: DenseLayer | None = None):
    """Gradients for one dense layer.

    cached_input and cached_output are the forward call's input and
    result; a tanh layer takes its derivative from the output, so nothing
    is recomputed. Returns (grad_input, grad_weights, grad_bias); when out
    is given, the two parameter gradients are written into out.weights and
    out.bias and returned.
    """
    if cached_input.shape[-1] != layer.in_dim:
        raise ShapeError(f"cached input shape {cached_input.shape} mismatches layer")
    expect = cached_input.shape[:-1] + (layer.out_dim,)
    if cached_output.shape != expect:
        raise ShapeError(f"cached output shape {cached_output.shape} != {expect}")
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape} != {expect}")
    if layer.activation == "tanh":
        grad_pre = grad_out * (1.0 - cached_output * cached_output)
    else:
        grad_pre = grad_out
    grad_w = np.matmul(cached_input.swapaxes(-1, -2), grad_pre,
                       out=None if out is None else out.weights)
    grad_b = np.sum(grad_pre, axis=-2, out=None if out is None else out.bias)
    grad_in = grad_pre @ layer.weights.swapaxes(-1, -2)
    return grad_in, grad_w, grad_b


class Stack:
    """Parameter listing shared by the encoder and decoder stacks.

    A subclass names its (weights, bias) holders once, in named_units();
    units(), params() and param_names() all follow that one list, so the
    parameter order and the model-file keys cannot drift apart.
    """

    def named_units(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def units(self) -> list:
        """The objects holding (weights, bias) pairs, in params() order."""
        return [unit for _, unit in self.named_units()]

    def params(self) -> list[np.ndarray]:
        return [p for unit in self.units() for p in (unit.weights, unit.bias)]

    def param_names(self) -> list[str]:
        return [f"{prefix}.{suffix}" for prefix, _ in self.named_units()
                for suffix in ("w", "b")]


class DenseStack(Stack):
    """A sequence of dense layers applied in order."""

    def __init__(self, layers: list[DenseLayer]):
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer widths do not chain: {a.out_dim} -> {b.in_dim}"
                )
        self.layers = layers

    def forward(self, x: np.ndarray):
        """Returns (output, cache); cache[k] is layer k's input and
        cache[k + 1] its output."""
        cache = [x]
        for layer in self.layers:
            x = dense_forward(layer, x)
            cache.append(x)
        return x, cache

    def infer(self, x: np.ndarray) -> np.ndarray:
        """forward's output alone; each layer's output is freed once the
        next layer has run."""
        for layer in self.layers:
            x = dense_forward(layer, x)
        return x

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray, out=None):
        """Returns (grad_input, grads) with grads aligned to params(). out,
        a stack of the same layout (see model.EdeNet.bind), receives the
        gradients in place when given."""
        grads: list[np.ndarray] = []
        for k in range(len(self.layers) - 1, -1, -1):
            grad_out, gw, gb = dense_backward(self.layers[k], cache[k], cache[k + 1],
                                              grad_out, None if out is None else out.layers[k])
            grads[:0] = [gw, gb]
        return grad_out, grads

    def named_units(self) -> list[tuple[str, DenseLayer]]:
        return [(f"layer{k}", layer) for k, layer in enumerate(self.layers)]


@dataclass
class LstmCell:
    """Single LSTM cell over [input, hidden] concatenation.

    weights: (input_dim + hidden_dim, 4*hidden_dim), bias: (4*hidden_dim,),
    gate order input, forget, cell-candidate, output. Sigmoid gates, tanh
    candidate and cell output.
    """

    input_dim: int
    hidden_dim: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        expect = (self.input_dim + self.hidden_dim, 4 * self.hidden_dim)
        if self.weights.shape != expect:
            raise ShapeError(f"lstm weights shape {self.weights.shape} != {expect}")
        if self.bias.shape != (4 * self.hidden_dim,):
            raise ShapeError(f"lstm bias shape {self.bias.shape} != ({4 * self.hidden_dim},)")


def init_lstm(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> LstmCell:
    """Uniform weight init over the concatenated width; forget-gate bias 1.0."""
    bound = 1.0 / np.sqrt(input_dim + hidden_dim)
    w = rng.uniform(-bound, bound, size=(input_dim + hidden_dim, 4 * hidden_dim))
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim:2 * hidden_dim] = 1.0  # forget gate starts open
    return LstmCell(input_dim, hidden_dim, w, b)


def _check_sequence(cell: LstmCell, x_seq: np.ndarray) -> None:
    if x_seq.ndim < 3 or x_seq.shape[-1] != cell.input_dim:
        raise ShapeError(
            f"sequence shape {x_seq.shape} incompatible with input_dim {cell.input_dim}"
        )
    if x_seq.shape[-3] == 0:
        raise ValueError("empty sequence")


def lstm_step(cell: LstmCell, x_t: np.ndarray, h: np.ndarray, c: np.ndarray,
              gate: np.ndarray, c_new: np.ndarray, tanh_c: np.ndarray,
              h_new: np.ndarray) -> None:
    """One timestep from states (h, c) on input x_t, all (..., B, *).

    Writes the activated gates (..., B, 4*hidden_dim), the new cell state,
    its tanh and the new hidden state into the given arrays. c_new may be
    c and h_new may be h: each is read before it is written.
    """
    H = cell.hidden_dim
    pre = np.concatenate([x_t, h], axis=-1) @ cell.weights
    pre += cell.bias[..., None, :]
    # input and forget gates share one sigmoid call
    expit(pre[..., :2 * H], out=gate[..., :2 * H])
    np.tanh(pre[..., 2 * H:3 * H], out=gate[..., 2 * H:3 * H])
    expit(pre[..., 3 * H:], out=gate[..., 3 * H:])
    i, f = gate[..., :H], gate[..., H:2 * H]
    g, o = gate[..., 2 * H:3 * H], gate[..., 3 * H:]
    np.multiply(f, c, out=c_new)
    c_new += i * g
    np.tanh(c_new, out=tanh_c)
    np.multiply(o, tanh_c, out=h_new)


def lstm_forward(cell: LstmCell, x_seq: np.ndarray, h0: np.ndarray, c0: np.ndarray):
    """Run the cell over a (T, B, input_dim) sequence.

    Returns (hidden_states, cache) where hidden_states is (T, B, hidden_dim)
    and cache feeds lstm_backward. A member stack carries its axis first:
    x_seq (I, T, B, input_dim), h0 and c0 (I, B, hidden_dim).
    """
    _check_sequence(cell, x_seq)
    lead, (T, B, _) = x_seq.shape[:-3], x_seq.shape[-3:]
    H = cell.hidden_dim
    if h0.shape != lead + (B, H) or c0.shape != lead + (B, H):
        raise ShapeError("h0/c0 must have shape (batch, hidden_dim)")

    hs = np.empty(lead + (T + 1, B, H))
    cs = np.empty(lead + (T + 1, B, H))
    hs[..., 0, :, :], cs[..., 0, :, :] = h0, c0
    gates = np.empty(lead + (T, B, 4 * H))
    tanh_c = np.empty(lead + (T, B, H))
    for t in range(T):
        # activations straight into the cache
        lstm_step(cell, x_seq[..., t, :, :], hs[..., t, :, :], cs[..., t, :, :],
                  gates[..., t, :, :], cs[..., t + 1, :, :], tanh_c[..., t, :, :],
                  hs[..., t + 1, :, :])

    cache = {"x_seq": x_seq, "hs": hs, "cs": cs, "gates": gates, "tanh_c": tanh_c,
             "shape": (T, B, H, cell.input_dim)}
    return hs[..., 1:, :, :], cache


def lstm_infer(cell: LstmCell, x_seq: np.ndarray) -> np.ndarray:
    """lstm_forward's hidden states from zero states, without the cache:
    the same lstm_step math, with one step's gates and cell state kept at
    a time."""
    _check_sequence(cell, x_seq)
    lead, (T, B, _) = x_seq.shape[:-3], x_seq.shape[-3:]
    H = cell.hidden_dim
    hs = np.empty(lead + (T, B, H))
    h, c = np.zeros(lead + (B, H)), np.zeros(lead + (B, H))
    gate = np.empty(lead + (B, 4 * H))
    tanh_c = np.empty(lead + (B, H))
    for t in range(T):
        lstm_step(cell, x_seq[..., t, :, :], h, c, gate, c, tanh_c, hs[..., t, :, :])
        h = hs[..., t, :, :]
    return hs


def lstm_backward(cell: LstmCell, cache: dict, grad_hidden: np.ndarray,
                  out: LstmCell | None = None):
    """Backprop through time for one cell.

    grad_hidden holds the upstream gradient on every hidden state,
    shape (T, B, hidden_dim); steps without upstream signal carry zeros.
    Returns (grad_x_seq, grad_weights, grad_bias, grad_h0, grad_c0); when
    out is given, the parameter gradients are accumulated in out.weights
    and out.bias, which are zeroed first.
    """
    T, B, H, D = cache["shape"]
    if cell.input_dim != D or cell.hidden_dim != H:
        raise ValueError("cache does not belong to this cell")
    x_seq, hs, cs = cache["x_seq"], cache["hs"], cache["cs"]
    gates, tanh_c = cache["gates"], cache["tanh_c"]
    lead = x_seq.shape[:-3]
    if grad_hidden.shape != lead + (T, B, H):
        raise ShapeError(f"grad_hidden shape {grad_hidden.shape} != {lead + (T, B, H)}")

    if out is None:
        grad_w, grad_b = np.zeros_like(cell.weights), np.zeros_like(cell.bias)
    else:
        grad_w, grad_b = out.weights, out.bias
        grad_w[...] = 0.0
        grad_b[...] = 0.0
    w_t = cell.weights.swapaxes(-1, -2)
    grad_x = np.zeros_like(x_seq)
    dh_next = np.zeros(lead + (B, H))
    dc_next = np.zeros(lead + (B, H))

    for t in range(T - 1, -1, -1):
        gate = gates[..., t, :, :]
        i, f = gate[..., :H], gate[..., H:2 * H]
        g, o = gate[..., 2 * H:3 * H], gate[..., 3 * H:]
        tc = tanh_c[..., t, :, :]

        dh = grad_hidden[..., t, :, :] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * cs[..., t, :, :]
        dg = dc * i
        dc_next = dc * f

        dpre = np.empty(lead + (B, 4 * H))
        dpre[..., :H] = di * i * (1.0 - i)
        dpre[..., H:2 * H] = df * f * (1.0 - f)
        dpre[..., 2 * H:3 * H] = dg * (1.0 - g * g)
        dpre[..., 3 * H:] = do * o * (1.0 - o)

        concat = np.concatenate([x_seq[..., t, :, :], hs[..., t, :, :]], axis=-1)
        grad_w += concat.swapaxes(-1, -2) @ dpre
        grad_b += dpre.sum(axis=-2)
        dconcat = dpre @ w_t
        grad_x[..., t, :, :] = dconcat[..., :D]
        dh_next = dconcat[..., D:]

    return grad_x, grad_w, grad_b, dh_next, dc_next
