"""Dense and LSTM layer primitives with hand-derived backward passes.

All math is float64 numpy. Forward passes are pure functions of
(parameters, input); backward passes consume the explicit caches returned
by the forward calls, never hidden state. Gradients are verified against
central finite differences in the test suite.

Scoring needs no backward pass, so it runs forward-only: DenseStack.infer
and lstm_infer return what DenseStack.forward and lstm_forward return, bit
for bit, but keep no cache (the LSTM paths share one per-step helper,
lstm_step).
ensemble.ensemble_score feeds them fixed-size blocks of rows, so its memory
does not grow with the row count. A product over a block can round
differently in the last bits from the same rows inside a larger matrix,
so a scored row can differ that much from the same row in a whole-matrix
training forward.

Every function also takes a stack of I independent nets at once: a
layer's weights are then (I, in_dim, out_dim), its bias (I, out_dim), and
every activation carries the member axis first, (I, B, width). np.matmul
runs one product per member, the same BLAS call a lone net makes, so a
member's results are bit-identical either way. A backward pass writes
its parameter gradients into the arrays of a given layer or cell (out)
and returns the input gradient, unless its caller reads none
(input_grad false).

Training writes its working arrays into the buffers of a given
Workspace rather than into fresh arrays. DenseStack.forward writes each
layer's output (its cache), dense_backward its temporary and input
gradient; lstm_forward writes its cache (hidden and cell states, gates,
tanh of the cell state, each step's [x_t, h] input), lstm_backward its
temporaries and input gradient. A fresh array of a few hundred KB gets
fresh pages from the allocator, and faulting those pages in every round
cost more than the math in LSTM training and a large share of it in the
short feed-forward trainings of meta build. A caller that keeps one
Workspace across calls (training across its rounds, ensemble_score across
its blocks) writes into the same pages every time. Each product and
elementwise step runs in the same order on the same values as it would
into a fresh array, so no number changes. What these functions return may
be a view of the workspace, valid until the workspace is written again.
Of the scoring paths, lstm_infer writes its block's states and gates into
a workspace, under lstm_forward's buffer names, so scoring into a training
run's workspace between rounds reuses the pages of training's cache;
DenseStack.infer allocates each layer's output.

The LSTM gates use sigmoid(x) = 1 / (1 + exp(-x)), the formula
scipy.special.expit evaluates, through numpy's exp instead of the C
library's. numpy's SIMD exp is within 2 ulp of the C library's, and
rounding 1 + e and the quotient widen a k-ulp gap in exp to at most
2k + 2 ulp of the sigmoid. On an AVX-512 build (numpy 2.4), exp differs
by 1 ulp on about 5% of entries, and the sigmoid differs from expit on
about 2% of entries: by 1-2 ulp, and by 3-4 ulp on about 3 in 100k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ACTIVATIONS = ("tanh", "identity")

# gate order within concatenated LSTM weight blocks
_GATES = ("input", "forget", "cell", "output")


class Workspace:
    """Float64 buffers that outlive one call, looked up by name.

    take(name, shape) returns a C-contiguous view of name's buffer, which
    grows when shape needs more room than it has; a smaller shape is a
    prefix of the same memory, so a round over the leading a of I members,
    or a block shorter than the last, reuses the pages of the largest.
    Nothing is cleared: the caller writes every element it reads. Two takes
    of one name share memory, so arrays that are live at once need
    different names; scope(*names) gives a workspace over the same buffers
    whose names carry that prefix.
    """

    def __init__(self, buffers: dict | None = None, prefix: tuple = ()):
        self._buffers = {} if buffers is None else buffers
        self._prefix = prefix

    def scope(self, *names) -> "Workspace":
        return Workspace(self._buffers, self._prefix + names)

    def take(self, name: str, shape: tuple) -> np.ndarray:
        key, size = self._prefix + (name,), math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(shape)


def as_matrix(x, name: str = "input") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    # NaN propagates through min and max, and an infinity is one of them:
    # the check costs two reductions instead of a full-size boolean array
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
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


def dense_forward(layer: DenseLayer, x: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """act(x @ weights + bias), written into out, of the result's shape,
    when given, else into a fresh array."""
    if x.ndim < 2 or x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"input has shape {x.shape}, layer expects (*, {layer.in_dim})"
        )
    # in place: one (B, out_dim) array instead of three
    pre = np.matmul(x, layer.weights, out=out)
    pre += layer.bias[..., None, :]
    if layer.activation == "tanh":
        np.tanh(pre, out=pre)
    return pre


def dense_backward(layer: DenseLayer, cached_input: np.ndarray,
                   cached_output: np.ndarray, grad_out: np.ndarray,
                   out: DenseLayer, work: Workspace,
                   input_grad: bool = True) -> np.ndarray | None:
    """Gradients for one dense layer: the parameter gradients are written
    into out.weights and out.bias, and the input gradient is returned, or
    None with input_grad false, when no caller reads it.

    cached_input and cached_output are the forward call's input and
    result; a tanh layer takes its derivative from the output, so nothing
    is recomputed. A tanh layer's gradient before the activation goes
    into work's buffer "grad_pre" and the input gradient into "grad_in",
    so the input gradient returned is a view of work. grad_out may be a
    view of "grad_in", the input gradient of the tanh layer above: a tanh
    layer reads it into "grad_pre" before "grad_in" is written (an
    identity layer's product would read and write "grad_in", which
    np.matmul resolves with a copy).
    """
    if cached_input.shape[-1] != layer.in_dim:
        raise ShapeError(f"cached input shape {cached_input.shape} mismatches layer")
    expect = cached_input.shape[:-1] + (layer.out_dim,)
    if cached_output.shape != expect:
        raise ShapeError(f"cached output shape {cached_output.shape} != {expect}")
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape} != {expect}")
    if layer.activation == "tanh":
        # grad_out * (1 - y * y), one step at a time into one buffer
        grad_pre = np.multiply(cached_output, cached_output, out=work.take("grad_pre", expect))
        np.subtract(1.0, grad_pre, out=grad_pre)
        np.multiply(grad_out, grad_pre, out=grad_pre)
    else:
        grad_pre = grad_out
    np.matmul(cached_input.swapaxes(-1, -2), grad_pre, out=out.weights)
    np.sum(grad_pre, axis=-2, out=out.bias)
    if not input_grad:
        return None
    return np.matmul(grad_pre, layer.weights.swapaxes(-1, -2),
                     out=work.take("grad_in", cached_input.shape))


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

    def forward(self, x: np.ndarray, work: Workspace):
        """Returns (output, cache); cache[k] is layer k's input and
        cache[k + 1] its output. Layer k writes its output into work's
        buffer "y{k}", so the output and the cache are views of work,
        valid until work's buffers are written again."""
        cache = [x]
        for k, layer in enumerate(self.layers):
            x = dense_forward(layer, x, work.take(f"y{k}", x.shape[:-1] + (layer.out_dim,)))
            cache.append(x)
        return x, cache

    def infer(self, x: np.ndarray, work: Workspace | None = None) -> np.ndarray:
        """forward's output alone, a fresh array; each layer's output is
        freed once the next layer has run. work, there for the LSTM
        stacks' signature, goes unused."""
        for layer in self.layers:
            x = dense_forward(layer, x)
        return x

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray, out: "DenseStack",
                 work: Workspace, input_grad: bool = True) -> np.ndarray | None:
        """Writes the gradients into out, a stack of the same layout (see
        model.EdeNet.bind), and returns the gradient on the input, or None
        with input_grad false. Every layer writes its temporaries into
        the same two buffers of work (dense_backward), which must not
        hold the cache; the gradient returned is a view of work."""
        for k in range(len(self.layers) - 1, -1, -1):
            grad_out = dense_backward(self.layers[k], cache[k], cache[k + 1], grad_out,
                                      out.layers[k], work, input_grad or k > 0)
        return grad_out

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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, written into out (which may be x).

    Below x = -709.78 exp(-x) overflows to inf and the result is exactly
    0.0; from x = 37 up 1 + exp(-x) rounds to 1 and the result is exactly
    1.0. Neither the overflow nor the subnormal results just above
    -709.78 raise a floating-point warning.
    """
    out = np.negative(x, out=out)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def lstm_step(cell: LstmCell, x_t: np.ndarray, h: np.ndarray, c: np.ndarray,
              xh: np.ndarray, gate: np.ndarray, c_new: np.ndarray, tanh_c: np.ndarray,
              h_new: np.ndarray) -> None:
    """One timestep from states (h, c) on input x_t, all (..., B, *).

    Writes [x_t, h] into xh (..., B, input_dim + hidden_dim), the
    activated gates (..., B, 4*hidden_dim) into gate, and the new cell
    state, its tanh and the new hidden state into the given arrays. c_new
    may be c and h_new may be h: each is read before it is written.
    tanh_c also serves as scratch before it receives its value.
    """
    H, D = cell.hidden_dim, cell.input_dim
    xh[..., :D] = x_t
    xh[..., D:] = h
    # the pre-activations go straight into gate and are activated in place:
    # the candidate's tanh waits in tanh_c while one sigmoid pass runs over
    # the whole contiguous block, then goes back into its slice
    np.matmul(xh, cell.weights, out=gate)
    gate += cell.bias[..., None, :]
    np.tanh(gate[..., 2 * H:3 * H], out=tanh_c)
    sigmoid(gate, out=gate)
    gate[..., 2 * H:3 * H] = tanh_c
    i, f = gate[..., :H], gate[..., H:2 * H]
    g, o = gate[..., 2 * H:3 * H], gate[..., 3 * H:]
    np.multiply(i, g, out=tanh_c)  # i * g, before tanh_c holds its own value
    np.multiply(f, c, out=c_new)
    c_new += tanh_c
    np.tanh(c_new, out=tanh_c)
    np.multiply(o, tanh_c, out=h_new)


def lstm_forward(cell: LstmCell, x_seq: np.ndarray, work: Workspace):
    """Run the cell over a (T, B, input_dim) sequence from zero hidden and
    cell states.

    Returns (hidden_states, cache) where hidden_states is (T, B, hidden_dim)
    and cache feeds lstm_backward. A member stack carries its axis first:
    x_seq (I, T, B, input_dim). The states, gates and step inputs are
    written into work's buffers, so the hidden states and the cache are
    views of work, valid until work's buffers are written again.
    """
    _check_sequence(cell, x_seq)
    lead, (T, B, D) = x_seq.shape[:-3], x_seq.shape[-3:]
    H = cell.hidden_dim
    hs = work.take("hs", lead + (T + 1, B, H))
    cs = work.take("cs", lead + (T + 1, B, H))
    hs[..., 0, :, :] = cs[..., 0, :, :] = 0.0
    xh = work.take("xh", lead + (T, B, D + H))
    gates = work.take("gates", lead + (T, B, 4 * H))
    tanh_c = work.take("tanh_c", lead + (T, B, H))
    for t in range(T):
        # activations straight into the cache
        lstm_step(cell, x_seq[..., t, :, :], hs[..., t, :, :], cs[..., t, :, :],
                  xh[..., t, :, :], gates[..., t, :, :], cs[..., t + 1, :, :],
                  tanh_c[..., t, :, :], hs[..., t + 1, :, :])

    cache = {"xh": xh, "cs": cs, "gates": gates, "tanh_c": tanh_c, "shape": (T, B, H, D)}
    return hs[..., 1:, :, :], cache


def lstm_infer(cell: LstmCell, x_seq: np.ndarray, work: Workspace) -> np.ndarray:
    """lstm_forward's hidden states from zero states, without the cache:
    the same lstm_step math, with one step's gates and cell state kept at
    a time. The states and gates are written into work's buffers, and the
    hidden states returned are a view of work, under lstm_forward's
    buffer names."""
    _check_sequence(cell, x_seq)
    lead, (T, B, D) = x_seq.shape[:-3], x_seq.shape[-3:]
    H = cell.hidden_dim
    hs = work.take("hs", lead + (T, B, H))
    c = work.take("cs", lead + (B, H))
    c[...] = 0.0
    xh = work.take("xh", lead + (B, D + H))
    gate = work.take("gates", lead + (B, 4 * H))
    tanh_c = work.take("tanh_c", lead + (B, H))
    h = c  # both states start at zero; lstm_step reads h before it writes c
    for t in range(T):
        lstm_step(cell, x_seq[..., t, :, :], h, c, xh, gate, c, tanh_c, hs[..., t, :, :])
        h = hs[..., t, :, :]
    return hs


def lstm_backward(cell: LstmCell, cache: dict, grad_hidden: np.ndarray,
                  work: Workspace, out: LstmCell) -> np.ndarray:
    """Backprop through time for one cell.

    grad_hidden holds the upstream gradient on every hidden state,
    shape (T, B, hidden_dim); steps without upstream signal carry zeros.
    The parameter gradients are accumulated in out.weights and out.bias,
    which are zeroed first, and the gradient on the input sequence is
    returned. The temporaries go into work's buffers, and the input
    gradient is a view of them; work must not hold the cache or
    grad_hidden.
    """
    T, B, H, D = cache["shape"]
    if cell.input_dim != D or cell.hidden_dim != H:
        raise ValueError("cache does not belong to this cell")
    xh, cs, gates, tanh_c = cache["xh"], cache["cs"], cache["gates"], cache["tanh_c"]
    lead = xh.shape[:-3]
    if grad_hidden.shape != lead + (T, B, H):
        raise ShapeError(f"grad_hidden shape {grad_hidden.shape} != {lead + (T, B, H)}")

    grad_w, grad_b = out.weights, out.bias
    grad_w[...] = 0.0
    grad_b[...] = 0.0
    w_t = cell.weights.swapaxes(-1, -2)
    grad_x = work.take("grad_x", lead + (T, B, D))
    dpre = work.take("dpre", lead + (B, 4 * H))
    dw = work.take("dw", lead + (D + H, 4 * H))
    dh = work.take("dh", lead + (B, H))
    dc = work.take("dc", lead + (B, H))
    dc_next = work.take("dc_next", lead + (B, H))
    dc_next[...] = 0.0
    # the gradient on [x_t, h_t]; its hidden part is the next step's dh_next
    dxh = work.take("dxh", lead + (B, D + H))
    dh_next = dxh[..., D:]
    dh_next[...] = 0.0

    for t in range(T - 1, -1, -1):
        gate = gates[..., t, :, :]
        i, f = gate[..., :H], gate[..., H:2 * H]
        g, o = gate[..., 2 * H:3 * H], gate[..., 3 * H:]
        tc = tanh_c[..., t, :, :]

        np.add(grad_hidden[..., t, :, :], dh_next, out=dh)
        np.multiply(dh, o, out=dc)
        dc *= 1.0 - tc * tc
        dc += dc_next

        dpre[..., :H] = dc * g * i * (1.0 - i)
        dpre[..., H:2 * H] = dc * cs[..., t, :, :] * f * (1.0 - f)
        dpre[..., 2 * H:3 * H] = dc * i * (1.0 - g * g)
        dpre[..., 3 * H:] = dh * tc * o * (1.0 - o)
        np.multiply(dc, f, out=dc_next)

        np.matmul(xh[..., t, :, :].swapaxes(-1, -2), dpre, out=dw)
        grad_w += dw
        grad_b += dpre.sum(axis=-2)
        np.matmul(dpre, w_t, out=dxh)
        grad_x[..., t, :, :] = dxh[..., :D]

    return grad_x
