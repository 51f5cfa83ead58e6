"""Encoder-decoder-encoder base learner.

An EdeNet maps a sample x through a first encoder to a latent z, decodes
z back to a reconstruction, and re-encodes the reconstruction with a
second encoder of identical structure but independent parameters. The
training loss combines the input-space reconstruction error and the
latent-space encoding error; the encoding error alone is the anomaly
score.

Both encoder kinds are supported: a three-dense-layer stack (Tanh hidden
layers, identity output) and a stacked-LSTM variant that chops a flat
feature row into a short sequence of equal chunks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import BLOCK_ROWS
from .errors import (ConfigError, FormatError, ShapeError, check_fields, expect_numbers,
                     from_fields)
from .layers import (
    DenseLayer,
    DenseStack,
    LstmCell,
    Stack,
    Workspace,
    init_dense,
    init_lstm,
    lstm_backward,
    lstm_forward,
    lstm_infer,
)

ENCODER_KINDS = ("feedforward", "lstm")


def default_latent_dim(input_dim: int) -> int:
    return max(1, input_dim // 4)


def make_arch(input_dim: int, overrides: dict | None = None) -> "ArchSpec":
    """ArchSpec for a known feature width, with optional field overrides
    (the config's arch section); latent_dim defaults to
    default_latent_dim(input_dim). The width is the data's, so an
    override of input_dim raises ConfigError."""
    if "input_dim" in (overrides or {}):
        raise ConfigError("arch input_dim is not a config key: the width is the data's")
    return from_fields(ArchSpec, {"input_dim": input_dim,
                                  "latent_dim": default_latent_dim(input_dim),
                                  **(overrides or {})}, "arch")


@dataclass(frozen=True)
class ArchSpec:
    """Architecture descriptor shared by all members of an ensemble.

    hidden_sizes gives the two hidden widths of each feedforward stack;
    together with the stack output that makes three fully connected layers
    per encoder/decoder. The LSTM fields describe the recurrent variant:
    a d-feature row becomes seq_len timesteps of ceil(d/seq_len) features
    (zero-padded at the tail).
    """

    input_dim: int
    latent_dim: int
    encoder_kind: str = "feedforward"
    hidden_sizes: tuple[int, int] = (64, 32)
    recurrent_layers: int = 1
    hidden_dim: int = 32
    seq_len: int = 1
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        check_fields(self, "arch")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not 1 <= self.latent_dim <= self.input_dim:
            raise ValueError(
                f"latent_dim must lie in [1, input_dim], got {self.latent_dim}"
            )
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder_kind {self.encoder_kind!r}")
        if len(self.hidden_sizes) != 2 or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must be two positive widths")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.alpha + self.beta <= 0:
            raise ValueError("alpha + beta must be positive")
        if self.encoder_kind == "lstm":
            if self.recurrent_layers < 1 or self.hidden_dim < 1 or self.seq_len < 1:
                raise ValueError("lstm fields must be >= 1")

    @property
    def chunk_size(self) -> int:
        return math.ceil(self.input_dim / self.seq_len)

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_sizes": list(self.hidden_sizes)}


# ---------------------------------------------------------------------------
# LSTM encoder/decoder assembly


def _row_to_sequence(x: np.ndarray, seq_len: int, chunk: int, work: Workspace) -> np.ndarray:
    """(..., B, d) -> (..., T, B, chunk), zero-padding the tail chunk: a
    view of work's buffer "pad"."""
    *lead, B, d = x.shape
    padded = work.take("pad", (*lead, B, seq_len * chunk))
    padded[..., :d] = x
    padded[..., d:] = 0.0
    return padded.reshape(*lead, B, seq_len, chunk).swapaxes(-2, -3)


def _sequence_to_row(seq: np.ndarray, d: int) -> np.ndarray:
    """(..., T, B, chunk) -> (..., B, d), dropping pad columns."""
    *lead, T, B, chunk = seq.shape
    return seq.swapaxes(-2, -3).reshape(*lead, B, T * chunk)[..., :d]


def _cells_forward(cells: list[LstmCell], seq: np.ndarray, work: Workspace):
    """Run the stacked cells over a (..., T, B, *) sequence, each from
    zero states. Returns the top cell's hidden states and one cache per
    cell; cell k writes into work's scope k."""
    caches = []
    for k, cell in enumerate(cells):
        seq, cache = lstm_forward(cell, seq, work.scope(k))
        caches.append(cache)
    return seq, caches


def _cells_infer(cells: list[LstmCell], seq: np.ndarray, work: Workspace) -> np.ndarray:
    """_cells_forward's top hidden states, keeping no cache. Cell k writes
    into work's scope k, which every stack's cell k reuses."""
    for k, cell in enumerate(cells):
        seq = lstm_infer(cell, seq, work.scope(k))
    return seq


def _cells_backward(cells: list[LstmCell], caches: list[dict], dh: np.ndarray,
                    out: list[LstmCell], work: Workspace) -> np.ndarray:
    """Backprop the gradient on the top cell's hidden states down the
    stack, writing cell k's gradients into out[k]. Returns the gradient on
    the input sequence. Cell k's temporaries go into work's scope k % 2:
    the cell below reads cell k's input gradient while it writes its own
    into the other scope."""
    for k in range(len(cells) - 1, -1, -1):
        dh = lstm_backward(cells[k], caches[k], dh, work.scope(k % 2), out[k])
    return dh


class LstmEncoder(Stack):
    """Stacked LSTM over the chunk sequence; latent is a linear map of the
    final hidden state of the top layer."""

    def __init__(self, cells: list[LstmCell], proj: DenseLayer,
                 input_dim: int, seq_len: int):
        self.cells = cells
        self.proj = proj  # identity activation, hidden_dim -> latent_dim
        self.input_dim = input_dim
        self.seq_len = seq_len
        self.chunk = cells[0].input_dim

    def forward(self, x: np.ndarray, work: Workspace):
        """(latent, cache); the cache holds views of work, whose buffers
        must stay untouched until backward has run."""
        seq = _row_to_sequence(x, self.seq_len, self.chunk, work)
        hidden, caches = _cells_forward(self.cells, seq, work)
        top_last = hidden[..., -1, :, :]
        return self._project(top_last), {"cell_caches": caches, "top_last": top_last}

    def infer(self, x: np.ndarray, work: Workspace) -> np.ndarray:
        """forward's latent alone, a fresh array."""
        seq = _row_to_sequence(x, self.seq_len, self.chunk, work)
        return self._project(_cells_infer(self.cells, seq, work)[..., -1, :, :])

    def _project(self, top_last: np.ndarray) -> np.ndarray:
        return top_last @ self.proj.weights + self.proj.bias[..., None, :]

    def backward(self, cache: dict, grad_out: np.ndarray, out: "LstmEncoder",
                 work: Workspace, input_grad: bool = True):
        """Writes the gradients into out, a stack of the same layout, and
        returns the gradient on the input, or None with input_grad false.
        The temporaries go into work, which must not hold the cache."""
        np.matmul(cache["top_last"].swapaxes(-1, -2), grad_out, out=out.proj.weights)
        np.sum(grad_out, axis=-2, out=out.proj.bias)
        *lead, B, _ = grad_out.shape
        dh = work.take("dh", (*lead, self.seq_len, B, self.cells[-1].hidden_dim))
        dh[..., :-1, :, :] = 0.0
        np.matmul(grad_out, self.proj.weights.swapaxes(-1, -2), out=dh[..., -1, :, :])
        dx_seq = _cells_backward(self.cells, cache["cell_caches"], dh, out.cells, work)
        return _sequence_to_row(dx_seq, self.input_dim) if input_grad else None

    def named_units(self) -> list[tuple[str, object]]:
        return [*((f"cell{k}", c) for k, c in enumerate(self.cells)), ("proj", self.proj)]


class LstmDecoder(Stack):
    """Feeds the latent vector as input at every timestep and linearly
    projects each hidden state back to one feature chunk."""

    def __init__(self, cells: list[LstmCell], out: DenseLayer,
                 output_dim: int, seq_len: int):
        self.cells = cells
        self.out = out  # identity activation, hidden_dim -> chunk
        self.output_dim = output_dim
        self.seq_len = seq_len
        self.chunk = out.out_dim

    def forward(self, z: np.ndarray, work: Workspace):
        """(reconstruction, cache); the cache holds views of work, whose
        buffers must stay untouched until backward has run."""
        hidden, caches = _cells_forward(self.cells, self._sequence(z), work)
        return self._unchunk(hidden), {"cell_caches": caches, "top_hidden": hidden}

    def infer(self, z: np.ndarray, work: Workspace) -> np.ndarray:
        """forward's reconstruction alone, a fresh array."""
        return self._unchunk(_cells_infer(self.cells, self._sequence(z), work))

    def _sequence(self, z: np.ndarray) -> np.ndarray:
        return np.repeat(z[..., None, :, :], self.seq_len, axis=-3)

    def _unchunk(self, hidden: np.ndarray) -> np.ndarray:
        # (..., T, B, chunk): one product per step, and per member
        chunks = hidden @ self.out.weights[..., None, :, :] + self.out.bias[..., None, None, :]
        return _sequence_to_row(chunks, self.output_dim)

    def backward(self, cache: dict, grad_out: np.ndarray, out: "LstmDecoder",
                 work: Workspace):
        """Writes the gradients into out, a stack of the same layout, and
        returns the gradient on the input. The temporaries go into work,
        which must not hold the cache."""
        dchunks = _row_to_sequence(grad_out, self.seq_len, self.chunk, work)
        hidden = cache["top_hidden"]
        # one einsum per member: einsum over a member axis sums in another order
        for m in np.ndindex(hidden.shape[:-3]):
            out.out.weights[m] = np.einsum("tbh,tbk->hk", hidden[m], dchunks[m])
            out.out.bias[m] = dchunks[m].sum(axis=(0, 1))
        dh = np.matmul(dchunks, self.out.weights[..., None, :, :].swapaxes(-1, -2),
                       out=work.take("dh", hidden.shape))
        dz_seq = _cells_backward(self.cells, cache["cell_caches"], dh, out.cells, work)
        return dz_seq.sum(axis=-3)  # same latent fed at every step

    def named_units(self) -> list[tuple[str, object]]:
        return [*((f"cell{k}", c) for k, c in enumerate(self.cells)), ("out", self.out)]


# ---------------------------------------------------------------------------
# the EDE net


def _dense_stack(rng: np.random.Generator, widths: list[int]) -> DenseStack:
    """Tanh layers between consecutive widths, the last one identity."""
    last = len(widths) - 2
    return DenseStack([init_dense(rng, a, b, "identity" if k == last else "tanh")
                       for k, (a, b) in enumerate(zip(widths, widths[1:]))])


def _lstm_cells(rng: np.random.Generator, spec: ArchSpec, input_dim: int) -> list[LstmCell]:
    """spec.recurrent_layers stacked cells; the first reads input_dim."""
    return [init_lstm(rng, input_dim if k == 0 else spec.hidden_dim, spec.hidden_dim)
            for k in range(spec.recurrent_layers)]


def _build_encoder(spec: ArchSpec, rng: np.random.Generator):
    if spec.encoder_kind == "feedforward":
        h1, h2 = spec.hidden_sizes
        return _dense_stack(rng, [spec.input_dim, h1, h2, spec.latent_dim])
    cells = _lstm_cells(rng, spec, spec.chunk_size)
    proj = init_dense(rng, spec.hidden_dim, spec.latent_dim, "identity")
    return LstmEncoder(cells, proj, spec.input_dim, spec.seq_len)


def _build_decoder(spec: ArchSpec, rng: np.random.Generator):
    if spec.encoder_kind == "feedforward":
        h1, h2 = spec.hidden_sizes
        return _dense_stack(rng, [spec.latent_dim, h2, h1, spec.input_dim])
    cells = _lstm_cells(rng, spec, spec.latent_dim)
    out = init_dense(rng, spec.hidden_dim, spec.chunk_size, "identity")
    return LstmDecoder(cells, out, spec.input_dim, spec.seq_len)


def _point_at(units: list, flat: np.ndarray) -> None:
    """Rebind each unit's (weights, bias) to a view of flat of the same
    shape: consecutive slices of flat's last axis, in params() order. Any
    leading axes of flat lead every view too."""
    lead, offset = flat.shape[:-1], 0
    for unit in units:
        for attr in ("weights", "bias"):
            arr = getattr(unit, attr)
            view = flat[..., offset:offset + arr.size].reshape(lead + arr.shape)
            setattr(unit, attr, view)
            offset += arr.size


class EdeNet(Stack):
    """One encoder-decoder-encoder learner.

    The second encoder shares the first encoder's structure but never its
    parameter arrays. All parameters live in one contiguous float64 vector,
    flat: every array params() returns is a view into it, laid out in
    params() order, so an optimizer can update the whole net in one pass.
    Parameter names carry the part's prefix: e1.*, dec.*, e2.*.

    bind() lays the same structure over another buffer. Over an (I, P)
    block it makes a member stack: I nets that run as one, with row i of
    the block as member i's flat vector.
    """

    def __init__(self, spec: ArchSpec, e1, dec, e2):
        self.spec = spec
        self.e1 = e1
        self.dec = dec
        self.e2 = e2
        for a, b in zip(self.e1.params(), self.e2.params()):
            if a is b:
                raise ValueError("e1 and e2 must not alias parameters")
        self.flat = np.concatenate([p.ravel() for p in self.params()])
        _point_at(self.units(), self.flat)

    def __deepcopy__(self, memo):
        # the default deepcopy would copy each view into an array of its
        # own, leaving flat and params() apart; rebuilding rebinds them
        new = EdeNet(self.spec, copy.deepcopy(self.e1, memo),
                     copy.deepcopy(self.dec, memo), copy.deepcopy(self.e2, memo))
        memo[id(self)] = new
        return new

    def bind(self, flat: np.ndarray) -> "EdeNet":
        """A copy of this net whose parameters are views of flat.

        flat is (P,) for one net or (I, P) for a member stack. Values are
        not copied: the result reads and writes flat.
        """
        new = copy.deepcopy(self)
        _point_at(new.units(), flat)
        new.flat = flat
        return new

    @classmethod
    def initialize(cls, spec: ArchSpec, rng: np.random.Generator) -> "EdeNet":
        return cls(spec, _build_encoder(spec, rng), _build_decoder(spec, rng),
                   _build_encoder(spec, rng))

    def named_units(self) -> list[tuple[str, object]]:
        return [(f"{part}.{prefix}", unit)
                for part, stack in (("e1", self.e1), ("dec", self.dec), ("e2", self.e2))
                for prefix, unit in stack.named_units()]

    def infer(self, x: np.ndarray, work: Workspace):
        """(z, x_recon, z_prime) for a (B, input_dim) batch, unchecked and
        forward-only: no stack keeps a cache for a backward pass. Each
        stack's infer gives its forward's output bit for bit, as a fresh
        array; the stacks run one after another, so they share work's
        buffers: the scope that holds the first encoder's cache in
        _forward_cached, so scoring between training rounds reuses those
        pages."""
        work = work.scope("e1")
        z = self.e1.infer(x, work)
        x_recon = self.dec.infer(z, work)
        return z, x_recon, self.e2.infer(x_recon, work)

    def _forward_cached(self, x: np.ndarray, work: Workspace):
        """(z, x_recon, z_prime, caches) through e1, dec, e2, with each
        stack's cache for _backward. Each stack writes its activations
        into its own scope of work, since all three caches are live until
        _backward ends; the outputs are views of work."""
        outputs, caches = [], []
        for part, stack in (("e1", self.e1), ("dec", self.dec), ("e2", self.e2)):
            x, cache = stack.forward(x, work.scope(part))
            outputs.append(x)
            caches.append(cache)
        return (*outputs, caches)

    def _backward(self, caches, grad_z_direct, grad_xr_direct, grad_zp, out: "EdeNet",
                  work: Workspace):
        """Chain rule over the full composition, writing the gradients
        into out, a net of the same layout bound to the gradient buffer.

        The second encoder only ever sees grad_zp; the decoder and first
        encoder accumulate both the reconstruction-path and the
        encoding-path contributions. The stacks run one after another, and
        each input gradient is added into a fresh array before the next
        stack runs, so they share one scope of work for their temporaries,
        apart from the forward caches. Nothing reads the first encoder's
        input gradient, so it is not computed.
        """
        c1, cd, c2 = caches
        work = work.scope("backward")
        grad_xr_from_e2 = self.e2.backward(c2, grad_zp, out.e2, work)
        grad_z_from_dec = self.dec.backward(cd, grad_xr_from_e2 + grad_xr_direct, out.dec, work)
        self.e1.backward(c1, grad_z_from_dec + grad_z_direct, out.e1, work, input_grad=False)


# ---------------------------------------------------------------------------
# losses and scores


def reconstruction_loss(x: np.ndarray, x_recon: np.ndarray) -> np.ndarray:
    """Per-sample Euclidean distance between input and reconstruction."""
    if x.shape != x_recon.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {x_recon.shape}")
    return np.linalg.norm(x - x_recon, axis=-1)


def encoding_loss(z: np.ndarray, z_prime: np.ndarray) -> np.ndarray:
    """Per-sample Euclidean distance between the two latent encodings."""
    if z.shape != z_prime.shape:
        raise ShapeError(f"shape mismatch {z.shape} vs {z_prime.shape}")
    return np.linalg.norm(z - z_prime, axis=-1)


def loss_and_grads(nets: EdeNet, x: np.ndarray, work: Workspace, out: EdeNet):
    """The combined loss alpha*L_r + beta*L_e of I members at once, with
    its gradients w.r.t. every member's parameters.

    nets is a member stack (EdeNet.bind over an (I, P) block), or one net
    when I=1, and x holds one (B, d) batch per member, (I, B, d). Returns
    (combined, mean_lr, mean_le) as lists of I floats: each member's batch
    means, taken as dot products with a vector of 1/B, and combined ==
    alpha*mean_lr + beta*mean_le always. out is a stack bound to an (I, P)
    gradient buffer and receives each member's gradients in its row; the
    Euclidean norm's gradient is taken as 0 at exactly-zero error. Every
    member's numbers are bit-identical to a run on that member alone.
    Every stack writes its caches and temporaries into work; a training
    loop passes the same one to every call, so each round reuses the pages
    of the last.
    """
    alpha, beta = nets.spec.alpha, nets.spec.beta
    coeff = np.full(x.shape[-2], 1.0 / x.shape[-2])
    z, x_recon, z_prime, caches = nets._forward_cached(x, work)
    lr = reconstruction_loss(x, x_recon)
    le = encoding_loss(z, z_prime)
    # one dot product per member, as a lone net sums them
    mean_lr = [float(coeff @ row) for row in lr]
    mean_le = [float(coeff @ row) for row in le]
    combined = [alpha * a + beta * b for a, b in zip(mean_lr, mean_le)]

    with np.errstate(invalid="ignore", divide="ignore"):
        unit_r = np.where(lr[..., None] > 0, (x_recon - x) / lr[..., None], 0.0)
        unit_e = np.where(le[..., None] > 0, (z_prime - z) / le[..., None], 0.0)
    grad_xr_direct = alpha * coeff[:, None] * unit_r
    grad_zp = beta * coeff[:, None] * unit_e
    grad_z_direct = -grad_zp

    nets._backward(caches, grad_z_direct, grad_xr_direct, grad_zp, out, work)
    return combined, mean_lr, mean_le


def row_chunks(n_rows: int) -> list[slice]:
    """Consecutive BLOCK_ROWS-row slices covering n_rows rows."""
    return [slice(lo, lo + BLOCK_ROWS) for lo in range(0, n_rows, BLOCK_ROWS)]


def anomaly_score(net: EdeNet, x: np.ndarray, work: Workspace) -> np.ndarray:
    """One net's latent-gap score per row of one block x, (B, input_dim),
    unchecked: encoding_loss on infer's outputs, whose LSTM layers write
    into work. ensemble.ensemble_score checks its input once, then calls
    this for each member on each block of model.row_chunks rows, so a
    row's score can differ in the last bits from a whole-matrix
    forward's."""
    z, _, z_prime = net.infer(x, work)
    return encoding_loss(z, z_prime)


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Min-max map onto [0, 1]; an all-equal vector maps to all zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw scores must be a nonempty 1-D array")
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# the member payload reader behind modelfile.load_model


def net_from_payload(spec: ArchSpec, payload: dict) -> EdeNet:
    net = EdeNet.initialize(spec, np.random.default_rng(0))
    names = net.param_names()
    if set(payload) != set(names):
        missing = set(names) - set(payload)
        extra = set(payload) - set(names)
        raise FormatError(f"parameter names mismatch (missing={sorted(missing)}, "
                          f"unexpected={sorted(extra)})")
    for name, param in zip(names, net.params()):
        arr = expect_numbers(f"parameter {name}", payload[name], FormatError)
        if arr.shape != param.shape:
            raise FormatError(
                f"parameter {name} has shape {arr.shape}, expected {param.shape}"
            )
        param[...] = arr
    return net
