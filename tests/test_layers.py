import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from edenet.errors import ShapeError
from edenet.layers import (
    DenseLayer,
    DenseStack,
    LstmCell,
    Workspace,
    as_matrix,
    dense_backward,
    dense_forward,
    init_dense,
    init_lstm,
    lstm_backward,
    lstm_forward,
    sigmoid,
)
from edenet.rng import make_rng


def central_diff(fn, arr, idx, h=1e-6):
    orig = arr[idx]
    arr[idx] = orig + h
    up = fn()
    arr[idx] = orig - h
    down = fn()
    arr[idx] = orig
    return (up - down) / (2 * h)


def close(a, b, tol=1e-6):
    return abs(a - b) <= tol * max(abs(a), abs(b)) + 1e-9


# ---------------------------------------------------------------------------
# as_matrix


def test_as_matrix_accepts_2d_and_copies_dtype():
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (2, 2)


def test_as_matrix_rejects_1d():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (3, 2), (6, 4), (2, 4)])
def test_as_matrix_finds_a_nonfinite_entry_anywhere(rng, bad, at):
    x = rng.standard_normal((7, 5))
    as_matrix(x)
    x[at] = bad
    with pytest.raises(ValueError, match="train rows contains non-finite entries"):
        as_matrix(x, "train rows")


# ---------------------------------------------------------------------------
# dense layers


def test_dense_identity_is_affine(rng):
    layer = init_dense(rng, 4, 3, "identity")
    x = rng.standard_normal((6, 4))
    assert np.allclose(dense_forward(layer, x), x @ layer.weights + layer.bias)


def test_dense_tanh_matches_composition(rng):
    layer = init_dense(rng, 4, 3, "tanh")
    x = rng.standard_normal((6, 4))
    assert np.allclose(dense_forward(layer, x),
                       np.tanh(x @ layer.weights + layer.bias))


def test_dense_forward_shape_error(rng):
    layer = init_dense(rng, 4, 3)
    with pytest.raises(ShapeError):
        dense_forward(layer, rng.standard_normal((6, 5)))


def test_dense_unknown_activation_rejected(rng):
    with pytest.raises(ValueError):
        DenseLayer(np.zeros((2, 2)), np.zeros(2), "relu")


@pytest.mark.parametrize("activation", ["tanh", "identity"])
def test_dense_backward_matches_finite_differences(activation):
    rng = make_rng(7)
    layer = init_dense(rng, 5, 4, activation)
    x = rng.standard_normal((3, 5))
    r = rng.standard_normal((3, 4))  # loss = sum(out * r)

    def loss():
        return float(np.sum(dense_forward(layer, x) * r))

    out = dense_forward(layer, x)
    grads = copy.deepcopy(layer)  # receives the parameter gradients
    grad_in = dense_backward(layer, x, out, r, grads, Workspace())
    grad_w, grad_b = grads.weights, grads.bias

    for arr, grad in [(layer.weights, grad_w), (layer.bias, grad_b)]:
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            fd = central_diff(loss, arr, it.multi_index)
            assert close(fd, grad[it.multi_index])
            it.iternext()
    # input gradient on a few entries
    for idx in [(0, 0), (1, 3), (2, 4)]:
        fd = central_diff(loss, x, idx)
        assert close(fd, grad_in[idx])
    assert out.shape == (3, 4)


def test_init_dense_within_fan_in_bound(rng):
    layer = init_dense(rng, 16, 40)
    bound = 1 / np.sqrt(16)
    assert np.all(np.abs(layer.weights) <= bound)
    assert np.all(np.abs(layer.bias) <= bound)
    assert layer.weights.std() > 0


def test_dense_stack_chains_and_backward_aligns(rng):
    stack = DenseStack([init_dense(rng, 6, 5, "tanh"),
                        init_dense(rng, 5, 2, "identity")])
    x = rng.standard_normal((4, 6))
    out, cache = stack.forward(x, Workspace())
    assert out.shape == (4, 2)
    r = rng.standard_normal((4, 2))
    out_stack = copy.deepcopy(stack)  # receives the gradients
    grad_in = stack.backward(cache, r, out_stack, Workspace())
    grads = out_stack.params()
    assert grad_in.shape == x.shape
    assert len(grads) == len(stack.params()) == 4
    for g, p in zip(grads, stack.params()):
        assert g.shape == p.shape
    assert stack.param_names() == ["layer0.w", "layer0.b", "layer1.w", "layer1.b"]

    def loss():
        return float(np.sum(stack.forward(x, Workspace())[0] * r))

    fd = central_diff(loss, stack.layers[0].weights, (2, 1))
    assert close(fd, grads[0][2, 1])
    fd = central_diff(loss, stack.layers[1].bias, (0,))
    assert close(fd, grads[3][0])


def test_dense_stack_rejects_mismatched_widths(rng):
    with pytest.raises(ShapeError):
        DenseStack([init_dense(rng, 6, 5), init_dense(rng, 4, 2)])


@given(st.integers(0, 2**32 - 1))
def test_dense_tanh_output_bounded(seed):
    rng = make_rng(seed)
    layer = init_dense(rng, 3, 4, "tanh")
    x = rng.uniform(-50, 50, size=(5, 3))
    out = dense_forward(layer, x)
    assert np.all(np.abs(out) <= 1.0)


# ---------------------------------------------------------------------------
# sigmoid


def reference_exp(v: float) -> float:
    """The C library's scalar exp, with inf past the float range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Representable doubles between nonnegative a and b."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_sigmoid_is_the_expit_formula_up_to_the_gap_in_exp():
    """sigmoid is 1 / (1 + exp(-x)) through numpy's exp; the reference is
    the same formula through math.exp, which is what scipy's expit does.

    numpy's SIMD exp stays within 2 ulp of the scalar one. Rounding 1 + e
    and then the quotient can widen a gap of k ulp in e to at most 2k + 2
    ulp in the sigmoid (at x = -37.03 a 1-ulp gap in exp gives 3 ulp), so
    that is the bound checked, with k the largest gap in exp on the grid.
    """
    edges = [-800.0, -745.0, -709.8, -709.78, 0.0, 709.78, 709.8, 745.0, 800.0]
    x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), edges])
    exp_ref = np.array([reference_exp(v) for v in (-x).tolist()])
    expect = 1.0 / (1.0 + exp_ref)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        got = sigmoid(x)
    finite = exp_ref < math.inf
    with np.errstate(under="ignore"):
        exp_gap = ulp_distance(np.exp(-x[finite]), exp_ref[finite])
    assert exp_gap.max() <= 2
    assert ulp_distance(got, expect).max() <= 2 * exp_gap.max() + 2
    assert got[0] == 0.0 and got[-1] == 1.0
    assert sigmoid(np.array([-745.0, -709.8, 0.0, 745.0])).tolist() == [0.0, 0.0, 0.5, 1.0]


# ---------------------------------------------------------------------------
# lstm


def reference_lstm(cell, x_seq):
    """Step-by-step per-gate reimplementation used as an oracle, from zero
    states."""
    T, B, _ = x_seq.shape
    H = cell.hidden_dim
    h, c = np.zeros((B, H)), np.zeros((B, H))
    out = np.empty((T, B, H))
    for t in range(T):
        pre = np.concatenate([x_seq[t], h], axis=1) @ cell.weights + cell.bias
        i = expit(pre[:, 0 * H:1 * H])
        f = expit(pre[:, 1 * H:2 * H])
        g = np.tanh(pre[:, 2 * H:3 * H])
        o = expit(pre[:, 3 * H:4 * H])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def test_init_lstm_layout(rng):
    cell = init_lstm(rng, 3, 5)
    assert cell.weights.shape == (8, 20)
    assert cell.bias.shape == (20,)
    assert np.all(cell.bias[5:10] == 1.0)  # forget slice
    assert np.all(cell.bias[:5] == 0.0) and np.all(cell.bias[10:] == 0.0)
    bound = 1 / np.sqrt(8)
    assert np.all(np.abs(cell.weights) <= bound)


def test_lstm_forward_matches_reference(rng):
    cell = init_lstm(rng, 3, 5)
    x_seq = rng.standard_normal((4, 2, 3))
    hs, _ = lstm_forward(cell, x_seq, Workspace())
    assert np.allclose(hs, reference_lstm(cell, x_seq), atol=1e-12)


def test_lstm_gates_are_the_activated_preactivations_bit_for_bit(rng):
    """lstm_step parks the candidate's tanh while one sigmoid pass covers
    all four gates; the cached gates are still sigmoid, sigmoid, tanh,
    sigmoid of each pre-activation slice."""
    cell = init_lstm(rng, 3, 5)
    x_seq = rng.standard_normal((4, 6, 3))
    _, cache = lstm_forward(cell, x_seq, Workspace())
    H = cell.hidden_dim
    for t in range(4):
        pre = cache["xh"][t] @ cell.weights
        pre += cell.bias
        gate = cache["gates"][t]
        for k, act in enumerate([sigmoid, sigmoid, np.tanh, sigmoid]):
            assert np.array_equal(gate[:, k * H:(k + 1) * H],
                                  act(pre[:, k * H:(k + 1) * H]))


def test_lstm_forward_empty_sequence(rng):
    cell = init_lstm(rng, 3, 5)
    with pytest.raises(ValueError):
        lstm_forward(cell, np.zeros((0, 2, 3)), Workspace())


def test_lstm_forward_shape_errors(rng):
    cell = init_lstm(rng, 3, 5)
    with pytest.raises(ShapeError):
        lstm_forward(cell, np.zeros((4, 2, 7)), Workspace())


def test_lstm_backward_matches_finite_differences():
    rng = make_rng(21)
    cell = init_lstm(rng, 3, 4)
    x_seq = rng.standard_normal((3, 2, 3))
    r = rng.standard_normal((3, 2, 4))  # loss = sum(hs * r)

    def loss():
        hs, _ = lstm_forward(cell, x_seq, Workspace())
        return float(np.sum(hs * r))

    _, cache = lstm_forward(cell, x_seq, Workspace())
    grads = copy.deepcopy(cell)  # receives the parameter gradients
    gx = lstm_backward(cell, cache, r, Workspace(), grads)
    gw, gb = grads.weights, grads.bias

    for arr, grad in [(cell.weights, gw), (cell.bias, gb)]:
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            fd = central_diff(loss, arr, it.multi_index)
            assert close(fd, grad[it.multi_index], tol=1e-5)
            it.iternext()
    flat_idx = [tuple(np.unravel_index(k, x_seq.shape))
                for k in range(0, x_seq.size, max(1, x_seq.size // 6))]
    for idx in flat_idx:
        fd = central_diff(loss, x_seq, idx)
        assert close(fd, gx[idx], tol=1e-5)


def test_lstm_backward_rejects_foreign_cache(rng):
    cell_a = init_lstm(rng, 3, 4)
    cell_b = init_lstm(rng, 3, 5)
    _, cache = lstm_forward(cell_a, rng.standard_normal((2, 2, 3)), Workspace())
    with pytest.raises(ValueError):
        lstm_backward(cell_b, cache, np.zeros((2, 2, 5)), Workspace(), copy.deepcopy(cell_b))


@given(st.integers(0, 2**32 - 1))
def test_lstm_hidden_state_bounded(seed):
    rng = make_rng(seed)
    cell = init_lstm(rng, 2, 3)
    x_seq = rng.uniform(-20, 20, size=(5, 3, 2))
    hs, _ = lstm_forward(cell, x_seq, Workspace())
    # h = o * tanh(c) with o in (0,1): strictly inside (-1, 1)
    assert np.all(np.abs(hs) < 1.0)
