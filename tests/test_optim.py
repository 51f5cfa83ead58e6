import numpy as np
import pytest

from edenet.errors import ShapeError
from edenet.optim import AdamState, adam_step
from oracles import textbook_adam


def test_adam_first_step_is_signed_lr():
    # with zero state, m-hat = g and v-hat = g^2, so the update is
    # lr * g / (|g| + eps) which is lr * sign(g) up to eps
    p = np.ones((1, 3))
    g = np.array([[3.0, -0.01, 1e-6]])
    state = AdamState(p, lr=0.5)
    adam_step(state, p, g)
    expected = 1.0 - 0.5 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, expected, atol=1e-12)
    assert state.step.tolist() == [1]


def test_adam_minimizes_quadratic():
    # w^2 from w=1: a few hundred steps at lr 0.01 must cross |w| < 0.5
    w = np.ones((1, 1))
    state = AdamState(w, lr=0.01)
    for _ in range(200):
        adam_step(state, w, 2.0 * w)
    assert abs(w[0, 0]) < 0.5
    assert state.step.tolist() == [200]


def test_adam_state_counts_steps_and_checks_shapes():
    """A step takes leading rows of the state's block and gradients of
    their shape; anything else is refused and counts no step."""
    p = np.zeros((2, 3))
    state = AdamState(p, lr=0.1)
    for params, grads in [(p, np.zeros((2, 4))), (p[0], np.zeros(3)),
                          (np.zeros((3, 3)), np.zeros((3, 3))),
                          (np.zeros((2, 4)), np.zeros((2, 4)))]:
        with pytest.raises(ShapeError):
            adam_step(state, params, grads)
    assert state.step.tolist() == [0, 0]
    adam_step(state, p[:1], np.ones((1, 3)))
    assert state.step.tolist() == [1, 0]


def test_adam_state_starts_at_zero_for_its_block():
    p = np.ones((2, 3))
    state = AdamState(p, lr=0.1)
    assert state.lr == 0.1
    assert state.step.tolist() == [0, 0]
    for arr in (state.m, state.v, *state.scratch):
        assert arr.shape == p.shape and not np.shares_memory(arr, p)
    assert not state.m.any() and not state.v.any()


def test_adam_deterministic_across_runs():
    def run():
        w = np.array([[0.3, -0.7]])
        state = AdamState(w, lr=0.05)
        for k in range(50):
            adam_step(state, w, np.sin(w) + k * 0.01)
        return w

    assert np.array_equal(run(), run())


def test_per_row_adam_matches_one_state_per_row():
    """Each row of a block steps as a (1, P) block with its own state would,
    also when a step covers only the leading rows and after the rows are
    reordered."""
    rng = np.random.default_rng(5)
    block = rng.standard_normal((3, 4))
    rows = [block[r:r + 1].copy() for r in range(3)]
    state = AdamState(block, lr=0.1)
    alone = [AdamState(row, lr=0.1) for row in rows]

    def step(n):
        g = rng.standard_normal((3, 4))
        adam_step(state, block[:n], g[:n])
        for r in range(n):
            adam_step(alone[r], rows[r], g[r:r + 1])

    for n in (3, 3, 2, 1):
        step(n)
    assert state.step.tolist() == [4, 3, 2]
    order = np.array([2, 0, 1])
    block[...] = block[order]
    state.reorder_rows(order)
    rows, alone = [rows[r] for r in order], [alone[r] for r in order]
    for n in (3, 1):
        step(n)
    assert state.step.tolist() == [4, 5, 4]
    for r in range(3):
        assert np.array_equal(block[r:r + 1], rows[r])


HYPER = {"lr": 0.03}
TEXTBOOK = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def test_adam_step_is_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((3, 5))
    state = AdamState(block, **HYPER)
    p, m, v = block.copy(), np.zeros_like(block), np.zeros_like(block)
    for step in range(1, 7):
        g = rng.standard_normal(block.shape) * 10.0 ** rng.integers(-3, 3)
        adam_step(state, block, g)
        p, m, v = textbook_adam(p, g, m, v, step, **HYPER, **TEXTBOOK)
        assert np.array_equal(block, p)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_per_row_adam_step_is_the_textbook_update_bit_for_bit():
    """Each row follows the textbook update with its own step count, also
    when a step covers only the leading rows."""
    rng = np.random.default_rng(8)
    block = rng.standard_normal((3, 6))
    state = AdamState(block, **HYPER)
    ref = [(block[r].copy(), np.zeros(6), np.zeros(6)) for r in range(3)]
    counts = [0, 0, 0]
    for n in (3, 3, 2, 1, 3, 2):
        g = rng.standard_normal((3, 6))
        adam_step(state, block[:n], g[:n])
        for r in range(n):
            counts[r] += 1
            p, m, v = ref[r]
            ref[r] = textbook_adam(p, g[r], m, v, counts[r], **HYPER, **TEXTBOOK)
        assert state.step.tolist() == counts
        for r, (p, m, v) in enumerate(ref):
            assert np.array_equal(block[r], p)
            assert np.array_equal(state.m[r], m) and np.array_equal(state.v[r], v)
