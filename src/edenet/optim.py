"""Optimizers for the training loop: Adam (default) and plain SGD.

Both step one (I, P) parameter block in place, row i being member i's
flat parameter vector. Each row is an independent optimizer: Adam keeps
one step count per row, and a step may cover only the first n rows (the
members that still have a step in that round). The updates are
elementwise, so a row gets the bits that stepping its member's parameter
arrays one by one would give. Adam's temporaries go into two scratch
blocks made with the state, so a step allocates nothing of the block's
size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class AdamState:
    """Adam accumulators for one (I, P) block: one update count per row
    in step, and two blocks for adam_step's temporaries in scratch."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    step: list[int]
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]

    def reorder_rows(self, order: np.ndarray) -> None:
        """Row r takes what row order[r] held."""
        for arr in (self.m, self.v):
            arr[...] = arr[order]
        self.step = [self.step[r] for r in order]


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One Adam update applied in place to params, the first n rows of the
    block the state was made for; only those rows' counts advance by 1.

    The update is the textbook one, m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, p -= lr * (m / bias1) / (sqrt(v / bias2) + eps),
    computed in that operation order into the state's scratch blocks.
    """
    if params.shape != grads.shape or params.shape != state.m[:len(params)].shape:
        raise ShapeError(f"{params.shape}/{grads.shape} are not leading rows of {state.m.shape}")
    b1, b2 = state.beta1, state.beta2
    n = len(params)
    state.step[:n] = [s + 1 for s in state.step[:n]]
    # one Python float per row, the bits of the textbook 1 - beta ** step
    bias1 = np.array([1.0 - b1 ** s for s in state.step[:n]])[:, None]
    bias2 = np.array([1.0 - b2 ** s for s in state.step[:n]])[:, None]
    m, v, t, u = state.m[:n], state.v[:n], state.scratch[0][:n], state.scratch[1][:n]
    m *= b1
    np.multiply(grads, 1.0 - b1, out=t)
    m += t
    v *= b2
    np.multiply(grads, 1.0 - b2, out=t)
    t *= grads
    v += t
    np.divide(m, bias1, out=t)
    t *= state.lr
    np.divide(v, bias2, out=u)
    np.sqrt(u, out=u)
    u += state.eps
    t /= u
    params -= t


@dataclass
class SgdState:
    """Bare gradient descent over one (I, P) block: p <- p - lr * grad."""

    lr: float

    def reorder_rows(self, order: np.ndarray) -> None:
        """Nothing to reorder: SGD keeps no per-row state."""


def sgd_step(state: SgdState, params: np.ndarray, grads: np.ndarray) -> None:
    """One SGD update applied in place to params, leading rows of the block."""
    if params.shape != grads.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    params -= state.lr * grads


def make_optimizer(kind: str, block: np.ndarray, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8):
    """Build (state, step_fn) for 'adam' or 'sgd' over block, an (I, P)
    parameter block; each of its rows is an independent optimizer."""
    if kind == "adam":
        return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=[0] * len(block),
                         m=np.zeros_like(block), v=np.zeros_like(block),
                         scratch=(np.empty_like(block), np.empty_like(block))), adam_step
    if kind == "sgd":
        return SgdState(lr=lr), sgd_step
    raise ValueError(f"unknown optimizer {kind!r}")
