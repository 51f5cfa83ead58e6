"""Optimizers for the training loop: Adam (default) and plain SGD.

Both mutate the parameter arrays in place so that model objects keep
their identity through training. One state object serves one fixed list
of arrays. Training passes a one-element list, the member's flat
parameter vector (EdeNet.flat), so each step is one vectorized update;
the updates are elementwise, so stepping the per-layer arrays one by one
gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class AdamState:
    """Adam accumulators for one list of arrays, with bias correction."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> "AdamState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> None:
    """One Adam update applied in place; increments state.step by 1."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeError("params/grads do not match optimizer state")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)


@dataclass
class SgdState:
    """Bare gradient descent: p <- p - lr * grad."""

    lr: float = 1e-3


def sgd_step(state: SgdState, params: list[np.ndarray],
             grads: list[np.ndarray]) -> None:
    if len(grads) != len(params):
        raise ShapeError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        p -= state.lr * g


def make_optimizer(kind: str, params: list[np.ndarray], lr: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Build (state, step_fn) for 'adam' or 'sgd'."""
    if kind == "adam":
        return AdamState.for_params(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps), adam_step
    if kind == "sgd":
        return SgdState(lr=lr), sgd_step
    raise ValueError(f"unknown optimizer {kind!r}")
