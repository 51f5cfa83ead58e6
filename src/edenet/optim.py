"""Optimizers for the training loop: Adam (default) and plain SGD.

Both mutate the parameter arrays in place so that model objects keep
their identity through training. One state object serves one fixed list
of arrays. The updates are elementwise, so stepping the per-layer arrays
one by one, one flat vector, or a block of them gives the same bits.

Ensemble training passes one (I, P) block whose row i is member i's flat
parameter vector, with a state made by make_optimizer(..., per_row=True).
Each row is then an independent optimizer: Adam keeps one step count per
row, and a step may cover only the first n rows (the members that still
have a step in that round).

Adam's temporaries go into two scratch arrays per parameter array, made
with the state, so a step allocates nothing of the parameters' size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class AdamState:
    """Adam accumulators for one list of arrays, with bias correction.

    step is one update count for the whole list, or, for a per-row state,
    a list holding one count per leading row of the 2-D arrays. scratch
    holds two arrays shaped like each parameter array, for adam_step's
    temporaries.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int | list[int] = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8, per_row: bool = False) -> "AdamState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                   step=[0] * len(params[0]) if per_row else 0,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   scratch=[(np.empty_like(p), np.empty_like(p)) for p in params])

    def reorder_rows(self, order: np.ndarray) -> None:
        """Per-row state: row r takes what row order[r] held."""
        for arr in (*self.m, *self.v):
            arr[...] = arr[order]
        self.step = [self.step[r] for r in order]


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> None:
    """One Adam update applied in place; increments the step count by 1.

    With a per-row state, params may be the first n rows of the arrays the
    state was made for; only those rows and their counts advance.

    The update is the textbook one, m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, p -= lr * (m / bias1) / (sqrt(v / bias2) + eps),
    computed in that operation order into the state's scratch arrays.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.scratch):
        raise ShapeError("params/grads do not match optimizer state")
    b1, b2 = state.beta1, state.beta2
    if isinstance(state.step, list):
        n = len(params[0])
        state.step[:n] = [s + 1 for s in state.step[:n]]
        # a Python float per row: the bits a lone member's scalar step uses
        bias1 = np.array([1.0 - b1 ** s for s in state.step[:n]])[:, None]
        bias2 = np.array([1.0 - b2 ** s for s in state.step[:n]])[:, None]
        rows = slice(n)
    else:
        state.step += 1
        bias1 = 1.0 - b1 ** state.step
        bias2 = 1.0 - b2 ** state.step
        rows = slice(None)
    for p, g, m, v, (t, u) in zip(params, grads, state.m, state.v, state.scratch):
        m, v, t, u = m[rows], v[rows], t[rows], u[rows]
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= b1
        np.multiply(g, 1.0 - b1, out=t)
        m += t
        v *= b2
        np.multiply(g, 1.0 - b2, out=t)
        t *= g
        v += t
        np.divide(m, bias1, out=t)
        t *= state.lr
        np.divide(v, bias2, out=u)
        np.sqrt(u, out=u)
        u += state.eps
        t /= u
        p -= t


@dataclass
class SgdState:
    """Bare gradient descent: p <- p - lr * grad."""

    lr: float = 1e-3

    def reorder_rows(self, order: np.ndarray) -> None:
        """Nothing to reorder: SGD keeps no per-row state."""


def sgd_step(state: SgdState, params: list[np.ndarray],
             grads: list[np.ndarray]) -> None:
    if len(grads) != len(params):
        raise ShapeError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        p -= state.lr * g


def make_optimizer(kind: str, params: list[np.ndarray], lr: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                   per_row: bool = False):
    """Build (state, step_fn) for 'adam' or 'sgd'. per_row makes each
    leading row of the (2-D) arrays an independent optimizer."""
    if kind == "adam":
        return AdamState.for_params(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                                    per_row=per_row), adam_step
    if kind == "sgd":
        return SgdState(lr=lr), sgd_step
    raise ValueError(f"unknown optimizer {kind!r}")
