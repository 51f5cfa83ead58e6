"""Adam, the optimizer of the training loop.

adam_step steps one (I, P) parameter block in place, row i being member
i's flat parameter vector. Each row is an independent optimizer with its
own step count, and a step may cover only the first n rows (the members
that still have a step in that round). The update is elementwise, so a
row gets the bits that stepping its member's parameter arrays one by one
would give. Its temporaries go into two scratch blocks made with the
state, so a step allocates nothing of the block's size.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ShapeError
from .forkpool import shared_zeros

# Adam's moment decays and denominator term: Kingma & Ba's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam accumulators for the (I, P) block it is made for, all zero:
    one update count per row in step, and two blocks for adam_step's
    temporaries in scratch. step, m and v live in shared memory
    (forkpool.shared_zeros), so a forked worker's steps update them in
    this process too."""

    block: InitVar[np.ndarray]
    lr: float
    step: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self, block: np.ndarray):
        self.step = shared_zeros(len(block))
        self.m, self.v = shared_zeros(block.shape), shared_zeros(block.shape)
        self.scratch = (np.empty_like(block), np.empty_like(block))

    def reorder_rows(self, order: np.ndarray) -> None:
        """Row r takes what row order[r] held."""
        for arr in (self.step, self.m, self.v):
            arr[...] = arr[order]

    def rows(self, run: slice) -> "AdamState":
        """The state of rows run of the block, every array a view of this
        state's, so a step over it updates this state."""
        sub = copy.copy(self)
        sub.step, sub.m, sub.v = self.step[run], self.m[run], self.v[run]
        sub.scratch = (self.scratch[0][run], self.scratch[1][run])
        return sub


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One Adam update applied in place to params, the first n rows of the
    block the state was made for; only those rows' counts advance by 1.

    The update is the textbook one at b1, b2, eps = BETA1, BETA2, EPS:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr * (m / bias1) / (sqrt(v / bias2) + eps), computed in that
    operation order into the state's scratch blocks.
    """
    if params.shape != grads.shape or params.shape != state.m[:len(params)].shape:
        raise ShapeError(f"{params.shape}/{grads.shape} are not leading rows of {state.m.shape}")
    b1, b2 = BETA1, BETA2
    n = len(params)
    state.step[:n] += 1
    # one Python float per row, the bits of the textbook 1 - beta ** step
    # (a whole-valued float exponent gives the bits of the int one)
    steps = state.step[:n].tolist()
    bias1 = np.array([1.0 - b1 ** s for s in steps])[:, None]
    bias2 = np.array([1.0 - b2 ** s for s in steps])[:, None]
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
    u += EPS
    t /= u
    params -= t
