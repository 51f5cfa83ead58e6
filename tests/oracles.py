"""Oracles that tests hold the package to, built on its public pieces."""

import numpy as np

from edenet.layers import Workspace
from edenet.model import (EdeNet, anomaly_score, encoding_loss, loss_and_grads,
                          reconstruction_loss, row_chunks)


def lone_loss_and_grads(net: EdeNet, x: np.ndarray):
    """(combined, mean_lr, mean_le, grads) of one net on a (B, d) batch:
    loss_and_grads on a stack of one. grads is aligned to net.params()."""
    out = net.bind(np.empty((1, net.flat.size)))
    # net's parameters broadcast over the member axis of length one
    combined, mean_lr, mean_le = loss_and_grads(net, x[None], Workspace(), out)
    return combined[0], mean_lr[0], mean_le[0], [g[0] for g in out.params()]


def lone_loss(net: EdeNet, x: np.ndarray) -> float:
    """lone_loss_and_grads's combined loss alone, forward-only, for
    finite-difference checks that evaluate it many times."""
    z, x_recon, z_prime = net.infer(x, Workspace())
    coeff = np.full(x.shape[0], 1.0 / x.shape[0])
    return (net.spec.alpha * float(coeff @ reconstruction_loss(x, x_recon))
            + net.spec.beta * float(coeff @ encoding_loss(z, z_prime)))


def textbook_adam(p, g, m, v, step, lr, beta1, beta2, eps):
    """One Adam update as the paper writes it, each term a fresh array:
    returns (p, m, v) after step number step."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def textbook_optimizer(cfg, params: list[np.ndarray]):
    """A step(grads) that updates one member's params, array by array, as
    Adam is written on paper: textbook_adam at cfg's settings with one step
    count. It shares no code with edenet.optim."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    count = 0

    def step(grads: list[np.ndarray]) -> None:
        nonlocal count
        count += 1
        for k, (p, g) in enumerate(zip(params, grads)):
            p[...], m[k], v[k] = textbook_adam(p, g, m[k], v[k], count, cfg.lr,
                                               cfg.beta1, cfg.beta2, cfg.eps)

    return step


def block_scores(net: EdeNet, x: np.ndarray) -> np.ndarray:
    """One net's anomaly_score of every row of x, block by block as
    ensemble_score splits the rows, all blocks on one fresh workspace."""
    work, scores = Workspace(), np.empty(x.shape[0])
    for rows in row_chunks(x.shape[0]):
        scores[rows] = anomaly_score(net, x[rows], work)
    return scores


def net_payload(net: EdeNet) -> dict:
    """A member's parameters as the model file writes them, by name."""
    return {name: p.tolist() for name, p in zip(net.param_names(), net.params())}
