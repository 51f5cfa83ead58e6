"""Oracles that tests hold the package to, built on its public pieces."""

import numpy as np

from edenet.layers import Workspace
from edenet.model import (EdeNet, anomaly_score, encoding_loss, loss_and_grads,
                          reconstruction_loss, row_chunks, sample_coefficients)


def lone_loss_and_grads(net: EdeNet, x: np.ndarray, weights=None):
    """(combined, mean_lr, mean_le, grads) of one net on a (B, d) batch,
    weighted by sample_coefficients(B, weights): loss_and_grads on a stack
    of one. grads is aligned to net.params()."""
    out = net.bind(np.empty((1, net.flat.size)))
    # net's parameters broadcast over the member axis of length one
    combined, mean_lr, mean_le = loss_and_grads(
        net, x[None], sample_coefficients(x.shape[0], weights), Workspace(), out)
    return combined[0], mean_lr[0], mean_le[0], [g[0] for g in out.params()]


def lone_loss(net: EdeNet, x: np.ndarray, weights=None) -> float:
    """lone_loss_and_grads's combined loss alone, forward-only, for
    finite-difference checks that evaluate it many times."""
    z, x_recon, z_prime = net.infer(x, Workspace())
    coeff = sample_coefficients(x.shape[0], weights)
    return (net.spec.alpha * float(coeff @ reconstruction_loss(x, x_recon))
            + net.spec.beta * float(coeff @ encoding_loss(z, z_prime)))


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
