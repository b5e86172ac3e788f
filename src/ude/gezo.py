"""Greedy zeroth-order learning of the universal edit for forward-only
oracles. Each local iteration samples C scaled Gaussian perturbations, tries
each in both directions on a fresh mini-batch (all 2C candidates in one
oracle call of 2C logical queries), greedily keeps the candidate
beating the epoch-best objective, folds it into a momentum velocity, and
decays the step size when nothing improves.

Three plain functions: learn_ude_gezo runs one gezo_epoch per epoch;
gezo_epoch checks the labels, then runs the local iterations, each one
greedy_gradient call, which draws its batch, perturbations and candidates
as plain numpy arrays and scores them with editing.edit_objective_batch.
Every draw keeps its order: the permutation, then the C normals, once per
local iteration, and every edit, trace and draw has the bytes of a loop
that allocates each of its arrays per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .editing import EditArtifact, edit_objective_batch
from .models import LinearHead
from .numerics import (check_counts, check_epoch_finite, check_labels, check_penalty,
                       is_real, l2_norm)
from .prng import derive_seed


@dataclass
class GezoConfig:
    local_iters: int = 10  # R
    init_step: float = 0.01
    decay: float = 0.95
    momentum: float = 0.9
    samples: int = 8  # C, perturbations tried per local iteration
    batch_size: int = 64
    lam: float = 0.01
    epochs: int = 50

    def __post_init__(self):
        check_counts(local_iters=self.local_iters, samples=self.samples,
                     epochs=self.epochs, batch_size=self.batch_size)
        check_penalty(self.lam)
        if not (is_real(self.init_step) and 0 < self.init_step < math.inf):
            raise ValueError(f"init_step must be finite and > 0, got {self.init_step!r}")
        if not (is_real(self.decay) and 0 < self.decay < 1):
            raise ValueError(f"decay must be in (0, 1), got {self.decay!r}")
        if not (is_real(self.momentum) and 0 <= self.momentum < 1):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")


def greedy_gradient(oracle, sa_head: LinearHead, images: np.ndarray, labels: np.ndarray,
                    cfg: GezoConfig, rng: np.random.Generator, eps: np.ndarray,
                    step: float, best_loss: float):
    """Try C scaled perturbations of the float32 edit `eps` in both
    directions on a fresh batch of `images` and their checked `labels`;
    return (best perturbation or None, updated best loss).

    The batch is the rows of a rng.permutation prefix; the C draws, one
    standard_normal, are one float32 array d scaled by the step, and the
    2C candidates eps + np.stack((-d, d), axis=1), -delta_1, +delta_1,
    -delta_2, ..., are scored by one edit_objective_batch call, through
    this module's global, which makes one oracle call of 2C logical
    queries: over the socket, one batch plus the 2C edits, 81,937 bytes at
    the default config where the 2C*B edited rows would take 1,048,589.
    Strict `<` in that order, so on ties the first wins. The perturbation
    returned is a row of this call's own array.
    """
    idx = rng.permutation(len(images))[:cfg.batch_size]
    d = rng.standard_normal((cfg.samples, images.shape[1])).astype(np.float32)
    np.multiply(d, np.float32(step), d)
    signed = np.stack((-d, d), axis=1).reshape(2 * cfg.samples, -1)
    losses = edit_objective_batch(oracle, sa_head, images[idx], labels[idx],
                                  eps + signed, cfg.lam)
    d_best = None
    # one loss stands for every candidate when a stubbed objective returns a
    # float (acceptance criterion 07 stubs it with math.inf)
    for i, loss in enumerate(np.broadcast_to(losses, len(signed)).tolist()):
        if loss < best_loss:
            best_loss, d_best = loss, signed[i]
    return d_best, best_loss


def gezo_epoch(oracle, sa_head: LinearHead, images: np.ndarray,
               sa_labels: np.ndarray, eps_epoch: np.ndarray, cfg: GezoConfig,
               rng: np.random.Generator, trace: list | None = None) -> np.ndarray:
    """One pass of cfg.local_iters local iterations from `eps_epoch`, each
    a call of greedy_gradient through this module's global; velocity, step
    size and best loss start fresh. The labels are checked, one per image,
    before the first query (numerics.check_labels: TypeError, ValueError,
    also for no images, or IndexError). The velocity and the edit are
    updated in place in arrays of this call, so the edit returned shares
    memory with none of the arguments."""
    labels = check_labels(sa_labels, len(images))
    eps = eps_epoch.astype(np.float32)
    velocity = np.zeros_like(eps)
    momentum = np.float32(cfg.momentum)
    step, best_loss = cfg.init_step, math.inf
    for r in range(1, cfg.local_iters + 1):
        d_best, best_loss = greedy_gradient(oracle, sa_head, images, labels, cfg, rng,
                                            eps, step, best_loss)
        improved = d_best is not None
        if improved:
            np.multiply(momentum, velocity, velocity)
            np.add(velocity, d_best, velocity)
            np.add(eps, velocity, eps)
        else:
            step = cfg.decay * step
        if trace is not None:
            trace.append({"iteration": r, "improved": improved,
                          "best_loss": best_loss, "step": step})
    return eps


def learn_ude_gezo(oracle, sa_head: LinearHead, images: np.ndarray,
                   sa_labels: np.ndarray, cfg: GezoConfig, seed: int) -> EditArtifact:
    """Run cfg.epochs gezo_epoch calls, threading the edit through; batches
    and perturbations are drawn from one generator seeded from `seed`. Only
    forward oracle calls are ever issued."""
    eps = np.zeros(images.shape[1], dtype=np.float32)
    rng = np.random.default_rng(derive_seed(seed, 0x6E20))
    loss_trace, norm_trace, iteration_trace = [], [], []
    for epoch in range(cfg.epochs):
        epoch_trace: list[dict] = []
        eps = gezo_epoch(oracle, sa_head, images, sa_labels, eps, cfg, rng, epoch_trace)
        for rec in epoch_trace:
            rec["epoch"] = epoch
        iteration_trace.extend(epoch_trace)
        loss_trace.append(epoch_trace[-1]["best_loss"])
        norm_trace.append(l2_norm(eps))
        check_epoch_finite("gezo edit learning", epoch, cfg.epochs, loss_trace[-1], eps)
    return EditArtifact(eps=eps, loss_trace=loss_trace, eps_norm_trace=norm_trace,
                        config=vars(cfg).copy(), seed=seed, mode="gezo",
                        iteration_trace=iteration_trace)
