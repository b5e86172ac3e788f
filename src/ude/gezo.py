"""Greedy zeroth-order learning of the universal edit for forward-only
oracles. Each local iteration samples C scaled Gaussian perturbations, tries
each in both directions on a fresh mini-batch (all 2C candidates in one
oracle call of 2C logical queries), greedily keeps the candidate
beating the epoch-best objective, folds it into a momentum velocity, and
decays the step size when nothing improves.

One GreedySearch per learn_ude_gezo run checks the labels once; each local
iteration draws its batch, perturbations and candidates as plain numpy
arrays and scores them with editing.edit_objective_batch.
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


class GreedySearch:
    """GeZO's local iterations over `images` for one oracle, head, config
    and generator. The labels are checked once, one per image, before any
    oracle call (numerics.check_labels: TypeError, ValueError, also for no
    images, or IndexError)."""

    def __init__(self, oracle, sa_head: LinearHead, images: np.ndarray,
                 sa_labels: np.ndarray, cfg: GezoConfig, rng: np.random.Generator):
        self.oracle, self.images, self.cfg, self.rng = oracle, images, cfg, rng
        self.head, self.labels = sa_head, check_labels(sa_labels, len(images))

    def epoch(self, eps_epoch: np.ndarray, trace: list | None = None) -> np.ndarray:
        """One pass of local iterations from `eps_epoch`, each a call of
        greedy_gradient through this module's global; velocity, step size and
        best loss start fresh. The velocity and the edit are updated in place
        in arrays of this call, so the edit returned shares memory with no
        array of the search."""
        cfg = self.cfg
        eps = eps_epoch.astype(np.float32)
        velocity = np.zeros_like(eps)
        momentum = np.float32(cfg.momentum)
        step, best_loss = cfg.init_step, math.inf
        for r in range(1, cfg.local_iters + 1):
            d_best, best_loss = greedy_gradient(self, eps, step, best_loss)
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


def greedy_gradient(search: GreedySearch, eps: np.ndarray, step: float,
                    best_loss: float):
    """Try C scaled perturbations of the float32 edit `eps` in both
    directions on a fresh batch of the search's images; return (best
    perturbation or None, updated best loss).

    The batch is the rows of a rng.permutation prefix; the C draws, one
    standard_normal, are cast to float32, scaled by the step and negated.
    The candidates -delta_1, +delta_1, -delta_2, ... are scored by one
    edit_objective_batch call, through this module's global, which makes
    one oracle call of 2C logical queries; strict `<` in that order, so on
    ties the first wins. The perturbation returned is a row of this call's
    own array.
    """
    s, samples, dim = search, search.cfg.samples, search.images.shape[1]
    idx = s.rng.permutation(len(s.images))[:s.cfg.batch_size]
    signed = np.empty((samples, 2, dim), np.float32)
    positive = signed[:, 1]
    positive[...] = s.rng.standard_normal((samples, dim))
    np.multiply(positive, np.float32(step), positive)
    np.negative(positive, signed[:, 0])
    signed = signed.reshape(2 * samples, dim)
    losses = edit_objective_batch(s.oracle, s.head, s.images[idx], s.labels[idx],
                                  eps + signed, s.cfg.lam)
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
    """One GreedySearch epoch from `eps_epoch`, on a search of this call."""
    return GreedySearch(oracle, sa_head, images, sa_labels, cfg, rng).epoch(eps_epoch, trace)


def learn_ude_gezo(oracle, sa_head: LinearHead, images: np.ndarray,
                   sa_labels: np.ndarray, cfg: GezoConfig, seed: int) -> EditArtifact:
    """Run cfg.epochs epochs of one GreedySearch, threading the edit
    through; batches and perturbations are drawn from `seed`. Only forward
    oracle calls are ever issued."""
    eps = np.zeros(images.shape[1], dtype=np.float32)
    rng = np.random.default_rng(derive_seed(seed, 0x6E20))
    search = GreedySearch(oracle, sa_head, images, sa_labels, cfg, rng)
    loss_trace, norm_trace, iteration_trace = [], [], []
    for epoch in range(cfg.epochs):
        epoch_trace: list[dict] = []
        eps = search.epoch(eps, epoch_trace)
        for rec in epoch_trace:
            rec["epoch"] = epoch
        iteration_trace.extend(epoch_trace)
        loss_trace.append(epoch_trace[-1]["best_loss"])
        norm_trace.append(l2_norm(eps))
        check_epoch_finite("gezo edit learning", epoch, cfg.epochs, loss_trace[-1], eps)
    return EditArtifact(eps=eps, loss_trace=loss_trace, eps_norm_trace=norm_trace,
                        config=vars(cfg).copy(), seed=seed, mode="gezo",
                        iteration_trace=iteration_trace)
