"""Greedy zeroth-order learning of the universal edit for forward-only
oracles. Each local iteration samples C scaled Gaussian perturbations, tries
each in both directions on a fresh mini-batch (all 2C candidates in one
oracle call of 2C logical queries), greedily keeps the candidate
beating the epoch-best objective, folds it into a momentum velocity, and
decays the step size when nothing improves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .editing import EditArtifact, edit_objective_batch
from .models import LinearHead
from .numerics import check_counts, check_epoch_finite, is_real, l2_norm
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
        if not (is_real(self.lam) and 0 <= self.lam < math.inf):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (is_real(self.init_step) and 0 < self.init_step < math.inf):
            raise ValueError(f"init_step must be finite and > 0, got {self.init_step!r}")
        if not (is_real(self.decay) and 0 < self.decay < 1):
            raise ValueError(f"decay must be in (0, 1), got {self.decay!r}")
        if not (is_real(self.momentum) and 0 <= self.momentum < 1):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")


def greedy_gradient(oracle, sa_head: LinearHead, batch: np.ndarray,
                    sa_labels: np.ndarray, eps: np.ndarray, step: float,
                    samples: int, lam: float, best_loss: float,
                    rng: np.random.Generator):
    """Try `samples` scaled perturbations in both directions on one batch;
    return (best direction perturbation or None, updated best loss).

    Issues 2*samples logical queries in one oracle call: the candidates
    -delta_1, +delta_1, -delta_2, ... are scored as one stack. Comparison is
    strict `<` in that order, so on ties the first candidate wins.
    """
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    deltas = (rng.standard_normal((samples, eps.shape[0])).astype(np.float32)
              * np.float32(step))
    signed = np.stack((-deltas, deltas), axis=1).reshape(2 * samples, -1)
    losses = edit_objective_batch(oracle, sa_head, batch, sa_labels, eps + signed, lam)
    d_best = None
    # one loss stands for every candidate when a stubbed objective returns a
    # float (acceptance criterion 07 stubs it with math.inf)
    for i, loss in enumerate(np.broadcast_to(losses, (2 * samples,)).tolist()):
        if loss < best_loss:
            best_loss, d_best = loss, signed[i]
    return d_best, best_loss


def gezo_epoch(oracle, sa_head: LinearHead, images: np.ndarray,
               sa_labels: np.ndarray, eps_epoch: np.ndarray, cfg: GezoConfig,
               rng: np.random.Generator, trace: list | None = None) -> np.ndarray:
    """One pass of local iterations over the edit; velocity, step size and
    best loss all start fresh."""
    n = images.shape[0]
    eps = eps_epoch.astype(np.float32)
    velocity = np.zeros_like(eps_epoch, dtype=np.float32)
    step, best_loss = cfg.init_step, math.inf
    for r in range(1, cfg.local_iters + 1):
        idx = rng.permutation(n)[:cfg.batch_size]
        d_best, best_loss = greedy_gradient(oracle, sa_head, images[idx], sa_labels[idx],
                                            eps, step, cfg.samples, cfg.lam, best_loss,
                                            rng)
        improved = d_best is not None
        if improved:
            velocity = np.float32(cfg.momentum) * velocity + d_best
            eps = eps + velocity
        else:
            step = cfg.decay * step
        if trace is not None:
            trace.append({"iteration": r, "improved": improved,
                          "best_loss": best_loss, "step": step})
    return eps


def learn_ude_gezo(oracle, sa_head: LinearHead, images: np.ndarray,
                   sa_labels: np.ndarray, cfg: GezoConfig, seed: int) -> EditArtifact:
    """Run the per-epoch pass for cfg.epochs, threading the edit through;
    batches and perturbations are drawn from `seed`. Only forward oracle
    calls are ever issued."""
    dim = images.shape[1]
    eps = np.zeros(dim, dtype=np.float32)
    rng = np.random.default_rng(derive_seed(seed, 0x6E20))
    loss_trace, norm_trace = [], []
    iteration_trace: list[dict] = []
    for epoch in range(cfg.epochs):
        epoch_trace: list[dict] = []
        eps = gezo_epoch(oracle, sa_head, images, sa_labels, eps, cfg, rng,
                         trace=epoch_trace)
        for rec in epoch_trace:
            rec["epoch"] = epoch
        iteration_trace.extend(epoch_trace)
        loss_trace.append(epoch_trace[-1]["best_loss"])
        norm_trace.append(l2_norm(eps))
        check_epoch_finite("gezo edit learning", epoch, cfg.epochs, loss_trace[-1], eps)
    return EditArtifact(eps=eps, loss_trace=loss_trace, eps_norm_trace=norm_trace,
                        config=vars(cfg).copy(), seed=seed, mode="gezo",
                        iteration_trace=iteration_trace)
