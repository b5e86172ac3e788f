"""Greedy zeroth-order learning of the universal edit for forward-only
oracles. Each local iteration samples C scaled Gaussian perturbations, tries
each in both directions on a fresh mini-batch, greedily keeps the candidate
beating the epoch-best objective, folds it into a momentum velocity, and
decays the step size when nothing improves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .editing import EditArtifact, check_epoch_finite, edit_objective_batch
from .models import LinearHead
from .numerics import l2_norm
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
    seed: int = 0

    def __post_init__(self):
        if self.local_iters < 1 or self.samples < 1:
            raise ValueError("local_iters and samples must be >= 1")
        if not (0 < self.decay < 1):
            raise ValueError("decay must be in (0, 1)")
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class GezoState:
    """Per-epoch optimizer state; reset at every epoch boundary."""

    eps: np.ndarray
    velocity: np.ndarray
    step: float
    best_loss: float
    iteration: int = 0


def greedy_gradient(oracle, sa_head: LinearHead, batch: np.ndarray,
                    sa_labels: np.ndarray, eps: np.ndarray, step: float,
                    samples: int, lam: float, best_loss: float,
                    rng: np.random.Generator):
    """Try `samples` scaled perturbations in both directions on one batch;
    return (best direction perturbation or None, updated best loss).

    Issues exactly 2*samples forward calls. Comparison is strict `<`, so on
    ties the first candidate seen wins.
    """
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    d_best = None
    for _ in range(samples):
        delta = (rng.standard_normal(eps.shape[0]).astype(np.float32)
                 * np.float32(step))
        for direction in (-1.0, 1.0):
            candidate = eps + np.float32(direction) * delta
            loss = edit_objective_batch(oracle, sa_head, batch, sa_labels,
                                        candidate, lam)
            if loss < best_loss:
                best_loss = loss
                d_best = np.float32(direction) * delta
    return d_best, best_loss


def gezo_epoch(oracle, sa_head: LinearHead, images: np.ndarray,
               sa_labels: np.ndarray, eps_epoch: np.ndarray, cfg: GezoConfig,
               rng: np.random.Generator, trace: list | None = None) -> np.ndarray:
    """One pass of local iterations over the edit; velocity, step size and
    best loss all start fresh."""
    n = images.shape[0]
    state = GezoState(eps=eps_epoch.astype(np.float32),
                      velocity=np.zeros_like(eps_epoch, dtype=np.float32),
                      step=cfg.init_step, best_loss=math.inf)
    for r in range(1, cfg.local_iters + 1):
        idx = rng.permutation(n)[:cfg.batch_size]
        d_best, state.best_loss = greedy_gradient(
            oracle, sa_head, images[idx], sa_labels[idx], state.eps, state.step,
            cfg.samples, cfg.lam, state.best_loss, rng)
        improved = d_best is not None
        if improved:
            state.velocity = np.float32(cfg.momentum) * state.velocity + d_best
            state.eps = state.eps + state.velocity
        else:
            state.step = cfg.decay * state.step
        state.iteration = r
        if trace is not None:
            trace.append({"iteration": r, "improved": improved,
                          "best_loss": state.best_loss, "step": state.step})
    return state.eps


def learn_ude_gezo(oracle, sa_head: LinearHead, images: np.ndarray,
                   sa_labels: np.ndarray, cfg: GezoConfig) -> EditArtifact:
    """Run the per-epoch pass for cfg.epochs, threading the edit through.
    Only forward oracle calls are ever issued."""
    if sa_labels is None:
        raise ValueError("group labels required")
    dim = images.shape[1]
    eps = np.zeros(dim, dtype=np.float32)
    rng = np.random.default_rng(derive_seed(cfg.seed, 0x6E20))
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
        check_epoch_finite("gezo", epoch, cfg.epochs, loss_trace[-1], eps)
    return EditArtifact(eps=eps, loss_trace=loss_trace, eps_norm_trace=norm_trace,
                        config=vars(cfg).copy(), seed=cfg.seed, mode="gezo",
                        iteration_trace=iteration_trace)
