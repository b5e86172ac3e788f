"""White-box learning of the universal edit: a single image-shaped noise
tensor added to every input, trained by Adam to maximize the frozen
group-attribute head's cross-entropy while an L2 penalty keeps it small.
Also the downstream pieces: training the disease head on edited inputs
and exporting the per-pixel noise map. Every edit reaches an input through
the oracle (embed_edits, embed_vjp), which applies it.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .models import LinearHead, TrainConfig, fit_heads, head_forward
from .numerics import (
    bind_cross_entropy_grad,
    bind_optimizer_step,
    check_counts,
    check_epoch_finite,
    check_labels,
    check_optimizer,
    check_penalty,
    cross_entropy_batch,
    l2_norm,
    l2_norm_grad,
    one_hot,
)
from .prng import derive_seed


@dataclass
class UdeConfig:
    lam: float = 0.01  # L2 penalty coefficient
    lr: float = 0.01
    epochs: int = 50
    # effectively full-batch at desk scale; small batches give the Adam attack
    # enough steps to push every input into encoder saturation, which destroys
    # downstream utility along with the group signal
    batch_size: int = 2048

    def __post_init__(self):
        check_penalty(self.lam)
        check_optimizer("adam", self.lr)
        check_counts(epochs=self.epochs, batch_size=self.batch_size)


@dataclass
class EditArtifact:
    eps: np.ndarray  # [D], image-shaped universal edit
    loss_trace: list[float]  # per-epoch mean objective
    eps_norm_trace: list[float]  # per-epoch ||eps||_2
    config: dict
    seed: int  # the learner's seed, derived from the run's seed
    mode: str = "whitebox"
    iteration_trace: list[dict] = field(default_factory=list)  # gezo only


def _objective(sa_head: LinearHead, lam: float, z: np.ndarray, labels: np.ndarray,
               edits: np.ndarray):
    """The objective body both edit objectives run. From the embeddings z
    [M,B,E] of a batch under each of the [M,D] `edits` and the batch's
    checked labels: the objectives [M] float64, -mean(CE) + lam *
    ||edit||_2, and the gradient [M,B,2] of each row's CE with respect to
    its logits, in arrays of this call. ValueError unless E is the head's
    input dim.

    models.head_forward in the dtype of z, then one
    numerics.bind_cross_entropy_grad step with divisor ones (the gradient's
    division by B is left to the caller: x / 1 is exact); the mean is a
    sum then a division by B, as np.mean takes it, and the norm is
    numerics.l2_norm's."""
    logits = head_forward(sa_head, z)
    exps, sums = np.empty_like(logits), np.empty_like(logits)
    grad = bind_cross_entropy_grad(logits, exps, sums, one_hot(labels, z.dtype),
                                   np.ones_like(logits))()
    means = np.add.reduce(cross_entropy_batch(logits, sums, labels), 1) / len(labels)
    return -means.astype(np.float64) + lam * l2_norm(edits), grad


def edit_objective_batch(oracle, sa_head: LinearHead, batch: np.ndarray,
                         sa_labels: np.ndarray, eps: np.ndarray, lam: float):
    """-mean CE of the group head on edited inputs, plus lam*||eps||_2.

    Needs only forward access; this is the loss both optimizers drive down.
    A [D] edit gives a float. An [M,D] stack of edits gives the M losses,
    [M] float64, each the bytes its edit alone gives, from one
    oracle.embed_edits call of M logical queries (a remote oracle sends the
    batch once and the M edits) and one run of the objective body that
    edit_objective_grad shares: one head forward (per-candidate slices, so
    each gets the product a lone call computes), one cross-entropy step and
    one norm penalty. ValueError, before the query, unless `sa_labels` holds
    one label per batch row.
    """
    labels = check_labels(sa_labels, len(batch))
    stack = np.atleast_2d(eps)
    out, _ = _objective(sa_head, lam, oracle.embed_edits(batch, stack), labels, stack)
    return float(out[0]) if np.ndim(eps) == 1 else out


def edit_objective_grad(oracle, sa_head: LinearHead, batch: np.ndarray,
                        sa_labels: np.ndarray, eps: np.ndarray, lam: float):
    """(objective, d objective / d eps) on one batch, gradients through the
    encoder: -(1/B) sum_i dCE_i/d eps + lam * eps/||eps||. One oracle query,
    which embeds the edited batch once for both; the objective is the bytes
    edit_objective_batch gives, from the same body. ValueError, before the
    query, unless `sa_labels` holds one label per batch row."""
    labels = check_labels(sa_labels, len(batch))
    zb, vjp = oracle.embed_vjp(batch, eps)
    loss, g = _objective(sa_head, lam, zb[None], labels, eps[None])
    grad = (-vjp(g[0] @ sa_head.weight.astype(zb.dtype).T) / batch.shape[0]
            + lam * l2_norm_grad(eps.astype(zb.dtype)))
    return float(loss[0]), grad.astype(eps.dtype)


def learn_ude_whitebox(oracle, sa_head: LinearHead, images: np.ndarray,
                       sa_labels: np.ndarray, cfg: UdeConfig, seed: int) -> EditArtifact:
    """Adam on the edit against a frozen group head, gradients through the
    encoder, mini-batches shuffled from `seed`. The head and encoder are
    never modified. The labels are checked, one per image, before any
    oracle call (numerics.check_labels: TypeError, ValueError, also for no
    images, or IndexError). CapabilityError, from the oracle's embed_vjp
    before any step, unless the oracle gives input gradients."""
    n, dim = images.shape
    labels = check_labels(sa_labels, n)
    eps, grad = np.zeros(dim, dtype=np.float32), np.empty(dim, dtype=np.float32)
    step = bind_optimizer_step("adam", cfg.lr, eps, grad)
    rng = np.random.default_rng(derive_seed(seed, 0xED17))

    loss_trace, norm_trace = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total, starts = 0.0, range(0, n, cfg.batch_size)
        for start in starts:
            idx = order[start:start + cfg.batch_size]
            loss, grad[...] = edit_objective_grad(oracle, sa_head, images[idx],
                                                  labels[idx], eps, cfg.lam)
            total += loss
            step()
        loss_trace.append(total / len(starts))
        norm_trace.append(l2_norm(eps))
        check_epoch_finite("whitebox edit learning", epoch, cfg.epochs, loss_trace[-1],
                           eps)
    return EditArtifact(eps=eps, loss_trace=loss_trace, eps_norm_trace=norm_trace,
                        config=vars(cfg).copy(), seed=seed, mode="whitebox")


def train_fair_disease(oracle, edits: list[np.ndarray], images: np.ndarray,
                       disease_labels: np.ndarray, cfg: TrainConfig, seed: int):
    """Train one disease head per edit on embeddings of the inputs with that
    edit applied, all in one loop (models.fit_heads); only the heads are
    trainable. Returns one (head, trace) per edit. A zero edit is exactly
    the plain (unedited) baseline path. One oracle call embeds the inputs
    under every edit; each edit's embeddings have the bytes it gives alone,
    and no edited copy of the inputs is built (models.encoder_forward_edits).
    The labels are checked, one per image, before the oracle call
    (numerics.check_labels: TypeError, ValueError or IndexError)."""
    labels = check_labels(disease_labels, len(images))
    return fit_heads(oracle.embed_edits(images, np.stack(edits)), labels, cfg, seed)


def export_noise_map(eps: np.ndarray, top_fraction: float):
    """Per-pixel normalized |eps| plus the mask of the top-fraction pixels.

    Returns (norm_map, mask, degenerate). A constant edit has zero range, so
    the map is all zeros, the mask empty, and the degenerate flag set.
    """
    if not (0 < top_fraction <= 1):
        raise ValueError("top_fraction must be in (0, 1]")
    mag = np.abs(eps).astype(np.float64)
    lo, hi = mag.min(), mag.max()
    if hi - lo <= 0:
        return np.zeros_like(mag), np.zeros(eps.shape, dtype=bool), True
    norm = (mag - lo) / (hi - lo)
    if top_fraction == 1.0:
        return norm, np.ones(eps.shape, dtype=bool), False
    threshold = np.quantile(norm, 1.0 - top_fraction)
    return norm, norm > threshold, False


def write_noise_map_csv(dirpath, eps: np.ndarray, side: int, top_fraction: float):
    """H x W CSV grids of the normalized map and the binary top mask."""
    norm, mask, degenerate = export_noise_map(eps, top_fraction)
    os.makedirs(dirpath, exist_ok=True)
    for name, grid, fmt in (("noise_map.csv", norm.reshape(side, side), "{:.6f}"),
                            ("noise_mask.csv", mask.reshape(side, side), "{:d}")):
        with open(os.path.join(dirpath, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in grid:
                writer.writerow([fmt.format(v) for v in row])
    return degenerate
