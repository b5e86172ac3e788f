"""The frozen embedding encoder (a fixed 2-hidden-layer tanh MLP standing in
for a hosted foundation-model encoder) and the trainable binary linear
heads, with hand-derived forward and backward passes. A batch under a
stack of edits is embedded with the encoder's affine first layer factored
(encoder_forward_edits), so an edited copy of the batch is never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .numerics import (
    NUM_CLASSES,
    bind_cross_entropy_grad,
    bind_optimizer_step,
    check_counts,
    check_epoch_finite,
    check_labels,
    check_optimizer,
    cross_entropy_batch,
    one_hot,
)
from .prng import Xorshift64Star, derive_seed
from .tensor_io import load_artifact, save_artifact

INPUT_DIM = 256  # 16x16 images
HIDDEN_DIM = 64
EMBED_DIM = 32


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FrozenEncoder:
    """Immutable tanh MLP: D -> 64 (tanh) -> 64 (tanh) -> E, weights drawn
    once from a seeded xorshift64* stream (see prng module)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w3.shape[1]

    def parameters(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}


def _draw_layer(rng: Xorshift64Star, fan_in: int, fan_out: int):
    # Glorot-uniform limit; weights filled row-major, then the bias vector,
    # all from the same stream so the draw order is fully specified.
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform_array(fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)
    b = rng.uniform_array(fan_out, -limit, limit)
    return w, b


@cache
def build_encoder(seed: int, input_dim: int = INPUT_DIM, hidden_dim: int = HIDDEN_DIM,
                  embed_dim: int = EMBED_DIM) -> FrozenEncoder:
    """The encoder `seed` names: a pure function of the arguments, built
    once per process, and shared, since its weights are read-only."""
    dims = [(input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim, embed_dim)]
    layers = []
    for i, (fi, fo) in enumerate(dims):
        rng = Xorshift64Star(derive_seed(seed, i))
        layers.append(_draw_layer(rng, fi, fo))
    (w1, b1), (w2, b2), (w3, b3) = layers
    return FrozenEncoder(*(_frozen(p) for p in (w1, b1, w2, b2, w3, b3)))


def _cast_params(enc: FrozenEncoder, dtype):
    """The weights in `dtype`; the frozen arrays themselves when they already
    have it, so callers must only read them."""
    return tuple(p.astype(dtype, copy=False)
                 for p in (enc.w1, enc.b1, enc.w2, enc.b2, enc.w3, enc.b3))


def _rows_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for a [B,K] a. numpy computes a one-row product with gemv,
    which sums in another order than the gemm of a taller one, so a lone row
    goes through gemm paired with itself: a row's embedding then does not
    depend on how many rows share its call."""
    if a.shape[0] == 1:
        return (np.concatenate((a, a)) @ w)[:1]
    return a @ w


def _check_rows(enc: FrozenEncoder, what: str, rows: np.ndarray) -> None:
    if rows.ndim != 2 or rows.shape[1] != enc.input_dim:
        raise ValueError(f"{what} must be 2-D with {enc.input_dim} columns, "
                         f"got shape {rows.shape}")


def encoder_vjp(enc: FrozenEncoder, batch: np.ndarray):
    """Embed a batch [B,D] -> z [B,E] and return (z, vjp), where vjp(upstream)
    is the vector-Jacobian product d(embedding)/d(input)^T @ upstream, [B,D],
    reusing this forward's activations."""
    _check_rows(enc, "batch", batch)
    w1, b1, w2, b2, w3, b3 = _cast_params(enc, batch.dtype)
    h1 = np.tanh(_rows_matmul(batch, w1) + b1)
    h2 = np.tanh(_rows_matmul(h1, w2) + b2)
    z = _rows_matmul(h2, w3) + b3

    def vjp(upstream: np.ndarray) -> np.ndarray:
        if upstream.shape != z.shape:
            raise ValueError(f"upstream must be {z.shape}, got {upstream.shape}")
        g2 = (upstream @ w3.T) * (1.0 - h2 * h2)
        g1 = (g2 @ w2.T) * (1.0 - h1 * h1)
        return g1 @ w1.T

    return z, vjp


def encoder_forward(enc: FrozenEncoder, batch: np.ndarray) -> np.ndarray:
    """Embed a batch [B,D] -> [B,E]; pure function of (weights, batch)."""
    return encoder_vjp(enc, batch)[0]


def encoder_forward_edits(enc: FrozenEncoder, batch: np.ndarray,
                          edits: np.ndarray) -> np.ndarray:
    """Embed the [B,D] batch under each of the [M,D] edits -> [M*B,E],
    edit-major: row i*B + j embeds batch[j] + edits[i], the edits taken in
    the batch's dtype.

    The first layer is affine, so it is factored: (x + e) @ w1 is computed
    as x @ w1 + e @ w1, which takes B + M rows through it instead of M*B and
    never builds the edited rows. Each row depends only on its own input
    row and edit, not on the other rows or edits of the call. It rounds
    differently from encoder_forward of the edited row, except under a zero
    edit, which gives encoder_forward's bytes (x @ w1 + 0 is x @ w1).
    """
    _check_rows(enc, "batch", batch)
    _check_rows(enc, "edits", edits)
    w1, b1, w2, b2, w3, b3 = _cast_params(enc, batch.dtype)
    h1 = np.tanh(_rows_matmul(batch, w1)[None]
                 + _rows_matmul(edits.astype(batch.dtype, copy=False), w1)[:, None] + b1)
    h2 = np.tanh(_rows_matmul(h1.reshape(-1, w1.shape[1]), w2) + b2)
    return _rows_matmul(h2, w3) + b3


@dataclass
class LinearHead:
    """Binary affine head on embeddings: logits = z @ weight + bias."""

    weight: np.ndarray  # [E, 2]
    bias: np.ndarray  # [2]

    def __post_init__(self):
        if np.ndim(self.weight) != 2 or np.shape(self.weight)[1] != NUM_CLASSES:
            raise ValueError(f"head weight must be [E,{NUM_CLASSES}], "
                             f"got shape {np.shape(self.weight)}")
        if np.shape(self.bias) != (NUM_CLASSES,):
            raise ValueError(f"head bias must be [{NUM_CLASSES}], "
                             f"got shape {np.shape(self.bias)}")

    def copy(self) -> "LinearHead":
        return LinearHead(self.weight.copy(), self.bias.copy())


def head_forward(head: LinearHead, z: np.ndarray) -> np.ndarray:
    if z.shape[-1] != head.weight.shape[0]:
        raise ValueError(f"embedding dim {z.shape[-1]} != head dim {head.weight.shape[0]}")
    return z @ head.weight.astype(z.dtype, copy=False) + head.bias.astype(z.dtype, copy=False)


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 64

    def __post_init__(self):
        check_counts(epochs=self.epochs, batch_size=self.batch_size)
        check_optimizer(self.optimizer, self.lr)


def fit_heads(z: np.ndarray, labels: np.ndarray, cfg: TrainConfig, seed: int):
    """Train one linear head per embedding set z[k] of z [K,N,E], all on the
    same labels and mini-batch order, in one loop. Returns one (head,
    per-epoch mean CE trace) per set.

    Embeddings are used in float32. Mini-batch order is a fresh shuffle per
    epoch, drawn from `seed`. Each head's parameters are one [E+1, 2] block,
    its weight rows and then its bias row, and all K blocks live in one
    [K, E+1, 2] buffer that takes one in-place optimizer step: every
    optimizer here is elementwise and every other op acts on each head's
    rows alone, so each head gets the bytes it would get if trained alone.

    A step issues only the ops that depend on the parameters, each into a
    buffer or view made here once: the logits z @ w + b; the cross-entropy
    gradient that numerics.bind_cross_entropy_grad binds to each batch's
    logits, softmax sums and one-hot targets (built once per epoch), all
    same-shape ops; one backward matmul of the shuffled embeddings with a
    ones column appended ([K,E+1,B] @ [K,B,2]), which gives the weight and
    the bias gradients together; and the in-place optimizer step that
    numerics.bind_optimizer_step binds to the parameter and gradient
    buffers, the optimizer's state in its closure. The shifted logits and
    softmax sums of every step are kept; the epoch's per-sample losses and
    per-batch loss sums are computed from them after its last step.

    DivergenceError, naming the head and the 1-based epoch, when a head's
    mean loss over an epoch or its parameters at the end of one are not
    finite.
    """
    z = np.asarray(z, dtype=np.float32)
    if z.ndim != 3:
        raise ValueError(f"embeddings must be [K,N,E], got shape {z.shape}")
    k, n, e = z.shape
    if n == 0:
        raise ValueError("empty dataset")
    labels = check_labels(labels, n)

    params = np.zeros((k, e + 1, NUM_CLASSES), dtype=np.float32)
    grads = np.empty_like(params)
    w, b = params[:, :e], params[:, e:]
    step = bind_optimizer_step(cfg.optimizer, cfg.lr, params, grads)
    rng = np.random.default_rng(derive_seed(seed, 0x7EAD))
    # the embeddings with a ones column, the bias row's input, and the
    # epoch's shuffled copies of them and of the labels
    z = np.concatenate((z, np.ones((k, n, 1), dtype=np.float32)), axis=2)
    zs, ys = np.empty_like(z), np.empty_like(labels)
    # Batches of one size form a group: the full batches, then a partial
    # last one. Per batch, a group holds each head's one-hot targets, filled
    # once per epoch, and keeps the step's shifted logits and softmax sums,
    # [K,B,2] each, for the epoch's losses. Its steps share one buffer for
    # the exps, then the gradient, and the batch size as an array of that
    # shape: every per-step op but the bias add then combines arrays of one
    # shape, which costs less than broadcasting, and gives the same bytes.
    full, rest = divmod(n, cfg.batch_size)
    groups, batches = [], []
    for count, size in ((full, cfg.batch_size), (1, rest)):
        if count * size == 0:
            continue
        start = len(batches) * cfg.batch_size
        shape = (k, size, NUM_CLASSES)
        targets, shifted, sums = (np.empty((count, *shape), dtype=np.float32)
                                  for _ in range(3))
        grad, divisor = np.empty(shape, dtype=np.float32), np.full(shape, size, np.float32)
        groups.append((targets, shifted, sums,
                       ys[start:start + count * size].reshape(count, 1, size)))
        for j in range(count):
            zb = zs[:, start + j * size:start + (j + 1) * size]
            batches.append((zb[..., :e], zb.transpose(0, 2, 1), shifted[j],
                            bind_cross_entropy_grad(shifted[j], grad, sums[j],
                                                    targets[j], divisor)))
    traces = np.empty((k, cfg.epochs))
    # looked up once; outputs passed positionally (see bind_optimizer_step)
    matmul, add = np.matmul, np.add
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        np.take(z, order, axis=1, out=zs)
        np.take(labels, order, out=ys)
        for targets, _, _, y in groups:
            np.copyto(targets, one_hot(y, np.float32))
        for zb, zb_t, logits, cross_entropy_grad_step in batches:
            matmul(zb, w, logits)
            add(logits, b, logits)
            # shifts the logits in place; the gradient lands in the group's buffer
            matmul(zb_t, cross_entropy_grad_step(), grads)
            step()
        batch_sums = np.concatenate([cross_entropy_batch(shifted, sums, y).sum(axis=-1)
                                     for _, shifted, sums, y in groups])
        # float64 running sums of the batch sums in batch order: the bytes a
        # Python float accumulator gives
        traces[:, epoch] = np.cumsum(batch_sums, axis=0, dtype=np.float64)[-1] / n
        for j in range(k):
            check_epoch_finite(f"head {j + 1} of {k} training", epoch, cfg.epochs,
                               traces[j, epoch], params[j])
    return [(LinearHead(wk, bk[0]).copy(), trace.tolist())
            for wk, bk, trace in zip(w, b, traces)]


def train_head(oracle, images: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
               seed: int):
    """Train a linear head on embeddings of images; the encoder stays
    untouched. Returns (head, per-epoch mean CE trace).

    The images are embedded once up front; see fit_heads for the loop.
    """
    return fit_heads(oracle.embed(images)[None], labels, cfg, seed)[0]


def head_accuracy(head: LinearHead, z: np.ndarray, labels: np.ndarray) -> float:
    preds = np.argmax(head_forward(head, z), axis=1)
    return float(np.mean(preds == np.asarray(labels)))


# ---------------------------------------------------------------------------
# persistence: one tensor_io artifact per head

def save_head(dirpath, head: LinearHead, **meta) -> None:
    save_artifact(dirpath, "linear_head", vars(head), **meta)


def load_head(dirpath) -> LinearHead:
    return LinearHead(**load_artifact(dirpath, "linear_head")[0])
