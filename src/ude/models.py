"""The frozen embedding encoder (a fixed 2-hidden-layer tanh MLP standing in
for a hosted foundation-model encoder) and the trainable binary linear heads,
with hand-derived forward and backward passes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .numerics import (
    cross_entropy_batch,
    cross_entropy_grad,
    init_optimizer,
    optimizer_step,
)
from .prng import Xorshift64Star, derive_seed
from .tensor_io import load_tensor, save_tensor, tensor_digest

INPUT_DIM = 256  # 16x16 images
HIDDEN_DIM = 64
EMBED_DIM = 32
NUM_CLASSES = 2


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
    seed: int

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w3.shape[1]

    def parameters(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "w3": self.w3, "b3": self.b3}

    def weights_digest(self) -> str:
        return "".join(tensor_digest(p) for _, p in sorted(self.parameters().items()))


def _draw_layer(rng: Xorshift64Star, fan_in: int, fan_out: int):
    # Glorot-uniform limit; weights filled row-major, then the bias vector,
    # all from the same stream so the draw order is fully specified.
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform_array(fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)
    b = rng.uniform_array(fan_out, -limit, limit)
    return w, b


def build_encoder(seed: int, input_dim: int = INPUT_DIM, hidden_dim: int = HIDDEN_DIM,
                  embed_dim: int = EMBED_DIM) -> FrozenEncoder:
    dims = [(input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim, embed_dim)]
    layers = []
    for i, (fi, fo) in enumerate(dims):
        rng = Xorshift64Star(derive_seed(seed, i))
        layers.append(_draw_layer(rng, fi, fo))
    (w1, b1), (w2, b2), (w3, b3) = layers
    return FrozenEncoder(*(_frozen(p) for p in (w1, b1, w2, b2, w3, b3)), seed=seed)


def _cast_params(enc: FrozenEncoder, dtype):
    return tuple(p.astype(dtype) for p in (enc.w1, enc.b1, enc.w2, enc.b2, enc.w3, enc.b3))


def _forward_cached(enc: FrozenEncoder, batch: np.ndarray):
    if batch.ndim != 2 or batch.shape[1] != enc.input_dim:
        raise ValueError(f"batch must be [B,{enc.input_dim}], got {batch.shape}")
    w1, b1, w2, b2, w3, b3 = _cast_params(enc, batch.dtype)
    h1 = np.tanh(batch @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    z = h2 @ w3 + b3
    return z, h1, h2


def encoder_forward(enc: FrozenEncoder, batch: np.ndarray) -> np.ndarray:
    """Embed a batch [B,D] -> [B,E]; pure function of (weights, batch)."""
    return _forward_cached(enc, batch)[0]


def encoder_input_grad(enc: FrozenEncoder, batch: np.ndarray,
                       upstream: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product d(embedding)/d(input)^T @ upstream, [B,D]."""
    z, h1, h2 = _forward_cached(enc, batch)
    if upstream.shape != z.shape:
        raise ValueError(f"upstream must be {z.shape}, got {upstream.shape}")
    w1, _, w2, _, w3, _ = _cast_params(enc, batch.dtype)
    g2 = (upstream @ w3.T) * (1.0 - h2 * h2)
    g1 = (g2 @ w2.T) * (1.0 - h1 * h1)
    return g1 @ w1.T


@dataclass
class LinearHead:
    """Binary affine head on embeddings: logits = z @ weight + bias."""

    weight: np.ndarray  # [E, 2]
    bias: np.ndarray  # [2]

    def copy(self) -> "LinearHead":
        return LinearHead(self.weight.copy(), self.bias.copy())

    def param_bytes(self) -> bytes:
        return self.weight.tobytes() + self.bias.tobytes()


def zero_head(embed_dim: int = EMBED_DIM) -> LinearHead:
    return LinearHead(np.zeros((embed_dim, NUM_CLASSES), dtype=np.float32),
                      np.zeros(NUM_CLASSES, dtype=np.float32))


def head_forward(head: LinearHead, z: np.ndarray) -> np.ndarray:
    if z.shape[-1] != head.weight.shape[0]:
        raise ValueError(f"embedding dim {z.shape[-1]} != head dim {head.weight.shape[0]}")
    return z @ head.weight.astype(z.dtype) + head.bias.astype(z.dtype)


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def train_head(oracle, images: np.ndarray, labels: np.ndarray, cfg: TrainConfig):
    """Train a linear head on embeddings of images; the encoder stays
    untouched. Returns (head, per-epoch mean CE trace).

    Embeddings are computed once up front. Mini-batch order is a fresh
    seeded shuffle per epoch.
    """
    n = images.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    labels = np.asarray(labels)
    z = oracle.embed(images)

    head = zero_head(z.shape[1])
    opt_w = init_optimizer(cfg.optimizer, cfg.lr, head.weight.shape)
    opt_b = init_optimizer(cfg.optimizer, cfg.lr, head.bias.shape)
    rng = np.random.default_rng(derive_seed(cfg.seed, 0x7EAD))
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            zb, yb = z[idx], labels[idx]
            logits = head_forward(head, zb)
            total += float(np.sum(cross_entropy_batch(logits, yb)))
            g = cross_entropy_grad(logits, yb).astype(np.float32) / len(idx)
            head.weight = optimizer_step(opt_w, head.weight, zb.T @ g)
            head.bias = optimizer_step(opt_b, head.bias, g.sum(axis=0))
        trace.append(total / n)
    return head, trace


def head_accuracy(head: LinearHead, z: np.ndarray, labels: np.ndarray) -> float:
    preds = np.argmax(head_forward(head, z), axis=1)
    return float(np.mean(preds == np.asarray(labels)))


# ---------------------------------------------------------------------------
# persistence: JSON manifest + one tensor file per parameter

def save_head(dirpath, head: LinearHead, meta: dict | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    manifest = {
        "kind": "linear_head",
        "dtype": "f32",
        "params": {"weight": list(head.weight.shape), "bias": list(head.bias.shape)},
        "meta": meta or {},
    }
    save_tensor(os.path.join(dirpath, "weight.udet"), head.weight)
    save_tensor(os.path.join(dirpath, "bias.udet"), head.bias)
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_head(dirpath) -> LinearHead:
    return LinearHead(load_tensor(os.path.join(dirpath, "weight.udet")),
                      load_tensor(os.path.join(dirpath, "bias.udet")))


def save_encoder(dirpath, enc: FrozenEncoder) -> None:
    os.makedirs(dirpath, exist_ok=True)
    params = enc.parameters()
    manifest = {
        "kind": "frozen_encoder",
        "dtype": "f32",
        "seed": enc.seed,
        "params": {name: list(p.shape) for name, p in params.items()},
    }
    for name, p in params.items():
        save_tensor(os.path.join(dirpath, f"{name}.udet"), p)
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_encoder(dirpath) -> FrozenEncoder:
    with open(os.path.join(dirpath, "manifest.json")) as fh:
        manifest = json.load(fh)
    params = {name: _frozen(load_tensor(os.path.join(dirpath, f"{name}.udet")))
              for name in manifest["params"]}
    return FrozenEncoder(params["w1"], params["b1"], params["w2"], params["b2"],
                         params["w3"], params["b3"], seed=manifest["seed"])
