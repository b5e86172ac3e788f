"""Dense numerics shared by the whole pipeline: one stabilized cross-entropy,
the L2 magnitude penalty, and SGD/Adam/AdamW steps with hand-written update
rules (no autodiff anywhere in this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

L2_ORIGIN_EPS = 1e-12


def check_labels(labels, num_classes: int) -> np.ndarray:
    """labels as an array; IndexError unless every label is in [0, K)."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise IndexError("label out of range")
    return labels


def check_counts(**counts) -> None:
    """ValueError unless every count is an integer >= 1."""
    for name, value in counts.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def cross_entropy_loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    """Per-sample CE losses [B] and their gradient softmax - onehot [B,K],
    for logits [B,K] and integer labels [B], from one stabilized softmax.
    Labels are not range-checked here: callers pass labels that went through
    check_labels."""
    logits = np.ascontiguousarray(logits)  # C order, so rows index flat
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    # flat position of each row's label entry
    pos = np.arange(0, shifted.shape[-1] * len(labels), shifted.shape[-1]) + labels
    # negated difference, not log(s) - shifted[y]: where the two are equal
    # that would give +0.0 in place of -0.0
    loss = -(shifted.ravel()[pos] - np.log(s).ravel())
    grad = e / s
    grad.ravel()[pos] -= 1.0
    return loss, grad


def l2_norm(eps: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(eps, dtype=np.float64) ** 2)))


def l2_norm_grad(eps: np.ndarray) -> np.ndarray:
    """Gradient of ||eps||_2; the zero tensor at (numerically) the origin,
    which is the chosen subgradient there."""
    n = l2_norm(eps)
    if n <= L2_ORIGIN_EPS:
        return np.zeros_like(eps)
    return (eps / n).astype(eps.dtype)


# Adam/AdamW hyperparameters other than the learning rate
BETA1 = 0.9
BETA2 = 0.999
EPS_STAB = 1e-8
WEIGHT_DECAY = 0.01  # AdamW only


@dataclass
class OptimizerState:
    """SGD / Adam / AdamW state for a single parameter tensor."""

    kind: str
    lr: float
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    t: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam", "adamw"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


def init_optimizer(kind: str, lr: float, shape, dtype=np.float32) -> OptimizerState:
    state = OptimizerState(kind=kind, lr=lr)
    if kind in ("adam", "adamw"):
        state.m = np.zeros(shape, dtype=dtype)
        state.v = np.zeros(shape, dtype=dtype)
    return state


def optimizer_step(state: OptimizerState, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One update; mutates `state`, returns the new parameter value."""
    if param.shape != grad.shape:
        raise ValueError(f"param/grad shape mismatch {param.shape} vs {grad.shape}")
    if state.kind == "sgd":
        return param - state.lr * grad

    if state.m.shape != param.shape:
        raise ValueError("optimizer moments do not match parameter shape")
    if state.kind == "adamw":
        # decoupled decay applied before the Adam update
        param = param - state.lr * WEIGHT_DECAY * param
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + EPS_STAB)
