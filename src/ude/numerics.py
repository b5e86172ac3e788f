"""Dense numerics shared by the whole pipeline: stabilized cross-entropy,
the L2 magnitude penalty, and SGD/Adam/AdamW steps with hand-written update
rules (no autodiff anywhere in this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

L2_ORIGIN_EPS = 1e-12


def _softmax_parts(logits: np.ndarray):
    """(shifted logits, their exp, the row sums of the exp): the one place
    the softmax is computed. All in C order, so rows can be indexed flat."""
    logits = np.ascontiguousarray(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, e, s = _softmax_parts(logits)
    return e / s


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted, _, s = _softmax_parts(logits)
    return shifted - np.log(s)


def cross_entropy(logits: np.ndarray, true_class: int) -> float:
    """-log softmax(logits)[true_class] for a single logit vector."""
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.shape[0] < 2:
        raise ValueError("logits must be a vector with at least 2 classes")
    if not (0 <= true_class < logits.shape[0]):
        raise IndexError(f"class {true_class} out of range for K={logits.shape[0]}")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    return float(-log_softmax(logits)[true_class])


def check_labels(labels, num_classes: int) -> np.ndarray:
    """labels as an array; IndexError unless every label is in [0, K)."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise IndexError("label out of range")
    return labels


def _label_positions(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Flat C-order position of each row's label entry in a [B,K] array."""
    return np.arange(0, num_classes * len(labels), num_classes) + labels


def _ce_loss(shifted, s, pos) -> np.ndarray:
    # negated difference, not log(s) - shifted[y]: where the two are equal
    # that would give +0.0 in place of -0.0
    return -(shifted.ravel()[pos] - np.log(s).ravel())


def _ce_grad(e, s, pos) -> np.ndarray:
    g = e / s
    g.ravel()[pos] -= 1.0
    return g


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample CE losses for logits [B,K] and integer labels [B]."""
    labels = check_labels(labels, logits.shape[-1])
    shifted, _, s = _softmax_parts(logits)
    return _ce_loss(shifted, s, _label_positions(labels, shifted.shape[-1]))


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(per-sample CE)/d(logits) = softmax - onehot, shape [B,K]."""
    labels = check_labels(labels, logits.shape[-1])
    _, e, s = _softmax_parts(logits)
    return _ce_grad(e, s, _label_positions(labels, e.shape[-1]))


def cross_entropy_loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    """(cross_entropy_batch, cross_entropy_grad) from one softmax, with the
    same bytes as the two calls. Labels are not range-checked here: callers
    pass labels that went through check_labels."""
    shifted, e, s = _softmax_parts(logits)
    pos = _label_positions(labels, shifted.shape[-1])
    return _ce_loss(shifted, s, pos), _ce_grad(e, s, pos)


def l2_norm(eps: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(eps, dtype=np.float64) ** 2)))


def l2_norm_grad(eps: np.ndarray) -> np.ndarray:
    """Gradient of ||eps||_2; the zero tensor at (numerically) the origin,
    which is the chosen subgradient there."""
    n = l2_norm(eps)
    if n <= L2_ORIGIN_EPS:
        return np.zeros_like(eps)
    return (eps / n).astype(eps.dtype)


@dataclass
class OptimizerState:
    """SGD / Adam / AdamW state for a single parameter tensor."""

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps_stab: float = 1e-8
    weight_decay: float = 0.01
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)
    t: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam", "adamw"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")


def init_optimizer(kind: str, lr: float, shape, dtype=np.float32, **kw) -> OptimizerState:
    state = OptimizerState(kind=kind, lr=lr, **kw)
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
        param = param - state.lr * state.weight_decay * param
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_stab)
