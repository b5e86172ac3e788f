"""Dense numerics shared by the whole pipeline: one stabilized cross-entropy,
split into the softmax both halves share, a gradient half and a loss half;
the L2 magnitude penalty; and SGD/Adam/AdamW steps with hand-written update
rules (no autodiff anywhere in this package).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def one_hot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    """[..., K] rows of the identity picked by labels [...]."""
    return np.eye(num_classes, dtype=dtype)[labels]


def softmax_terms(logits: np.ndarray, shifted=None, exps=None, sums=None):
    """(logits - row max, their exps, the row sums of the exps) for logits
    [..., K], K >= 2: the stabilized softmax both cross-entropy halves start
    from. Results go into the given buffers (`shifted` may be `logits`
    itself) or fresh arrays.

    The row max and sum are elementwise ops over the K columns, left to
    right, not reductions: for two classes they give the bytes of a
    last-axis max and sum at a fraction of the cost.
    """
    if sums is None:
        sums = np.empty(logits.shape[:-1], dtype=logits.dtype)
    np.maximum(logits[..., 0], logits[..., 1], out=sums)
    for j in range(2, logits.shape[-1]):
        np.maximum(sums, logits[..., j], out=sums)
    shifted = np.subtract(logits, sums[..., None], out=shifted)
    exps = np.exp(shifted, out=exps)
    np.add(exps[..., 0], exps[..., 1], out=sums)
    for j in range(2, logits.shape[-1]):
        np.add(sums, exps[..., j], out=sums)
    return shifted, exps, sums


def cross_entropy_grad(exps: np.ndarray, sums: np.ndarray, onehot: np.ndarray,
                       out=None) -> np.ndarray:
    """Gradient half: d CE / d logits = softmax - onehot, [..., K], from the
    exps and sums of softmax_terms; into `out` (which may be `exps`) if given."""
    grad = np.divide(exps, sums[..., None], out=out)
    return np.subtract(grad, onehot, out=grad)


def cross_entropy_batch(shifted: np.ndarray, sums: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """Loss half: the per-sample CE -log softmax[label], shaped like `sums`,
    from the shifted logits and sums of softmax_terms. Labels broadcast
    against `sums` and are not range-checked here: callers pass labels that
    went through check_labels."""
    picked = shifted[..., 0]
    for j in range(1, shifted.shape[-1]):
        picked = np.where(labels == j, shifted[..., j], picked)
    # negated difference, not log(s) - shifted[y]: where the two are equal
    # that would give +0.0 in place of -0.0
    return -(picked - np.log(sums))


def l2_norm(eps: np.ndarray):
    """||eps||_2 in float64: a float for one [D] edit, the [M] norms of an
    [M,D] stack (each the bytes its row alone gives)."""
    norms = np.sqrt(np.sum(np.asarray(eps, dtype=np.float64) ** 2, axis=-1))
    return float(norms) if norms.ndim == 0 else norms


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
    """SGD / Adam / AdamW state for one parameter tensor of `shape`: the step
    count, Adam's first and second moments stacked in one [2, *shape]
    buffer, and a scratch buffer of the same shape that every step writes
    its temporaries into. All arrays have `dtype`, in which each update is
    computed."""

    kind: str
    lr: float
    shape: tuple = ()
    dtype: type = np.float32
    t: int = 0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam", "adamw"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        self.shape = tuple(self.shape)
        stacked = (2, *self.shape)
        self.moments = np.zeros(stacked, dtype=self.dtype)  # m, v
        self.scratch = np.empty(stacked, dtype=self.dtype)
        self.corrections = np.empty(2, dtype=self.dtype)  # 1 - BETA**t, per step

        # Each constant as a full array in the update's dtype: a same-shape op
        # costs less than one that broadcasts or converts a Python scalar,
        # and gives the same bytes, since a Python scalar is converted to the
        # array's dtype before the op.
        def full(*values):
            return np.stack([np.full(self.shape, v, dtype=self.dtype) for v in values])

        self.lr_decay, self.lr_full, self.eps_full = full(
            self.lr * WEIGHT_DECAY, self.lr, EPS_STAB)
        self.decays, self.gains = full(BETA1, BETA2), full(1.0 - BETA1, 1.0 - BETA2)
        # views taken once: indexing on every step costs about as much as an op
        self._step, self._denom = self.scratch[0, ...], self.scratch[1, ...]
        self._per_moment_corrections = self.corrections.reshape(
            (2,) + (1,) * len(self.shape))


def init_optimizer(kind: str, lr: float, shape, dtype=np.float32) -> OptimizerState:
    return OptimizerState(kind=kind, lr=lr, shape=shape, dtype=dtype)


def optimizer_step(state: OptimizerState, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One update of `param`, in place; mutates `state` and returns `param`.

    The textbook expressions in their textbook order, each op writing into
    the state's buffers instead of a fresh array, so that a step gives the
    bytes the allocating formulas give:
      sgd:   param - lr * grad
      adamw: param - (lr * WEIGHT_DECAY) * param, then the Adam step
      adam:  m = BETA1 * m + (1 - BETA1) * grad
             v = BETA2 * v + (1 - BETA2) * grad * grad
             param - lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPS_STAB)
    m and v go through each op together, as one stacked buffer.
    """
    if param.shape != grad.shape:
        raise ValueError(f"param/grad shape mismatch {param.shape} vs {grad.shape}")
    if param.shape != state.shape:
        raise ValueError("optimizer state does not match parameter shape")
    step, denom = state._step, state._denom
    if state.kind == "sgd":
        np.multiply(state.lr_full, grad, out=step)
        return np.subtract(param, step, out=param)

    if state.kind == "adamw":
        # decoupled decay applied before the Adam update
        np.multiply(state.lr_decay, param, out=step)
        np.subtract(param, step, out=param)
    state.t += 1
    moments, scratch, corrections = state.moments, state.scratch, state.corrections
    np.multiply(state.decays, moments, out=moments)
    np.multiply(state.gains, grad, out=scratch)
    np.multiply(denom, grad, out=denom)
    np.add(moments, scratch, out=moments)
    corrections[0] = 1.0 - BETA1 ** state.t
    corrections[1] = 1.0 - BETA2 ** state.t
    np.divide(moments, state._per_moment_corrections, out=scratch)  # m_hat, v_hat
    np.sqrt(denom, out=denom)
    np.add(denom, state.eps_full, out=denom)
    np.multiply(state.lr_full, step, out=step)
    np.divide(step, denom, out=step)
    return np.subtract(param, step, out=param)
