"""Dense numerics shared by the whole pipeline: one stabilized two-class
cross-entropy (every head is binary: two groups, disease or not), split into
the softmax both halves share, a gradient half and a loss half; the L2
magnitude penalty; and SGD/Adam/AdamW steps with hand-written update rules
(no autodiff anywhere in this package); and the per-epoch check that a
training loop has not diverged.
"""

from __future__ import annotations

import math

import numpy as np

L2_ORIGIN_EPS = 1e-12
NUM_CLASSES = 2  # the columns of every head's logits


def check_labels(labels) -> np.ndarray:
    """labels as an array; IndexError unless every label is 0 or 1."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= NUM_CLASSES):
        raise IndexError("label out of range")
    return labels


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer and not a bool, which
    Python counts as an int but a config means as true or false."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is an integer, as is_integer has it, or a Python or
    numpy float: a number, and not a bool."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def check_counts(**counts) -> None:
    """ValueError unless every count is an integer >= 1."""
    for name, value in counts.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class DivergenceError(ArithmeticError):
    """Training reached a non-finite loss or parameter."""


def check_epoch_finite(what: str, epoch: int, epochs: int, loss: float,
                       values: np.ndarray) -> None:
    """DivergenceError, naming what was trained and the 1-based epoch,
    unless the epoch's loss and the values at its end are finite."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad or not math.isfinite(loss):
        raise DivergenceError(f"{what} diverged in epoch {epoch + 1} of {epochs}: "
                              f"loss {loss}, {bad} non-finite values")


def one_hot(labels: np.ndarray, dtype) -> np.ndarray:
    """[..., 2] rows of the identity picked by labels [...]."""
    return np.eye(NUM_CLASSES, dtype=dtype)[labels]


def softmax_terms(logits: np.ndarray, shifted=None, exps=None, sums=None):
    """(logits - row max, their exps, the row sums of the exps) for logits
    [..., 2]: the stabilized softmax both cross-entropy halves start from.
    `sums` has the logits' shape, each row's sum in every column, so that
    the shift and the normalisation are same-shape ops. Results go into the
    given buffers (`shifted` may be `logits` itself) or fresh arrays.

    The row max and sum are one op each against the columns swapped, not
    reductions: the bytes of a last-axis max and sum at a fraction of the
    cost (a zero tie's sign aside, which changes no exp, loss or gradient).
    """
    if sums is None:
        sums = np.empty_like(logits)
    # out= as a keyword: numpy deprecates a third positional argument here
    np.maximum(logits, logits[..., ::-1], out=sums)  # the row max, until the exps
    shifted = np.subtract(logits, sums, out=shifted)
    exps = np.exp(shifted, out=exps)
    np.add(exps, exps[..., ::-1], out=sums)
    return shifted, exps, sums


def cross_entropy_grad(exps: np.ndarray, sums: np.ndarray, onehot: np.ndarray,
                       out=None) -> np.ndarray:
    """Gradient half: d CE / d logits = softmax - onehot, [..., 2], from the
    logits-shaped exps and sums of softmax_terms, so both ops combine arrays
    of one shape; into `out` (which may be `exps`) if given."""
    grad = np.divide(exps, sums, out=out)
    return np.subtract(grad, onehot, out=grad)


def cross_entropy_batch(shifted: np.ndarray, sums: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """Loss half: the per-sample CE -log softmax[label], [...] for logits
    [..., 2], from the shifted logits and sums of softmax_terms. Labels
    broadcast against `sums[..., 0]` and are not range-checked here: callers
    pass labels that went through check_labels."""
    picked = np.where(labels == 1, shifted[..., 1], shifted[..., 0])
    # negated difference, not log(s) - shifted[y]: where the two are equal
    # that would give +0.0 in place of -0.0
    return -(picked - np.log(sums[..., 0]))


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


def check_optimizer(kind: str, lr: float) -> None:
    """ValueError unless kind is sgd, adam or adamw and lr is a number,
    finite and > 0."""
    if kind not in ("sgd", "adam", "adamw"):
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if not (is_real(lr) and 0 < lr < math.inf):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")


def bind_optimizer_step(kind: str, lr: float, param: np.ndarray, grad: np.ndarray):
    """The in-place SGD / Adam / AdamW update of `param` from `grad`, as a
    function of no arguments that returns `param`. The kind, lr and shapes
    are checked once, here, and the state lives in its closure: the step
    count, Adam's m and v stacked in one [2, *shape] buffer (they go through
    each op together), the bias corrections 1 - BETA**t filled across the
    halves of another, and a scratch buffer for every temporary, all in the
    dtype of `param`, in which each update is computed.

    The textbook expressions in their textbook order, each op writing into
    those buffers, so that a step gives the bytes the allocating formulas
    give:
      sgd:   param - lr * grad
      adamw: param - (lr * WEIGHT_DECAY) * param, then the Adam step
      adam:  m = BETA1 * m + (1 - BETA1) * grad
             v = BETA2 * v + (1 - BETA2) * grad * grad
             param - lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPS_STAB)
    Each op takes its output as its third positional argument: the `out=`
    keyword costs more per call than the arithmetic of these small ops.
    """
    check_optimizer(kind, lr)
    if param.shape != grad.shape:
        raise ValueError(f"param/grad shape mismatch {param.shape} vs {grad.shape}")
    stacked, dtype = (2, *param.shape), param.dtype
    scratch = np.empty(stacked, dtype)

    # Each constant as a full array in the update's dtype: a same-shape op
    # costs less than one with a Python scalar, and gives the same bytes,
    # since the scalar is converted to the array's dtype before the op.
    def full(*values):
        return np.stack([np.full(param.shape, v, dtype) for v in values])

    lr_decay, lr_full, eps_full = full(lr * WEIGHT_DECAY, lr, EPS_STAB)
    multiply, subtract = np.multiply, np.subtract
    step, denom = scratch[0, ...], scratch[1, ...]
    if kind == "sgd":
        def sgd_step():
            multiply(lr_full, grad, step)
            return subtract(param, step, param)
        return sgd_step

    add, divide, sqrt = np.add, np.divide, np.sqrt
    moments, corrections = np.zeros(stacked, dtype), np.empty(stacked, dtype)
    decays, gains = full(BETA1, BETA2), full(1.0 - BETA1, 1.0 - BETA2)
    decay = kind == "adamw"
    fill_m, fill_v = corrections[0, ...].fill, corrections[1, ...].fill
    t = 0

    def adam_step():
        nonlocal t
        if decay:
            # decoupled decay applied before the Adam update
            multiply(lr_decay, param, step)
            subtract(param, step, param)
        t += 1
        multiply(decays, moments, moments)
        multiply(gains, grad, scratch)
        multiply(denom, grad, denom)
        add(moments, scratch, moments)
        fill_m(1.0 - BETA1 ** t)
        fill_v(1.0 - BETA2 ** t)
        divide(moments, corrections, scratch)  # m_hat, v_hat
        sqrt(denom, denom)
        add(denom, eps_full, denom)
        multiply(lr_full, step, step)
        divide(step, denom, step)
        return subtract(param, step, param)
    return adam_step
