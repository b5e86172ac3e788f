"""Dense numerics shared by the whole pipeline: one stabilized two-class
cross-entropy (every head is binary: two groups, disease or not) in two
parts, a softmax-and-gradient step bound once to its buffers, which head
training and both edit objectives run, and the loss read from what that step
leaves in them; the L2 magnitude penalty; and SGD/Adam/AdamW steps with hand-written update rules
(no autodiff anywhere in this package); the per-epoch check that a
training loop has not diverged; and the input rules. check_labels owns the
rule for the labels a head trains or is scored on, which every learner and
scorer runs before its first oracle call.
"""

from __future__ import annotations

import math

import numpy as np

L2_ORIGIN_EPS = 1e-12
NUM_CLASSES = 2  # the columns of every head's logits


def check_labels(labels, rows: int | None = None) -> np.ndarray:
    """The one rule for the labels a head trains or is scored on, which
    every learner and scorer runs before its first oracle call: labels as an
    integer array, bools as 0 and 1 in uint8. TypeError for any other dtype,
    which one_hot and the loss would misread; ValueError whose text holds
    "empty batch" when `rows` is 0, and unless there are `rows` of them when
    given, one per row; IndexError unless every label is 0 or 1."""
    labels = np.asarray(labels)
    kind = labels.dtype.kind
    if kind == "b":
        labels = labels.astype(np.uint8)
    elif kind not in ("i", "u"):
        raise TypeError(f"labels must be integers or bools, got dtype {labels.dtype}")
    if rows == 0:
        raise ValueError("empty batch: no rows to label")
    if rows is not None and labels.shape != (rows,):
        raise ValueError(f"{rows} rows need labels of shape ({rows},), "
                         f"got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
        raise IndexError("label out of range")
    return labels


def check_binary(name: str, values, rows: int) -> np.ndarray:
    """values as a uint8 vector: ValueError unless they are `rows` values of
    a bool, integer, float or object dtype, each 0 or 1, checked before the
    cast, which would turn 0.5 into 0 (a timedelta or complex 1 would pass
    a value test alone). Floats are taken because tensor_io loads saved
    labels as float32. The rule for a record's 0/1 labels and predictions;
    check_labels is the stricter one for the labels a head trains or is
    scored on."""
    values = np.asarray(values)
    if (values.dtype.kind not in "biufO" or values.shape != (rows,)
            or np.any((values != 0) & (values != 1))):
        raise ValueError(f"{name} must be 0/1 with length {rows}")
    return values.astype(np.uint8)


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer and not a bool, which
    Python counts as an int but a config means as true or false: the
    integer test of every config count, seed and index."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is an integer, as is_integer has it, or a Python or
    numpy float: a number, and not a bool. The number test of every config
    float."""
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
    unless the epoch's loss and the values at its end are finite. Edit
    learning and head training share it."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad or not math.isfinite(loss):
        raise DivergenceError(f"{what} diverged in epoch {epoch + 1} of {epochs}: "
                              f"loss {loss}, {bad} non-finite values")


def one_hot(labels: np.ndarray, dtype) -> np.ndarray:
    """[..., 2] rows of the identity picked by labels [...]."""
    return np.eye(NUM_CLASSES, dtype=dtype)[labels]


def bind_cross_entropy_grad(logits: np.ndarray, exps: np.ndarray, sums: np.ndarray,
                            onehot: np.ndarray, divisor: np.ndarray):
    """The CE gradient (softmax - onehot) / divisor of the [..., 2]
    `logits`, as a function of no arguments that computes it into `exps`
    and returns it: `divisor` holds B for the gradient of the mean over B
    rows, or ones for that of each row's CE. All five arrays have one shape
    (`onehot` and `divisor` may be broadcast views).

    The stabilized softmax: the logits are shifted in place by their row
    max, and `sums` keeps each row's sum of the exps in both of its columns,
    so that the shift and the normalisation are same-shape ops;
    cross_entropy_batch reads the shifted logits and sums after the step.
    The row max and sum are one op each against the columns swapped, not
    reductions: the bytes of a last-axis max and sum at a fraction of the
    cost (a zero tie's sign aside, which changes no exp, loss or gradient).
    The swapped-column views are taken once, here, and each op but the
    maximum takes its output positionally (see bind_optimizer_step).
    """
    maximum, subtract, exp, add, divide = np.maximum, np.subtract, np.exp, np.add, np.divide
    logits_swapped, exps_swapped = logits[..., ::-1], exps[..., ::-1]

    def cross_entropy_grad_step():
        # out= as a keyword: numpy deprecates a third positional argument here
        maximum(logits, logits_swapped, out=sums)  # the row max, until the exps
        subtract(logits, sums, logits)
        exp(logits, exps)
        add(exps, exps_swapped, sums)
        divide(exps, sums, exps)
        subtract(exps, onehot, exps)
        return divide(exps, divisor, exps)
    return cross_entropy_grad_step


def cross_entropy_batch(shifted: np.ndarray, sums: np.ndarray,
                        labels: np.ndarray) -> np.ndarray:
    """The per-sample CE -log softmax[label], [...] for logits [..., 2],
    from the shifted logits and sums a bind_cross_entropy_grad step leaves
    in its buffers. Labels
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
    finite and > 0: the rule bind_optimizer_step, TrainConfig and UdeConfig
    share."""
    if kind not in ("sgd", "adam", "adamw"):
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if not (is_real(lr) and 0 < lr < math.inf):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")


def check_penalty(lam: float) -> None:
    """ValueError unless lam, the edit's L2 penalty coefficient, is a
    number, finite and >= 0: the range UdeConfig and GezoConfig share."""
    if not (is_real(lam) and 0 <= lam < math.inf):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")


def bind_optimizer_step(kind: str, lr: float, param: np.ndarray, grad: np.ndarray):
    """The in-place SGD / Adam / AdamW update of `param` from `grad`, as a
    function of no arguments that returns `param`. The kind, lr and shapes
    are checked once, here, and the state lives in its closure: the step
    count, Adam's m and v stacked in one [2, *shape] buffer (they go through
    each op together, but for the gradient's gains, which are one same-shape
    multiply per half: a multiply broadcasting `grad` over both halves costs
    several times as much), the bias corrections 1 - BETA**t filled across
    the halves of another, and a scratch buffer for every temporary, all in
    the dtype of `param`, in which each update is computed.

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
    decays, (gain_m, gain_v) = full(BETA1, BETA2), full(1.0 - BETA1, 1.0 - BETA2)
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
        multiply(gain_m, grad, step)
        multiply(gain_v, grad, denom)
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
