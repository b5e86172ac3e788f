import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ude.numerics import (
    BETA1,
    BETA2,
    EPS_STAB,
    WEIGHT_DECAY,
    bind_cross_entropy_grad,
    bind_optimizer_step,
    check_labels,
    cross_entropy_batch,
    l2_norm,
    l2_norm_grad,
    one_hot,
)

from conftest import central_diff

finite_floats = st.floats(-30, 30, allow_nan=False, allow_infinity=False)


def losses_and_grad(logits, labels):
    """Per-sample CE losses and their gradient from one run of the bound
    step with a divisor of ones, as the edit objectives take them; the
    step shifts a copy of the logits."""
    shifted, labels = np.array(logits), np.asarray(labels)
    exps, sums = np.empty_like(shifted), np.empty_like(shifted)
    onehot = np.broadcast_to(one_hot(labels, shifted.dtype), shifted.shape)
    grad = bind_cross_entropy_grad(shifted, exps, sums, onehot, np.ones_like(shifted))()
    return cross_entropy_batch(shifted, sums, labels), grad


def _ce(logits, label: int) -> float:
    """The CE of one logit vector, through the batched function."""
    losses, _ = losses_and_grad(np.asarray(logits)[None], np.array([label]))
    return float(losses[0])


def checked_losses(logits, labels):
    """Per-sample CE losses as src callers take them: labels checked first."""
    return losses_and_grad(logits, check_labels(labels))[0]


def checked_grad(logits, labels):
    """The CE gradient as src callers take it: labels checked first."""
    return losses_and_grad(logits, check_labels(labels))[1]


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert _ce([0.0, 0.0], 0) == pytest.approx(math.log(2))

    def test_saturated_correct_class(self):
        assert _ce([100.0, 0.0], 0) <= 1e-8

    def test_two_class_value(self):
        # -log(e^{-1} / (e^{1} + e^{-1})) = 2 + ln(1 + e^{-2})
        expected = 2.1269280110429727
        assert _ce([1.0, -1.0], 1) == pytest.approx(expected, abs=1e-12)

    def test_class_out_of_range(self):
        labels = check_labels([0, 1, 1])
        assert isinstance(labels, np.ndarray) and labels.tolist() == [0, 1, 1]
        for bad in (np.array([0, 2]), np.array([0, -1]), np.array([0, 2], np.uint16)):
            with pytest.raises(IndexError, match="label out of range"):
                check_labels(bad)

    def test_labels_are_integers(self):
        labels = check_labels(np.array([True, False, True]))
        assert labels.dtype == np.uint8 and labels.tolist() == [1, 0, 1]
        for dtype in (np.int8, np.uint16, np.int64):
            assert check_labels(np.array([0, 1], dtype=dtype)).dtype == dtype
        for bad in (np.array([0.0, 1.0]), np.array([0, 1], dtype=np.float32),
                    np.array([1 + 0j]), np.array(["0", "1"]), np.array([0, 1], "m8[s]")):
            with pytest.raises(TypeError, match=re.escape(str(bad.dtype))):
                check_labels(bad)

    def test_one_label_per_row(self):
        assert check_labels([0, 1, 1], 3).tolist() == [0, 1, 1]
        # no rows: nothing for a head to train on or be scored on
        with pytest.raises(ValueError, match="empty batch"):
            check_labels(np.array([], np.int64), 0)
        for bad in ([0, 1], [[0], [1], [1]], 1):
            with pytest.raises(ValueError, match=r"3 rows need labels of shape \(3,\)"):
                check_labels(bad, 3)

    def test_large_logits_stable(self):
        assert np.isfinite(_ce([1000.0, -1000.0], 1))

    @given(arrays(np.float64, 2, elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_softmax_normalization(self, logits):
        # summing exp(-CE) over both label choices recovers 1
        losses, _ = losses_and_grad(np.tile(logits, (2, 1)), np.arange(2))
        assert np.sum(np.exp(-losses)) == pytest.approx(1.0, abs=1e-6)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits = rng.normal(0, 3, 2)
            label = int(rng.integers(2))
            analytic = losses_and_grad(logits[None, :], np.array([label]))[1][0]
            numeric = central_diff(lambda x: _ce(x, label), logits)
            assert np.max(np.abs(analytic - numeric)) < 1e-6 * max(1, np.max(np.abs(numeric)))

    @pytest.mark.parametrize("fn", [checked_losses, checked_grad],
                             ids=["cross_entropy_batch", "cross_entropy_grad"])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_batch_label_out_of_range(self, fn, bad):
        with pytest.raises(IndexError):
            fn(np.zeros((2, 2), dtype=np.float32), np.array([0, bad]))

    def test_batch_matches_scalar(self):
        logits = np.array([[1.0, -1.0], [0.5, 0.5]])
        per_sample, _ = losses_and_grad(logits, np.array([1, 0]))
        assert per_sample[0] == pytest.approx(_ce(logits[0], 1))
        assert per_sample[1] == pytest.approx(_ce(logits[1], 0))


@st.composite
def logits_and_labels(draw):
    b = draw(st.integers(1, 16))
    logits = draw(arrays(np.float32, (b, 2),
                         elements=st.floats(-200, 200, width=32)))
    labels = draw(arrays(np.int64, b, elements=st.integers(0, 1)))
    return logits, labels


class TestFusedCrossEntropy:
    @given(logits_and_labels())
    @example((np.array([[0.0, -120.0], [50.0, 0.0]], dtype=np.float32),
              np.array([0, 0])))  # losses of exactly -0.0
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_separate_functions(self, case):
        logits, labels = case
        loss, grad = losses_and_grad(logits, labels)
        f_loss, f_grad = losses_and_grad(np.asfortranarray(logits), labels)
        assert (f_loss.tobytes(), f_grad.tobytes()) == (loss.tobytes(), grad.tobytes())
        # the same bytes as the separate formulas: -log_softmax[y], softmax - onehot
        rows = np.arange(len(labels))
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        sums = np.sum(np.exp(shifted), axis=-1, keepdims=True)
        ref_grad = np.exp(shifted) / sums
        ref_grad[rows, labels] -= 1.0
        assert loss.tobytes() == (-(shifted - np.log(sums))[rows, labels]).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert loss.dtype == grad.dtype == np.float32


def column_softmax(logits):
    """The softmax terms from a row max and sum of one op on the two columns,
    in [...] buffers that the shift and the normalisation broadcast:
    (shifted, row sums, losses, gradient) for labels 0."""
    shifted = logits - np.maximum(logits[..., 0], logits[..., 1])[..., None]
    exps = np.exp(shifted)
    sums = np.add(exps[..., 0], exps[..., 1])
    grad = exps / sums[..., None]
    grad[..., 0] -= 1.0
    return shifted, sums, -(shifted[..., 0] - np.log(sums)), grad


# every float32 but the NaNs of other payloads, with the special values often
special_floats = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45]),
    st.floats(width=32, allow_nan=False))


class TestLogitsShapedSums:
    @given(arrays(np.float32, st.tuples(st.integers(1, 12), st.just(2)),
                  elements=special_floats))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0], [np.inf, -np.inf], [np.nan, 1.0],
                       [1.0, np.nan], [np.inf, np.inf], [-np.inf, -np.inf]],
                      dtype=np.float32))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_columns_hold_the_bytes_of_the_column_ops(self, logits):
        """Each column of the logits-shaped row sum that the bound step keeps
        holds the bytes of the one-op sum of the two columns; the row max's
        column 1 is max(x1, x0), which differs only in the sign of a zero
        tie, and so does the shifted logit there. The losses and gradient
        are the column ops' bytes. The step returns its exps buffer, and a
        second run on fresh logits gives the same bytes: its swapped-column
        views stay bound to the buffers."""
        shifted, sums, losses, grad = column_softmax(logits)
        labels = np.zeros(len(logits), dtype=np.int64)
        got_shifted, got_exps, got_sums = (np.empty_like(logits) for _ in range(3))
        step = bind_cross_entropy_grad(got_shifted, got_exps, got_sums,
                                       one_hot(labels, logits.dtype), np.ones_like(logits))
        zero_tie = (logits[:, 0] == 0) & (logits[:, 1] == 0)
        for _ in range(2):
            got_shifted[...] = logits
            assert step() is got_exps
            for j in range(2):
                assert got_sums[:, j].tobytes() == sums.tobytes()
            assert got_shifted[~zero_tie].tobytes() == shifted[~zero_tie].tobytes()
            assert np.all(got_shifted[zero_tie] == 0)
            got_losses = cross_entropy_batch(got_shifted, got_sums, labels)
            assert got_losses.tobytes() == losses.tobytes()
            assert got_exps.tobytes() == grad.tobytes()


class TestL2Norm:
    def test_origin(self):
        eps = np.zeros(5, dtype=np.float32)
        assert l2_norm(eps) == 0.0
        assert np.all(l2_norm_grad(eps) == 0.0)

    def test_three_four(self):
        eps = np.array([3.0, 4.0])
        assert l2_norm(eps) == pytest.approx(5.0)
        assert l2_norm_grad(eps) == pytest.approx([0.6, 0.8])

    def test_signs(self):
        assert l2_norm_grad(np.array([-3.0, 4.0])) == pytest.approx([-0.6, 0.8])

    @given(arrays(np.float32, st.tuples(st.integers(1, 16), st.integers(1, 300)),
                  elements=st.floats(-1e3, 1e3, width=32)))
    @settings(max_examples=100, deadline=None)
    def test_stack_same_bytes_as_each_row(self, stack):
        # each row the bytes of the one-edit formula, a float64 sum of squares
        rows = [float(np.sqrt(np.sum(row.astype(np.float64) ** 2))) for row in stack]
        norms = l2_norm(stack)
        assert norms.dtype == np.float64 and norms.shape == stack.shape[:1]
        assert norms.tobytes() == np.array(rows).tobytes()
        assert [l2_norm(row) for row in stack] == rows

    @given(arrays(np.float64, st.integers(1, 8),
                  elements=st.floats(-10, 10, allow_nan=False)))
    @example(np.array([1e-4, 1e-4]))
    @settings(max_examples=50, deadline=None)
    def test_grad_matches_finite_differences(self, eps):
        if l2_norm(eps) < 1e-6:
            return
        # a step fixed in absolute size swamps the difference near the origin
        numeric = central_diff(l2_norm, eps, h=1e-5 * l2_norm(eps))
        assert np.allclose(l2_norm_grad(eps), numeric, atol=1e-5)


def one_step(kind, lr, param, grad):
    """param after one bound step from grad, each written into the buffers
    the step is bound to."""
    param = np.array(param, dtype=float)
    bound_grad = np.empty_like(param)
    step = bind_optimizer_step(kind, lr, param, bound_grad)
    bound_grad[...] = grad
    assert step() is param
    return param


class TestOptimizers:
    def test_sgd_definition(self):
        out = one_step("sgd", 0.1, [1.0], [2.0])
        assert out == pytest.approx([0.8])

    def test_adam_first_step(self):
        # m1=0.1, v1=0.001, bias-corrected m=v=1 -> step = lr/(1+eps)
        out = one_step("adam", 0.01, [0.0], [1.0])
        assert out == pytest.approx([-0.01], rel=1e-6)

    def test_adam_zero_grad_keeps_param(self):
        out = one_step("adam", 0.01, [1.5], [0.0])
        assert out == pytest.approx([1.5])

    def test_adam_sign_equivariance(self):
        rng = np.random.default_rng(5)
        grad = rng.normal(size=4)
        p = np.zeros(4)
        step_pos = one_step("adam", 0.01, p, grad)
        step_neg = one_step("adam", 0.01, p, -grad)
        assert np.array_equal(step_pos, -step_neg)

    def test_adamw_decoupled_decay(self):
        out = one_step("adamw", 0.1, [2.0], [0.0])
        # decay shrinks the parameter even with zero gradient
        assert out == pytest.approx([2.0 * (1 - 0.1 * WEIGHT_DECAY)])

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamw"])
    def test_float64_param_gets_float64_update(self, kind):
        grad = np.array([1 / 3])
        out = one_step(kind, 0.1, [0.0], grad)  # no decay from 0
        m, v = (1 - BETA1) * grad, (1 - BETA2) * grad * grad
        expected = -(0.1 * grad) if kind == "sgd" else \
            -(0.1 * (m / (1 - BETA1)) / (np.sqrt(v / (1 - BETA2)) + EPS_STAB))
        assert out.dtype == np.float64
        assert out.tobytes() == expected.tobytes()
        assert expected.astype(np.float32) != expected  # not a float32 update

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bind_optimizer_step("adam", 0.01, np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [dict(kind="rmsprop", lr=0.1),
                                     dict(kind="adam", lr=-1.0)])
    def test_invalid_config(self, bad):
        with pytest.raises(ValueError):
            bind_optimizer_step(bad["kind"], bad["lr"], np.zeros(1), np.zeros(1))
