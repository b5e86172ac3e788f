import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ude.numerics import (
    cross_entropy,
    cross_entropy_batch,
    cross_entropy_grad,
    cross_entropy_loss_and_grad,
    init_optimizer,
    l2_norm,
    l2_norm_grad,
    optimizer_step,
)

from conftest import central_diff

finite_floats = st.floats(-30, 30, allow_nan=False, allow_infinity=False)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(2))

    def test_saturated_correct_class(self):
        assert cross_entropy(np.array([100.0, 0.0]), 0) <= 1e-8

    def test_two_class_value(self):
        # -log(e^{-1} / (e^{1} + e^{-1})) = 2 + ln(1 + e^{-2})
        expected = 2.1269280110429727
        assert cross_entropy(np.array([1.0, -1.0]), 1) == pytest.approx(expected, abs=1e-12)

    def test_class_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.0, 1.0]), 2)

    def test_non_finite_logits(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([np.nan, 0.0]), 0)

    def test_large_logits_stable(self):
        assert np.isfinite(cross_entropy(np.array([1000.0, -1000.0]), 1))

    @given(arrays(np.float64, st.integers(2, 6), elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_softmax_normalization(self, logits):
        # summing exp(-CE) over all label choices recovers 1
        total = sum(math.exp(-cross_entropy(logits, k)) for k in range(len(logits)))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            logits = rng.normal(0, 3, k)
            label = int(rng.integers(k))
            analytic = cross_entropy_grad(logits[None, :], [label])[0]
            numeric = central_diff(lambda x: cross_entropy(x, label), logits)
            assert np.max(np.abs(analytic - numeric)) < 1e-6 * max(1, np.max(np.abs(numeric)))

    @pytest.mark.parametrize("fn", [cross_entropy_batch, cross_entropy_grad])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_batch_label_out_of_range(self, fn, bad):
        with pytest.raises(IndexError):
            fn(np.zeros((2, 2), dtype=np.float32), np.array([0, bad]))

    def test_batch_matches_scalar(self):
        logits = np.array([[1.0, -1.0], [0.5, 0.5]])
        labels = np.array([1, 0])
        per_sample = cross_entropy_batch(logits, labels)
        assert per_sample[0] == pytest.approx(cross_entropy(logits[0], 1))
        assert per_sample[1] == pytest.approx(cross_entropy(logits[1], 0))


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
        loss, grad = cross_entropy_loss_and_grad(logits, labels)
        assert loss.tobytes() == cross_entropy_batch(logits, labels).tobytes()
        assert grad.tobytes() == cross_entropy_grad(logits, labels).tobytes()
        f_loss, f_grad = cross_entropy_loss_and_grad(np.asfortranarray(logits), labels)
        assert (f_loss.tobytes(), f_grad.tobytes()) == (loss.tobytes(), grad.tobytes())
        # and as the separate formulas: -log_softmax[y], softmax - onehot
        rows = np.arange(len(labels))
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        sums = np.sum(np.exp(shifted), axis=-1, keepdims=True)
        ref_grad = np.exp(shifted) / sums
        ref_grad[rows, labels] -= 1.0
        assert loss.tobytes() == (-(shifted - np.log(sums))[rows, labels]).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert loss.dtype == grad.dtype == np.float32


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


class TestOptimizers:
    def test_sgd_definition(self):
        state = init_optimizer("sgd", 0.1, (1,))
        out = optimizer_step(state, np.array([1.0]), np.array([2.0]))
        assert out == pytest.approx([0.8])

    def test_adam_first_step(self):
        # m1=0.1, v1=0.001, bias-corrected m=v=1 -> step = lr/(1+eps)
        state = init_optimizer("adam", 0.01, (1,), dtype=np.float64)
        out = optimizer_step(state, np.array([0.0]), np.array([1.0]))
        assert out == pytest.approx([-0.01], rel=1e-6)

    def test_adam_zero_grad_keeps_param(self):
        state = init_optimizer("adam", 0.01, (1,))
        out = optimizer_step(state, np.array([1.5]), np.array([0.0]))
        assert out == pytest.approx([1.5])

    def test_adam_sign_equivariance(self):
        rng = np.random.default_rng(5)
        grad = rng.normal(size=4)
        p = np.zeros(4)
        s1 = init_optimizer("adam", 0.01, (4,), dtype=np.float64)
        s2 = init_optimizer("adam", 0.01, (4,), dtype=np.float64)
        step_pos = optimizer_step(s1, p, grad)
        step_neg = optimizer_step(s2, p, -grad)
        assert np.array_equal(step_pos, -step_neg)

    def test_adamw_decoupled_decay(self):
        state = init_optimizer("adamw", 0.1, (1,), weight_decay=0.5)
        out = optimizer_step(state, np.array([2.0]), np.array([0.0]))
        # decay shrinks the parameter even with zero gradient
        assert out == pytest.approx([2.0 * (1 - 0.1 * 0.5)])

    def test_shape_mismatch(self):
        state = init_optimizer("adam", 0.01, (2,))
        with pytest.raises(ValueError):
            optimizer_step(state, np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [dict(kind="rmsprop", lr=0.1),
                                     dict(kind="adam", lr=-1.0),
                                     dict(kind="adam", lr=0.1, beta1=1.0)])
    def test_invalid_config(self, bad):
        with pytest.raises(ValueError):
            init_optimizer(bad.pop("kind"), bad.pop("lr"), (1,), **bad)
