import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ude.models import (
    EMBED_DIM,
    INPUT_DIM,
    LinearHead,
    TrainConfig,
    _rows_matmul,
    build_encoder,
    encoder_edits_vjp,
    encoder_forward,
    encoder_forward_edits,
    fit_heads,
    head_accuracy,
    head_forward,
    train_head,
)
from ude.numerics import (
    BETA1,
    BETA2,
    EPS_STAB,
    WEIGHT_DECAY,
    bind_cross_entropy_grad,
    bind_optimizer_step,
    check_labels,
    cross_entropy_batch,
)
from ude.oracle import InProcessOracle
from ude.pipeline import PipelineConfig, load_input, save_output
from ude.prng import Xorshift64Star, derive_seed

from conftest import (
    assert_near_float64_forward,
    assert_near_float64_vjp,
    central_diff,
    encoder_digests,
    head_bytes,
    unfactored_forward,
)


def _zero_head(embed_dim):
    return LinearHead(np.zeros((embed_dim, 2), dtype=np.float32),
                      np.zeros(2, dtype=np.float32))


class TestEncoderConstruction:
    def test_shapes(self, encoder):
        assert encoder.w1.shape == (INPUT_DIM, 64)
        assert encoder.w2.shape == (64, 64)
        assert encoder.w3.shape == (64, EMBED_DIM)
        assert encoder.input_dim == INPUT_DIM
        assert encoder.embed_dim == EMBED_DIM

    def test_deterministic_and_seed_sensitive(self):
        a = build_encoder(seed=3)
        b = build_encoder.__wrapped__(seed=3)  # a fresh build, past the memo
        c = build_encoder(seed=4)
        assert build_encoder(seed=3) is a
        assert encoder_digests(a) == encoder_digests(b)
        assert encoder_digests(a) != encoder_digests(c)

    def test_frozen(self, encoder):
        with pytest.raises(ValueError):
            encoder.w1[0, 0] = 1.0

    def test_forward_and_vjp_leave_weights_frozen(self, encoder):
        digests = encoder_digests(encoder)
        x = np.ones((2, INPUT_DIM), dtype=np.float32)
        encoder_forward(encoder, x)
        _, vjp = encoder_edits_vjp(encoder, x, x[:1])
        vjp(np.ones((2, EMBED_DIM), dtype=np.float32))
        assert not any(p.flags.writeable for p in encoder.parameters().values())
        assert encoder_digests(encoder) == digests

    def test_first_layer_matches_documented_stream(self):
        # layer i draws fan_in*fan_out weights row-major, then the bias, all
        # from xorshift64* seeded with derive_seed(seed, i), uniform in
        # +-sqrt(6/(fan_in+fan_out))
        enc = build_encoder(seed=5)
        limit = math.sqrt(6.0 / (INPUT_DIM + 64))
        rng = Xorshift64Star(derive_seed(5, 0))
        w = rng.uniform_array(INPUT_DIM * 64, -limit, limit).reshape(INPUT_DIM, 64)
        b = rng.uniform_array(64, -limit, limit)
        assert np.array_equal(enc.w1, w)
        assert np.array_equal(enc.b1, b)

    def test_glorot_bounds(self, encoder):
        for (fi, fo), w in (((INPUT_DIM, 64), encoder.w1),
                            ((64, 64), encoder.w2),
                            ((64, EMBED_DIM), encoder.w3)):
            limit = math.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= limit)


class TestEncoderForwardBackward:
    def test_forward_shape_and_determinism(self, encoder):
        x = np.random.default_rng(0).normal(size=(5, INPUT_DIM)).astype(np.float32)
        z1 = encoder_forward(encoder, x)
        z2 = encoder_forward(encoder, x)
        assert z1.shape == (5, EMBED_DIM)
        assert np.array_equal(z1, z2)

    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_embedding_does_not_depend_on_its_batch(self, encoder, rows, seed):
        x = np.random.default_rng(seed).normal(size=(rows, INPUT_DIM)).astype(np.float32)
        z = encoder_forward(encoder, x)
        for i in range(rows):
            assert encoder_forward(encoder, x[i:i + 1]).tobytes() == z[i].tobytes()

    def test_forward_rejects_bad_shape(self, encoder):
        with pytest.raises(ValueError):
            encoder_forward(encoder, np.zeros((2, INPUT_DIM + 1), dtype=np.float32))
        with pytest.raises(ValueError):
            encoder_forward(encoder, np.zeros(INPUT_DIM, dtype=np.float32))
        with pytest.raises(ValueError):
            encoder_forward_edits(encoder, np.zeros((2, INPUT_DIM), dtype=np.float32),
                                  np.zeros(INPUT_DIM, dtype=np.float32))

    @given(dtype=st.sampled_from([np.float32, np.float64]), b=st.integers(1, 6),
           m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
           negative_zeros=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_factored_forward_of_edits(self, encoder, dtype, b, m, seed, scale,
                                       negative_zeros):
        # b = 1 and m = 1 take the lone-row product; float64 edits are used
        # in the batch's dtype
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(b, INPUT_DIM)).astype(dtype)
        edits = rng.normal(size=(m, INPUT_DIM)) * scale
        zero = np.zeros((1, INPUT_DIM), dtype=dtype)
        for x in (batch, edits, zero):
            x[rng.random(x.shape) < negative_zeros] = -0.0
        z = encoder_forward_edits(encoder, batch, edits)
        assert z.shape == (m * b, EMBED_DIM) and z.dtype == dtype
        assert z.tobytes() == encoder_forward_edits(encoder, batch, edits.astype(dtype)).tobytes()
        assert encoder_forward_edits(encoder, batch, zero).tobytes() == \
            encoder_forward(encoder, batch).tobytes() == \
            unfactored_forward(encoder, batch).tobytes()
        for i, zi in enumerate(z.reshape(m, b, EMBED_DIM)):
            assert zi.tobytes() == encoder_forward_edits(encoder, batch, edits[i:i + 1]).tobytes()
            assert_near_float64_forward(encoder, zi, batch, edits[i])
            # the unfactored forward of the edited rows meets the same bound
            edited = batch + edits[i].astype(dtype)
            assert_near_float64_forward(encoder, unfactored_forward(encoder, edited), batch,
                                        edits[i])

    @given(dtype=st.sampled_from([np.float32, np.float64]), b=st.integers(1, 64),
           m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 10.0, 1e3]))
    @example(dtype=np.float32, b=1, m=1, seed=0, scale=0.0)
    @settings(max_examples=40, deadline=None)
    def test_factored_vjp_of_edits(self, encoder, dtype, b, m, seed, scale):
        # one [D] gradient per edit, each within the float64 bound of the
        # summed input gradients of its edited rows; the forward is
        # encoder_forward_edits' bytes
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(b, INPUT_DIM)).astype(dtype)
        edits = rng.normal(size=(m, INPUT_DIM)) * scale
        upstream = rng.normal(size=(m * b, EMBED_DIM)).astype(dtype)
        z, vjp = encoder_edits_vjp(encoder, batch, edits)
        assert z.tobytes() == encoder_forward_edits(encoder, batch, edits).tobytes()
        grads = vjp(upstream)
        assert grads.shape == (m, INPUT_DIM) and grads.dtype == dtype
        for i in range(m):
            assert_near_float64_vjp(encoder, grads[i], batch, edits[i],
                                    upstream[i * b:(i + 1) * b])

    @given(dtype=st.sampled_from([np.float32, np.float64]), b=st.integers(1, 70),
           m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(dtype=np.float32, b=1, m=1, seed=0)
    @example(dtype=np.float64, b=1, m=1, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_in_place_forward_and_vjp_have_the_allocating_bytes(self, encoder, dtype, b,
                                                                 m, seed):
        # the bias adds and tanh run in place; each op and its order are
        # those of the allocating expression below, so every byte is too
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(b, INPUT_DIM)).astype(dtype)
        edits = rng.normal(size=(m, INPUT_DIM)).astype(np.float32)
        upstream = rng.normal(size=(m * b, EMBED_DIM)).astype(dtype)
        w1, b1, w2, b2, w3, b3 = (p.astype(dtype) for p in encoder.parameters().values())
        h1 = np.tanh(_rows_matmul(batch, w1)[None]
                     + _rows_matmul(edits.astype(dtype), w1)[:, None] + b1)
        h2 = np.tanh(_rows_matmul(h1.reshape(-1, w1.shape[1]), w2) + b2)
        want_z = _rows_matmul(h2, w3) + b3
        g1 = ((upstream @ w3.T) * (1.0 - h2 * h2) @ w2.T).reshape(h1.shape) * (1.0 - h1 * h1)
        z, vjp = encoder_edits_vjp(encoder, batch, edits)
        assert z.dtype == dtype and z.tobytes() == want_z.tobytes()
        assert vjp(upstream).tobytes() == (g1.sum(axis=1) @ w1.T).tobytes()

    def test_edit_grad_matches_finite_differences(self, encoder):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, INPUT_DIM))
        edits = rng.normal(size=(2, INPUT_DIM)) * 0.1
        upstream = rng.normal(size=(6, EMBED_DIM))
        z, vjp = encoder_edits_vjp(encoder, x, edits)
        assert z.tobytes() == encoder_forward_edits(encoder, x, edits).tobytes()
        analytic = vjp(upstream)

        for i in range(2):
            probe = rng.choice(INPUT_DIM, size=10, replace=False)

            def scalar(e, i=i):
                z = encoder_forward(encoder, x + e)
                return float(np.sum(z * upstream[3 * i:3 * i + 3]))

            full = central_diff(scalar, edits[i])
            assert np.allclose(analytic[i][probe], full[probe], rtol=1e-6, atol=1e-8)

    def test_edit_grad_upstream_shape_checked(self, encoder):
        x = np.zeros((2, INPUT_DIM), dtype=np.float32)
        _, vjp = encoder_edits_vjp(encoder, x, x)
        for shape in ((4, EMBED_DIM + 1), (2, EMBED_DIM), (4 * EMBED_DIM,)):
            with pytest.raises(ValueError):
                vjp(np.zeros(shape))


class TestHeadTraining:
    def test_zero_head_predicts_class_zero(self):
        head = _zero_head(4)
        logits = head_forward(head, np.ones((3, 4), dtype=np.float32))
        assert np.all(np.argmax(logits, axis=1) == 0)

    def test_head_forward_dim_check(self):
        with pytest.raises(ValueError):
            head_forward(_zero_head(4), np.zeros((2, 5), dtype=np.float32))

    def test_train_head_learns_separable_embeddings(self, encoder, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        cfg = TrainConfig("adam", 1e-2, epochs=30, batch_size=16)
        head, trace = train_head(oracle, train.images, train.sa_labels, cfg, 0)
        assert len(trace) == 30
        assert trace[-1] < trace[0]
        z = oracle.embed(train.images)
        assert head_accuracy(head, z, train.sa_labels) > 0.8

    def test_train_head_deterministic(self, encoder, small_data):
        _, train, _ = small_data
        cfg = TrainConfig("adam", 1e-3, epochs=3, batch_size=16)
        h1, _ = train_head(InProcessOracle(encoder), train.images, train.sa_labels, cfg, 7)
        h2, _ = train_head(InProcessOracle(encoder), train.images, train.sa_labels, cfg, 7)
        assert head_bytes(h1) == head_bytes(h2)

    def test_train_head_empty_dataset(self, encoder):
        with pytest.raises(ValueError):
            train_head(InProcessOracle(encoder),
                       np.zeros((0, INPUT_DIM), dtype=np.float32),
                       np.zeros(0, dtype=np.uint8), TrainConfig("adam", 1e-4, 50, 64), 0)


# The textbook formulas the training loop must reproduce byte for byte,
# written out here so that the gate does not share code with what it gates:
# the allocating cross-entropy (last-axis max and sum reductions, scattered
# label entries) and the allocating SGD/Adam/AdamW expressions.

def textbook_cross_entropy(logits, labels):
    """Per-sample CE losses [B] and the gradient softmax - onehot [B,K]."""
    logits = np.ascontiguousarray(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    pos = np.arange(0, shifted.shape[-1] * len(labels), shifted.shape[-1]) + labels
    loss = -(shifted.ravel()[pos] - np.log(s).ravel())
    grad = e / s
    grad.ravel()[pos] -= 1.0
    return loss, grad


class TextbookOptimizer:
    """One parameter tensor's SGD/Adam/AdamW state; step returns a new array."""

    def __init__(self, kind, lr, shape, dtype=np.float32):
        self.kind, self.lr, self.t = kind, lr, 0
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)

    def step(self, param, grad):
        if self.kind == "sgd":
            return param - self.lr * grad
        if self.kind == "adamw":
            param = param - self.lr * WEIGHT_DECAY * param
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        m_hat = self.m / (1.0 - BETA1 ** self.t)
        v_hat = self.v / (1.0 - BETA2 ** self.t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + EPS_STAB)


def reference_train_head(oracle, images, labels, cfg, seed):
    """The loop train_head replaced, in the textbook formulas: one optimizer
    per tensor on every step."""
    n = images.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    labels = check_labels(labels)
    z = oracle.embed(images)

    head = _zero_head(z.shape[1])
    opt_w = TextbookOptimizer(cfg.optimizer, cfg.lr, head.weight.shape)
    opt_b = TextbookOptimizer(cfg.optimizer, cfg.lr, head.bias.shape)
    rng = np.random.default_rng(derive_seed(seed, 0x7EAD))
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            zb, yb = z[idx], labels[idx]
            logits = head_forward(head, zb)
            losses, g = textbook_cross_entropy(logits, yb)
            total += float(np.sum(losses))
            g = g.astype(np.float32) / len(idx)
            head.weight = opt_w.step(head.weight, zb.T @ g)
            head.bias = opt_b.step(head.bias, g.sum(axis=0))
        trace.append(total / n)
    return head, trace


class TestOptimizerStepMatchesTextbook:
    @given(kind=st.sampled_from(["sgd", "adam", "adamw"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           shape=array_shapes(min_dims=0, max_dims=3, max_side=6),
           lr=st.sampled_from([1e-4, 1.25e-4, 1e-2, 0.5]),
           steps=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    # fit_heads' parameter shape, past the step where the float32 1 - BETA1**t
    # rounds to 1
    @example(kind="adam", dtype=np.float32, shape=(2, 33, 2), lr=1e-4, steps=400, seed=6)
    @example(kind="adamw", dtype=np.float32, shape=(2, 33, 2), lr=1e-2, steps=400, seed=7)
    @settings(max_examples=150, deadline=None)
    def test_in_place_step_same_bytes(self, kind, dtype, shape, lr, steps, seed):
        rng = np.random.default_rng(seed)
        param = rng.normal(size=shape).astype(dtype)
        ref_param, ref = param.copy(), TextbookOptimizer(kind, lr, shape, dtype)
        grad = np.empty_like(param)
        step = bind_optimizer_step(kind, lr, param, grad)
        for _ in range(steps):
            # gradients over many scales, exact zeros included
            grad[...] = (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3, size=shape)
                         * (rng.random(size=shape) > 0.1)).astype(dtype)
            assert step() is param
            ref_param = ref.step(ref_param, grad)
            assert param.dtype == ref_param.dtype
            assert param.tobytes() == ref_param.tobytes()


class TestTrainHeadMatchesReference:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "adamw"])
    def test_same_bytes_and_trace(self, encoder, small_data, optimizer):
        _, train, _ = small_data
        cfg = TrainConfig(optimizer, 1e-2, epochs=4, batch_size=16)
        assert train.images.shape[0] % cfg.batch_size != 0  # a partial last batch
        head, trace = train_head(InProcessOracle(encoder), train.images,
                                 train.sa_labels, cfg, 3)
        ref_head, ref_trace = reference_train_head(InProcessOracle(encoder), train.images,
                                                   train.sa_labels, cfg, 3)
        assert head.weight.dtype == ref_head.weight.dtype == np.float32
        assert head.weight.shape == ref_head.weight.shape
        assert head_bytes(head) == head_bytes(ref_head)
        assert trace == ref_trace

    @pytest.mark.parametrize("bad", [2, -1])
    def test_out_of_range_label_raises(self, encoder, small_data, bad):
        _, train, _ = small_data
        labels = train.sa_labels.astype(np.int64)
        labels[-1] = bad
        with pytest.raises(IndexError):
            train_head(InProcessOracle(encoder), train.images, labels,
                       TrainConfig("adam", 1e-4, 1, 16), 0)


class _FixedEmbeddings:
    """An oracle that answers every embed call with the same embeddings."""

    def __init__(self, z):
        self.z = z

    def embed(self, images):
        return self.z


@st.composite
def stacked_logits_and_labels(draw):
    """[K,B,2] float32 logits in +-200 or, the logits of a diverging head,
    +-inf or NaN; labels [B] and an embedding seed."""
    k, b = draw(st.integers(1, 3)), draw(st.integers(1, 16))
    logits = draw(arrays(np.float32, (k, b, 2), elements=st.one_of(
        st.floats(-200, 200, width=32), st.sampled_from([np.inf, -np.inf, np.nan]))))
    labels = draw(arrays(np.int64, b, elements=st.integers(0, 1)))
    return logits, labels, draw(st.integers(0, 2**32 - 1))


def assert_same_numbers(got, want):
    """NaN exactly where `want` is NaN, and its bytes everywhere else."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestFitHeadsMatchesSeparateHeads:
    @given(k=st.integers(1, 3), optimizer=st.sampled_from(["sgd", "adam", "adamw"]),
           batch_size=st.integers(1, 9), full_batches=st.integers(0, 4),
           remainder=st.integers(0, 8), epochs=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(k=2, optimizer="adamw", batch_size=1, full_batches=3, remainder=0,
             epochs=2, seed=0)  # batches of one row
    @example(k=2, optimizer="adam", batch_size=4, full_batches=3, remainder=0,
             epochs=2, seed=1)  # no partial last batch
    @example(k=1, optimizer="adam", batch_size=9, full_batches=0, remainder=5,
             epochs=2, seed=2)  # only a partial batch
    # batches of more rows than the drawn range: the bias gradient is the
    # ones row of the backward matmul, which must sum the B rows in order
    @example(k=2, optimizer="adamw", batch_size=16, full_batches=3, remainder=5,
             epochs=2, seed=3)
    @example(k=3, optimizer="sgd", batch_size=33, full_batches=2, remainder=20,
             epochs=2, seed=4)
    @example(k=1, optimizer="adam", batch_size=64, full_batches=2, remainder=0,
             epochs=2, seed=5)
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_and_traces_as_one_run_per_head(
            self, k, optimizer, batch_size, full_batches, remainder, epochs, seed):
        n = full_batches * batch_size + remainder % batch_size
        assume(n > 0)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(k, n, EMBED_DIM)).astype(np.float32)
        labels = rng.integers(0, 2, size=n)
        cfg = TrainConfig(optimizer, 5e-2, epochs=epochs, batch_size=batch_size)
        fitted = fit_heads(z, labels, cfg, seed)
        assert len(fitted) == k
        for zk, (head, trace) in zip(z, fitted):
            ref_head, ref_trace = reference_train_head(
                _FixedEmbeddings(zk), np.empty((n, 1)), labels, cfg, seed)
            assert head.weight.flags.owndata and head.bias.flags.owndata
            assert head_bytes(head) == head_bytes(ref_head)
            assert trace == ref_trace

    @given(stacked_logits_and_labels())
    @example((np.array([[[0.0, -120.0], [50.0, 0.0]], [[3.0, 1.0], [-7.5, 2.0]]],
                       dtype=np.float32), np.array([0, 0]), 0))  # losses of exactly -0.0
    @example((np.array([[[np.inf, 1.0], [-np.inf, 0.0]], [[np.nan, 2.0], [3.0, 4.0]]],
                       dtype=np.float32), np.array([1, 0]), 0))  # a diverging head
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_stacked_step_same_bytes_as_per_head_step(self, case):
        """One fit_heads step on [K,B,2] logits: the cross-entropy gradient
        step that numerics.bind_cross_entropy_grad binds to the logits (which
        it shifts in place), the exps buffer, logits-shaped sums, same-shape
        one-hot targets and a same-shape batch size, run twice to show that
        its views stay bound to the buffers; and one [K,E+1,B] @ [K,B,2]
        backward matmul over the embeddings with a ones column, whose rows
        are the weight gradient and then the bias gradient; after the epoch,
        the losses from the kept shifted logits and sums and their last-axis
        batch sums. Each head against its textbook 2-D step, bytes-equal
        where the textbook value is a number and NaN where it is NaN, so a
        diverging head turns non-finite in the same epoch."""
        logits, labels, seed = case
        k, b, _ = logits.shape
        zb = np.random.default_rng(seed).normal(size=(k, b, EMBED_DIM)).astype(np.float32)
        zb = np.concatenate((zb, np.ones((k, b, 1), np.float32)), axis=2)
        shifted, g, sums = np.empty_like(logits), np.empty_like(logits), np.empty_like(logits)
        targets = np.broadcast_to(np.eye(2, dtype=np.float32)[labels], logits.shape).copy()
        step = bind_cross_entropy_grad(shifted, g, sums, targets,
                                       np.full(g.shape, b, np.float32))
        for _ in range(2):
            shifted[...] = logits
            assert step() is g
        grads = np.matmul(zb.transpose(0, 2, 1), g)
        losses = cross_entropy_batch(shifted[None], sums[None], labels[None, None])[0]
        batch_sums = losses.sum(axis=-1)
        for j in range(k):
            ref_losses, ref_g = textbook_cross_entropy(logits[j], labels)
            ref_g /= b
            assert_same_numbers(losses[j], ref_losses)
            assert_same_numbers(batch_sums[j], ref_losses.sum())
            assert_same_numbers(g[j], ref_g)
            assert_same_numbers(grads[j, :-1], zb[j, :, :-1].T @ ref_g)
            assert_same_numbers(grads[j, -1], ref_g.sum(axis=0))

    @given(k=st.integers(1, 2), n=st.integers(1, 20), batch_size=st.integers(1, 8),
           optimizer=st.sampled_from(["sgd", "adam", "adamw"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bool_labels_give_the_bytes_of_their_uint8_form(self, k, n, batch_size,
                                                            optimizer, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(k, n, EMBED_DIM)).astype(np.float32)
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        cfg = TrainConfig(optimizer, 5e-2, epochs=2, batch_size=batch_size)
        fitted = fit_heads(z, labels.astype(bool), cfg, seed)
        for (head, trace), (ref_head, ref_trace) in zip(fitted, fit_heads(z, labels, cfg,
                                                                          seed)):
            assert head_bytes(head) == head_bytes(ref_head)
            assert trace == ref_trace

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 1.0, 0.0, 1.0]),
                                        np.full(5, 0.5),
                                        np.array(list("01101"), dtype=object)],
                             ids=["float", "half", "object"])
    def test_rejects_non_integer_labels(self, labels):
        z = np.zeros((1, 5, EMBED_DIM), dtype=np.float32)
        with pytest.raises(TypeError, match="labels must be integers or bools"):
            fit_heads(z, labels, TrainConfig("adam", 1e-4, 1, 64), 0)
        with pytest.raises(TypeError, match="labels must be integers or bools"):
            head_accuracy(_zero_head(EMBED_DIM), z[0], labels)

    def test_rejects_bad_shapes(self):
        z, cfg = np.zeros((2, 5, EMBED_DIM), dtype=np.float32), TrainConfig("adam", 1e-4, 50, 64)
        with pytest.raises(ValueError):
            fit_heads(z[0], np.zeros(5, dtype=np.int64), cfg, 0)
        with pytest.raises(ValueError):
            fit_heads(z, np.zeros(4, dtype=np.int64), cfg, 0)
        with pytest.raises(ValueError):
            fit_heads(z[:, :0], np.zeros(0, dtype=np.int64), cfg, 0)
        # one label scored against every row
        with pytest.raises(ValueError, match=r"10 rows need labels of shape \(10,\)"):
            head_accuracy(_zero_head(EMBED_DIM), np.zeros((10, EMBED_DIM), np.float32),
                          np.array([0]))


class TestPersistence:
    def test_head_round_trip(self, tmp_path):
        head = _zero_head(EMBED_DIM)
        head.weight += np.float32(0.25)
        save_output({"erm_head": head}, "erm_head", tmp_path / "h")
        back = load_input(PipelineConfig(), "erm_head", tmp_path / "h")
        assert head_bytes(back) == head_bytes(head)
