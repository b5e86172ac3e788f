import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ude.models import (
    EMBED_DIM,
    INPUT_DIM,
    TrainConfig,
    build_encoder,
    encoder_forward,
    encoder_input_grad,
    fit_heads,
    head_accuracy,
    head_forward,
    load_encoder,
    load_head,
    save_encoder,
    save_head,
    train_head,
    zero_head,
)
from ude.numerics import (
    cross_entropy_batch,
    cross_entropy_grad,
    cross_entropy_loss_and_grad,
    init_optimizer,
    optimizer_step,
)
from ude.oracle import InProcessOracle
from ude.prng import Xorshift64Star, derive_seed

from conftest import central_diff


class TestEncoderConstruction:
    def test_shapes(self, encoder):
        assert encoder.w1.shape == (INPUT_DIM, 64)
        assert encoder.w2.shape == (64, 64)
        assert encoder.w3.shape == (64, EMBED_DIM)
        assert encoder.input_dim == INPUT_DIM
        assert encoder.embed_dim == EMBED_DIM

    def test_deterministic_and_seed_sensitive(self):
        a = build_encoder(seed=3)
        b = build_encoder(seed=3)
        c = build_encoder(seed=4)
        assert a.weights_digest() == b.weights_digest()
        assert a.weights_digest() != c.weights_digest()

    def test_frozen(self, encoder):
        with pytest.raises(ValueError):
            encoder.w1[0, 0] = 1.0

    def test_forward_and_vjp_leave_weights_frozen(self, encoder):
        digest = encoder.weights_digest()
        x = np.ones((2, INPUT_DIM), dtype=np.float32)
        encoder_forward(encoder, x)
        encoder_input_grad(encoder, x, np.ones((2, EMBED_DIM), dtype=np.float32))
        assert not any(p.flags.writeable for p in encoder.parameters().values())
        assert encoder.weights_digest() == digest

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

    def test_forward_rejects_bad_shape(self, encoder):
        with pytest.raises(ValueError):
            encoder_forward(encoder, np.zeros((2, INPUT_DIM + 1), dtype=np.float32))
        with pytest.raises(ValueError):
            encoder_forward(encoder, np.zeros(INPUT_DIM, dtype=np.float32))

    def test_input_grad_matches_finite_differences(self, encoder):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, INPUT_DIM))
        upstream = rng.normal(size=(3, EMBED_DIM))
        analytic = encoder_input_grad(encoder, x, upstream)

        for b in range(3):
            probe = rng.choice(INPUT_DIM, size=10, replace=False)

            def scalar(v, b=b):
                xb = x.copy()
                xb[b] = v
                return float(np.sum(encoder_forward(encoder, xb)[b] * upstream[b]))

            full = central_diff(scalar, x[b])
            assert np.allclose(analytic[b][probe], full[probe], rtol=1e-6, atol=1e-8)

    def test_input_grad_upstream_shape_checked(self, encoder):
        x = np.zeros((2, INPUT_DIM), dtype=np.float32)
        with pytest.raises(ValueError):
            encoder_input_grad(encoder, x, np.zeros((2, EMBED_DIM + 1)))


class TestHeadTraining:
    def test_zero_head_predicts_class_zero(self):
        head = zero_head(4)
        logits = head_forward(head, np.ones((3, 4), dtype=np.float32))
        assert np.all(np.argmax(logits, axis=1) == 0)

    def test_head_forward_dim_check(self):
        with pytest.raises(ValueError):
            head_forward(zero_head(4), np.zeros((2, 5), dtype=np.float32))

    def test_train_head_learns_separable_embeddings(self, encoder, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        cfg = TrainConfig("adam", 1e-2, epochs=30, batch_size=16, seed=0)
        head, trace = train_head(oracle, train.images, train.sa_labels, cfg)
        assert len(trace) == 30
        assert trace[-1] < trace[0]
        z = oracle.embed(train.images)
        assert head_accuracy(head, z, train.sa_labels) > 0.8

    def test_train_head_deterministic(self, encoder, small_data):
        _, train, _ = small_data
        cfg = TrainConfig("adam", 1e-3, epochs=3, batch_size=16, seed=7)
        h1, _ = train_head(InProcessOracle(encoder), train.images, train.sa_labels, cfg)
        h2, _ = train_head(InProcessOracle(encoder), train.images, train.sa_labels, cfg)
        assert h1.param_bytes() == h2.param_bytes()

    def test_train_head_empty_dataset(self, encoder):
        with pytest.raises(ValueError):
            train_head(InProcessOracle(encoder),
                       np.zeros((0, INPUT_DIM), dtype=np.float32),
                       np.zeros(0, dtype=np.uint8), TrainConfig())


def reference_train_head(oracle, images, labels, cfg):
    """The loop train_head replaced, verbatim: two softmaxes and one
    optimizer per tensor on every step."""
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


class TestTrainHeadMatchesReference:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "adamw"])
    def test_same_bytes_and_trace(self, encoder, small_data, optimizer):
        _, train, _ = small_data
        cfg = TrainConfig(optimizer, 1e-2, epochs=4, batch_size=16, seed=3)
        assert train.images.shape[0] % cfg.batch_size != 0  # a partial last batch
        head, trace = train_head(InProcessOracle(encoder), train.images,
                                 train.sa_labels, cfg)
        ref_head, ref_trace = reference_train_head(InProcessOracle(encoder), train.images,
                                                   train.sa_labels, cfg)
        assert head.weight.dtype == ref_head.weight.dtype == np.float32
        assert head.weight.shape == ref_head.weight.shape
        assert head.param_bytes() == ref_head.param_bytes()
        assert trace == ref_trace

    @pytest.mark.parametrize("bad", [2, -1])
    def test_out_of_range_label_raises(self, encoder, small_data, bad):
        _, train, _ = small_data
        labels = train.sa_labels.astype(np.int64)
        labels[-1] = bad
        with pytest.raises(IndexError):
            train_head(InProcessOracle(encoder), train.images, labels,
                       TrainConfig(epochs=1, batch_size=16))


class _FixedEmbeddings:
    """An oracle that answers every embed call with the same embeddings."""

    def __init__(self, z):
        self.z = z

    def embed(self, images):
        return self.z


@st.composite
def stacked_logits_and_labels(draw):
    """[K,B,2] float32 logits in +-200, labels [B] and an embedding seed."""
    k, b = draw(st.integers(1, 3)), draw(st.integers(1, 16))
    logits = draw(arrays(np.float32, (k, b, 2),
                         elements=st.floats(-200, 200, width=32)))
    labels = draw(arrays(np.int64, b, elements=st.integers(0, 1)))
    return logits, labels, draw(st.integers(0, 2**32 - 1))


class TestFitHeadsMatchesSeparateHeads:
    @given(k=st.integers(1, 3), optimizer=st.sampled_from(["sgd", "adam", "adamw"]),
           batch_size=st.integers(2, 9), full_batches=st.integers(0, 4),
           remainder=st.integers(1, 8), epochs=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_and_traces_as_one_run_per_head(
            self, k, optimizer, batch_size, full_batches, remainder, epochs, seed):
        n = full_batches * batch_size + min(remainder, batch_size - 1)  # partial last batch
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(k, n, EMBED_DIM)).astype(np.float32)
        labels = rng.integers(0, 2, size=n)
        cfg = TrainConfig(optimizer, 5e-2, epochs=epochs, batch_size=batch_size,
                          seed=seed)
        fitted = fit_heads(z, labels, cfg)
        assert len(fitted) == k
        for zk, (head, trace) in zip(z, fitted):
            ref_head, ref_trace = reference_train_head(
                _FixedEmbeddings(zk), np.empty((n, 1)), labels, cfg)
            assert head.weight.flags.owndata and head.bias.flags.owndata
            assert head.param_bytes() == ref_head.param_bytes()
            assert trace == ref_trace

    @given(stacked_logits_and_labels())
    @example((np.array([[[0.0, -120.0], [50.0, 0.0]], [[3.0, 1.0], [-7.5, 2.0]]],
                       dtype=np.float32), np.array([0, 0]), 0))  # losses of exactly -0.0
    @settings(max_examples=200, deadline=None)
    def test_stacked_step_same_bytes_as_per_head_step(self, case):
        """One fit_heads step on [K,B,2] logits: the flattened CE with tiled
        labels, the per-row loss sums, the [K,E,B] @ [K,B,2] weight gradient
        and the axis-1 bias gradient, against each head's 2-D step."""
        logits, labels, seed = case
        k, b, _ = logits.shape
        zb = np.random.default_rng(seed).normal(size=(k, b, EMBED_DIM)).astype(np.float32)
        losses, g = cross_entropy_loss_and_grad(logits.reshape(-1, 2), np.tile(labels, k))
        sums = losses.reshape(k, -1).sum(axis=1)
        g /= b
        g = g.reshape(logits.shape)
        gw = np.matmul(zb.transpose(0, 2, 1), g)
        gb = g.sum(axis=1, keepdims=True)
        for j in range(k):
            ref_losses, ref_g = cross_entropy_loss_and_grad(logits[j], labels)
            ref_g /= b
            assert losses[j * b:(j + 1) * b].tobytes() == ref_losses.tobytes()
            assert sums[j].tobytes() == ref_losses.sum().tobytes()
            assert g[j].tobytes() == ref_g.tobytes()
            assert gw[j].tobytes() == (zb[j].T @ ref_g).tobytes()
            assert gb[j, 0].tobytes() == ref_g.sum(axis=0).tobytes()

    def test_rejects_bad_shapes(self):
        z = np.zeros((2, 5, EMBED_DIM), dtype=np.float32)
        with pytest.raises(ValueError):
            fit_heads(z[0], np.zeros(5, dtype=np.int64), TrainConfig())
        with pytest.raises(ValueError):
            fit_heads(z, np.zeros(4, dtype=np.int64), TrainConfig())
        with pytest.raises(ValueError):
            fit_heads(z[:, :0], np.zeros(0, dtype=np.int64), TrainConfig())


class TestPersistence:
    def test_head_round_trip(self, tmp_path):
        head = zero_head(8)
        head.weight += np.float32(0.25)
        save_head(tmp_path / "h", head, meta={"task": "t"})
        back = load_head(tmp_path / "h")
        assert back.param_bytes() == head.param_bytes()

    def test_encoder_round_trip(self, tmp_path, encoder):
        save_encoder(tmp_path / "enc", encoder)
        back = load_encoder(tmp_path / "enc")
        assert back.weights_digest() == encoder.weights_digest()
        assert back.seed == encoder.seed
        x = np.random.default_rng(2).normal(size=(4, INPUT_DIM)).astype(np.float32)
        assert np.array_equal(encoder_forward(back, x), encoder_forward(encoder, x))
