import functools
import math
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ude.gezo
from ude.editing import (
    UdeConfig,
    edit_objective_batch,
    learn_ude_whitebox,
    train_fair_disease,
)
from ude.gezo import (
    GezoConfig,
    gezo_epoch,
    greedy_gradient,
    learn_ude_gezo,
)
from ude.models import INPUT_DIM, TrainConfig, head_accuracy, train_head
from ude.numerics import l2_norm
from ude.oracle import (
    FORWARD_ONLY,
    FORWARD_WITH_INPUT_GRAD,
    MAGIC,
    MSG_EMBED_RESPONSE,
    InProcessOracle,
    OracleServer,
    RemoteOracle,
)
from ude.prng import derive_seed


@pytest.fixture(scope="module")
def trained_sa(encoder, small_data):
    _, train, _ = small_data
    oracle = InProcessOracle(encoder)
    head, _ = train_head(oracle, train.images, train.sa_labels,
                         TrainConfig("adam", 1e-2, epochs=30, batch_size=16), 0)
    return head


def reference_epoch(oracle, sa_head, images, sa_labels, eps, cfg, rng, trace):
    """gezo_epoch as allocating per-call code: the candidates
    eps + (+-1) * delta, stacked in the order -delta_1, +delta_1, ..., scored
    by one public edit_objective_batch call per iteration. The stack has
    greedy_gradient's shapes, so the two agree on any BLAS kernel."""
    n = images.shape[0]
    eps = eps.astype(np.float32)
    velocity = np.zeros_like(eps)
    step, best_loss = cfg.init_step, math.inf
    for r in range(1, cfg.local_iters + 1):
        idx = rng.permutation(n)[:cfg.batch_size]
        deltas = (rng.standard_normal((cfg.samples, eps.shape[0])).astype(np.float32)
                  * np.float32(step))
        signed = [sign * delta for delta in deltas for sign in (np.float32(-1),
                                                                 np.float32(1))]
        losses = edit_objective_batch(oracle, sa_head, images[idx], sa_labels[idx],
                                      np.stack([eps + d for d in signed]), cfg.lam)
        d_best = None
        for loss, d in zip(losses, signed):
            if loss < best_loss:
                best_loss, d_best = float(loss), d
        if d_best is not None:
            velocity = np.float32(cfg.momentum) * velocity + d_best
            eps = eps + velocity
        else:
            step = cfg.decay * step
        trace.append({"iteration": r, "improved": d_best is not None,
                      "best_loss": best_loss, "step": step})
    return eps


def first_16(oracle, sa_head, train, samples, rng):
    """greedy_gradient(eps, step, best_loss) whose every batch is the first 16
    training images."""
    return functools.partial(greedy_gradient, oracle, sa_head, train.images[:16],
                             train.sa_labels[:16], GezoConfig(samples=samples, batch_size=16),
                             rng)


class TestConfig:
    @pytest.mark.parametrize("kw", [dict(local_iters=0), dict(samples=0),
                                    dict(decay=1.0), dict(momentum=1.0),
                                    dict(momentum=-0.1)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            GezoConfig(**kw)


class TestGreedyGradient:
    def test_exactly_two_c_forward_calls(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        eps = np.zeros(INPUT_DIM, dtype=np.float32)
        gradient = first_16(oracle, trained_sa, train, 6, np.random.default_rng(0))
        before = oracle.query_counter[0]
        gradient(eps, 0.01, math.inf)
        assert oracle.query_counter[0] - before == 2 * 6

    def test_returns_none_when_nothing_beats_best(self, encoder, trained_sa,
                                                  small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        eps = np.zeros(INPUT_DIM, dtype=np.float32)
        gradient = first_16(oracle, trained_sa, train, 3, np.random.default_rng(0))
        d, best = gradient(eps, 0.01, -1e9)
        assert d is None
        assert best == -1e9

    def test_improves_from_infinity(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        eps = np.zeros(INPUT_DIM, dtype=np.float32)
        gradient = first_16(oracle, trained_sa, train, 3, np.random.default_rng(0))
        d, best = gradient(eps, 0.01, math.inf)
        assert d is not None
        assert math.isfinite(best)

    def test_empty_batch_rejected(self, encoder, trained_sa):
        with pytest.raises(ValueError, match="empty batch"):
            gezo_epoch(InProcessOracle(encoder), trained_sa,
                       np.zeros((0, INPUT_DIM), dtype=np.float32),
                       np.zeros(0, dtype=np.uint8), np.zeros(INPUT_DIM, np.float32),
                       GezoConfig(samples=2), np.random.default_rng(0))


class TestEpoch:
    def test_best_loss_monotone_within_epoch(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        cfg = GezoConfig(local_iters=8, batch_size=32)
        trace = []
        gezo_epoch(oracle, trained_sa, train.images, train.sa_labels,
                   np.zeros(INPUT_DIM, dtype=np.float32), cfg,
                   np.random.default_rng(1), trace=trace)
        losses = [t["best_loss"] for t in trace]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert [t["iteration"] for t in trace] == list(range(1, 9))

    def test_pure_decay_step_schedule(self, encoder, trained_sa, small_data):
        # with best_loss pinned below anything reachable, every iteration
        # fails to improve and the step decays geometrically, bit-exactly
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        cfg = GezoConfig(local_iters=12, batch_size=16)
        eps = np.zeros(INPUT_DIM, dtype=np.float32)
        step, best_loss = cfg.init_step, -1e18
        rng = np.random.default_rng(2)
        expected = cfg.init_step
        for _ in range(cfg.local_iters):
            d, best_loss = greedy_gradient(oracle, trained_sa, train.images[:16],
                                           train.sa_labels[:16], cfg, rng, eps, step,
                                           best_loss)
            assert d is None
            step = cfg.decay * step
            expected = cfg.decay * expected
            assert step == expected
        # the closed form 0.01 * 0.95^R, evaluated as the same product chain
        s_ref = 0.01
        for _ in range(12):
            s_ref *= 0.95
        assert step == s_ref

    def test_momentum_zero_equals_plain_greedy(self, encoder, trained_sa,
                                               small_data):
        # with mu = 0 the epoch must match a reference loop that adds the best
        # perturbation directly, no velocity at all
        _, train, _ = small_data
        cfg = GezoConfig(local_iters=6, momentum=0.0, batch_size=32)

        eps_impl = gezo_epoch(InProcessOracle(encoder), trained_sa, train.images,
                              train.sa_labels, np.zeros(INPUT_DIM, dtype=np.float32),
                              cfg, np.random.default_rng(7))

        from ude.editing import edit_objective_batch
        oracle = InProcessOracle(encoder)
        rng = np.random.default_rng(7)
        eps_ref = np.zeros(INPUT_DIM, dtype=np.float32)
        step, best = cfg.init_step, math.inf
        n = train.images.shape[0]
        for _ in range(cfg.local_iters):
            idx = rng.permutation(n)[:cfg.batch_size]
            d_best = None
            for _ in range(cfg.samples):
                delta = rng.standard_normal(INPUT_DIM).astype(np.float32) \
                    * np.float32(step)
                for direction in (-1.0, 1.0):
                    cand = eps_ref + np.float32(direction) * delta
                    loss = edit_objective_batch(oracle, trained_sa,
                                                train.images[idx],
                                                train.sa_labels[idx], cand, cfg.lam)
                    if loss < best:
                        best = loss
                        d_best = np.float32(direction) * delta
            if d_best is not None:
                eps_ref = eps_ref + d_best
            else:
                step = cfg.decay * step
        assert eps_impl.tobytes() == eps_ref.tobytes()


class TestBoundIteration:
    @given(samples=st.integers(1, 4), batch_size=st.sampled_from([3, 12, 20]),
           momentum=st.sampled_from([0.0, 0.9]), dtype=st.sampled_from([np.float32,
                                                                          np.float64]),
           capability=st.sampled_from([FORWARD_ONLY, FORWARD_WITH_INPUT_GRAD]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=24, deadline=None)
    def test_bytes_of_the_per_call_reference(self, encoder, trained_sa, small_data,
                                             samples, batch_size, momentum, dtype,
                                             capability, seed):
        # 12 images: a batch of 3 rows, of all 12, and of 12 for batch_size 20
        _, train, _ = small_data
        pick = np.random.default_rng(seed).choice(len(train.images), 12, replace=False)
        images, labels = train.images[pick].astype(dtype), train.sa_labels[pick]
        cfg = GezoConfig(local_iters=3, samples=samples, batch_size=batch_size,
                         momentum=momentum, epochs=2, init_step=0.5)
        oracle = InProcessOracle(encoder, capability)
        start = np.random.default_rng(seed).normal(size=INPUT_DIM).astype(np.float32) * 0.1

        trace, want_trace = [], []
        eps = gezo_epoch(oracle, trained_sa, images, labels, start, cfg,
                         np.random.default_rng(seed), trace=trace)
        want = reference_epoch(oracle, trained_sa, images, labels, start, cfg,
                               np.random.default_rng(seed), want_trace)
        assert eps.dtype == np.float32 and eps.tobytes() == want.tobytes()
        assert trace == want_trace

        art = learn_ude_gezo(oracle, trained_sa, images, labels, cfg, seed)
        rng = np.random.default_rng(derive_seed(seed, 0x6E20))
        want, want_losses, want_norms = np.zeros(INPUT_DIM, np.float32), [], []
        for _ in range(cfg.epochs):
            epoch_trace = []
            want = reference_epoch(oracle, trained_sa, images, labels, want, cfg, rng,
                                   epoch_trace)
            want_losses.append(epoch_trace[-1]["best_loss"])
            want_norms.append(l2_norm(want))
        assert art.eps.tobytes() == want.tobytes()
        assert (art.loss_trace, art.eps_norm_trace) == (want_losses, want_norms)

    def test_one_objective_call_per_local_iteration(self, encoder, trained_sa,
                                                    small_data, monkeypatch):
        _, train, _ = small_data
        cfg = GezoConfig(local_iters=4, samples=3, epochs=3, batch_size=16)
        calls = []

        def counting(oracle, sa_head, batch, sa_labels, eps, lam):
            calls.append(eps.shape)
            return edit_objective_batch(oracle, sa_head, batch, sa_labels, eps, lam)

        monkeypatch.setattr(ude.gezo, "edit_objective_batch", counting)
        oracle = InProcessOracle(encoder)
        learn_ude_gezo(oracle, trained_sa, train.images, train.sa_labels, cfg, 0)
        assert len(calls) == cfg.epochs * cfg.local_iters
        # each call scores the 2C candidates of its iteration
        assert set(calls) == {(2 * cfg.samples, INPUT_DIM)}
        assert oracle.query_counter[0] == len(calls) * 2 * cfg.samples

    def test_the_edit_returned_shares_memory_with_no_search_array(self, encoder,
                                                                  trained_sa, small_data):
        _, train, _ = small_data
        cfg = GezoConfig(local_iters=5, samples=2, batch_size=16)
        oracle, rng = InProcessOracle(encoder), np.random.default_rng(4)
        eps, trace = np.zeros(INPUT_DIM, np.float32), []
        for _ in range(2):
            start = eps
            eps = gezo_epoch(oracle, trained_sa, train.images, train.sa_labels, start, cfg,
                             rng, trace)
            # the images, labels and start edit it was given, and the head's
            # parameters
            given = [train.images, train.sa_labels, trained_sa.weight, trained_sa.bias]
            assert not np.shares_memory(eps, start)
            assert not any(np.shares_memory(eps, a) for a in given)
        assert any(t["improved"] for t in trace)

    def test_the_perturbation_returned_keeps_its_bytes_across_the_next_call(
            self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        gradient = first_16(InProcessOracle(encoder), trained_sa, train, 3,
                          np.random.default_rng(0))
        eps = np.zeros(INPUT_DIM, np.float32)
        d, _ = gradient(eps, 0.01, math.inf)
        kept = d.tobytes()
        gradient(eps, 0.5, math.inf)
        assert d.tobytes() == kept

    def test_labels_are_checked_once_for_every_image(self, encoder, trained_sa,
                                                     small_data):
        _, train, _ = small_data
        oracle, cfg = InProcessOracle(encoder), GezoConfig()
        start = np.zeros(INPUT_DIM, np.float32)
        bad = train.sa_labels.copy()
        bad[-1] = 2

        def epoch(x, y):
            return gezo_epoch(oracle, trained_sa, x, y, start, cfg, np.random.default_rng(0))

        with pytest.raises(ValueError):
            epoch(train.images, train.sa_labels[:-1])
        with pytest.raises(TypeError):
            epoch(train.images, train.sa_labels.astype(float))
        with pytest.raises(IndexError):
            epoch(train.images, bad)
        with pytest.raises(ValueError, match="empty batch"):
            epoch(train.images[:0], train.sa_labels[:0])
        assert oracle.query_counter == (0, 0)

    @pytest.mark.parametrize("learn", [
        lambda o, h, x, y: learn_ude_gezo(o, h, x, y, GezoConfig(epochs=1), 0),
        lambda o, h, x, y: gezo_epoch(o, h, x, y, np.zeros(INPUT_DIM, np.float32),
                                      GezoConfig(epochs=1), np.random.default_rng(0)),
        lambda o, h, x, y: train_head(o, x, y, TrainConfig("adam", 1e-4, 1, 16), 0),
        lambda o, h, x, y: train_fair_disease(o, [np.zeros(INPUT_DIM, np.float32)], x, y,
                                              TrainConfig("adamw", 1e-4, 1, 16), 0),
        lambda o, h, x, y: learn_ude_whitebox(o, h, x, y, UdeConfig(epochs=1), 0),
    ], ids=["learn", "epoch", "train_head", "train_fair_disease", "whitebox"])
    @pytest.mark.parametrize("bad,error", [("short", ValueError), ("long", ValueError),
                                           ("float", TypeError),
                                           ("out_of_range", IndexError),
                                           ("no_images", ValueError)])
    def test_bad_input_is_refused_before_the_first_query(self, encoder, trained_sa,
                                                         small_data, learn, bad, error):
        _, train, _ = small_data
        images, labels = train.images, train.sa_labels.copy()
        if bad == "short":
            labels = labels[:-1]
        elif bad == "long":
            labels = np.append(labels, labels[:1])
        elif bad == "float":
            labels = labels.astype(np.float32)
        elif bad == "out_of_range":
            labels[-1] = 2
        else:
            images, labels = images[:0], labels[:0]
        # input gradients for the white-box learner; the others only embed
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        with pytest.raises(error):
            learn(oracle, trained_sa, images, labels)
        assert oracle.query_counter == (0, 0) and oracle.round_trips == 0


class TestFullRun:
    def test_forward_only_and_query_accounting(self, encoder, trained_sa,
                                               small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)  # forward-only: gradients would raise
        cfg = GezoConfig(local_iters=4, samples=3, epochs=2, batch_size=32)
        art = learn_ude_gezo(oracle, trained_sa, train.images, train.sa_labels, cfg, 0)
        calls, _ = oracle.query_counter
        assert calls == cfg.epochs * cfg.local_iters * 2 * cfg.samples
        assert art.mode == "gezo"
        assert len(art.loss_trace) == cfg.epochs
        assert len(art.iteration_trace) == cfg.epochs * cfg.local_iters
        assert {t["epoch"] for t in art.iteration_trace} == {0, 1}

    def test_one_round_trip_per_local_iteration_over_the_wire(
            self, encoder, trained_sa, small_data, monkeypatch):
        _, train, _ = small_data
        cfg = GezoConfig(local_iters=3, samples=4, epochs=2, batch_size=16)
        tally = []  # the count hook perfbench installs on RemoteOracle
        count = RemoteOracle._count

        def _count(oracle, batch_size, *args, **kwargs):
            tally.append(batch_size)
            return count(oracle, batch_size, *args, **kwargs)

        monkeypatch.setattr(RemoteOracle, "_count", _count)
        srv = OracleServer(encoder, "127.0.0.1:0")
        srv.start_background()
        client = RemoteOracle(srv.bound_address)
        try:
            remote = learn_ude_gezo(client, trained_sa, train.images, train.sa_labels,
                                    cfg, 0)
        finally:
            client.close()
            srv.shutdown()
        local = learn_ude_gezo(InProcessOracle(encoder), trained_sa, train.images,
                               train.sa_labels, cfg, 0)
        queries = cfg.epochs * cfg.local_iters * 2 * cfg.samples
        assert client.round_trips == cfg.epochs * cfg.local_iters
        assert client.query_counter == (queries, queries * cfg.batch_size)
        assert tally == [cfg.batch_size] * queries
        assert remote.eps.tobytes() == local.eps.tobytes()

    def test_a_default_local_iteration_sends_one_batch_and_2c_edits(self, trained_sa,
                                                                    small_data):
        # a stub server that counts the request's bytes and answers zeros
        _, train, _ = small_data
        cfg = GezoConfig()
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def answer():
            conn, _ = listener.accept()
            with conn:
                head = conn.recv(17, socket.MSG_WAITALL)
                b, m, d = struct.unpack_from("<III", head, 5)
                body = conn.recv(4 * (b + m) * d, socket.MSG_WAITALL)
                received.append(len(head) + len(body))
                z = np.zeros((m * b, 32), dtype="<f4")
                conn.sendall(MAGIC + struct.pack("<BII", MSG_EMBED_RESPONSE, *z.shape)
                             + z.tobytes())
                conn.settimeout(10)
                conn.recv(1)  # until the client hangs up

        stub = threading.Thread(target=answer, daemon=True)
        stub.start()
        client = RemoteOracle("127.0.0.1:%d" % listener.getsockname()[1])
        idx = np.arange(cfg.batch_size)
        try:
            greedy_gradient(client, trained_sa, train.images[idx], train.sa_labels[idx],
                            cfg, np.random.default_rng(0), np.zeros(INPUT_DIM, np.float32),
                            cfg.init_step, math.inf)
        finally:
            client.close()
            stub.join(timeout=5)
            listener.close()
        # header 17 bytes, a [64, 256] batch and [16, 256] edits in f32; the
        # 1,024 edited rows as one [1024, 256] matrix took 1,048,589
        assert received == [17 + 4 * (64 + 16) * 256] == [81_937]
        assert (client.round_trips, client.query_counter) == (1, (16, 1024))

    def test_deterministic(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        cfg = GezoConfig(local_iters=3, samples=2, epochs=2)
        a = learn_ude_gezo(InProcessOracle(encoder), trained_sa, train.images,
                           train.sa_labels, cfg, 5)
        b = learn_ude_gezo(InProcessOracle(encoder), trained_sa, train.images,
                           train.sa_labels, cfg, 5)
        assert a.eps.tobytes() == b.eps.tobytes()

    def test_reduces_concealment_accuracy(self, encoder, trained_sa, small_data):
        _, train, test = small_data
        oracle = InProcessOracle(encoder)
        art = learn_ude_gezo(oracle, trained_sa, train.images, train.sa_labels,
                             GezoConfig(), 0)
        clean = head_accuracy(trained_sa, oracle.embed(test.images), test.sa_labels)
        edited = head_accuracy(trained_sa, oracle.embed(test.images + art.eps),
                               test.sa_labels)
        assert edited < clean
