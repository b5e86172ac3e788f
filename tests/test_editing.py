import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ude.oracle
from ude.editing import (
    EditArtifact,
    UdeConfig,
    _objective,
    edit_objective_batch,
    edit_objective_grad,
    export_noise_map,
    learn_ude_whitebox,
    train_fair_disease,
    write_noise_map_csv,
)
from ude.models import (
    EMBED_DIM,
    INPUT_DIM,
    LinearHead,
    TrainConfig,
    head_accuracy,
    head_forward,
    train_head,
)
from ude.numerics import l2_norm
from ude.oracle import FORWARD_WITH_INPUT_GRAD, CapabilityError, InProcessOracle
from ude.pipeline import PipelineConfig, load_input, save_output

from conftest import central_diff, head_bytes


@pytest.fixture(scope="module")
def trained_sa(encoder, small_data):
    _, train, _ = small_data
    oracle = InProcessOracle(encoder)
    head, _ = train_head(oracle, train.images, train.sa_labels,
                         TrainConfig("adam", 1e-2, epochs=30, batch_size=16), 0)
    return head


class TestObjective:
    def test_zero_eps_no_penalty(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        eps = np.zeros(INPUT_DIM, dtype=np.float32)
        loss0 = edit_objective_batch(oracle, trained_sa, train.images[:8],
                                     train.sa_labels[:8], eps, lam=0.0)
        loss1 = edit_objective_batch(oracle, trained_sa, train.images[:8],
                                     train.sa_labels[:8], eps, lam=5.0)
        assert loss0 == loss1  # ||0|| contributes nothing at any lam

    def test_penalty_scales_with_norm(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder)
        eps = np.full(INPUT_DIM, 0.1, dtype=np.float32)
        a = edit_objective_batch(oracle, trained_sa, train.images[:8],
                                 train.sa_labels[:8], eps, lam=0.0)
        b = edit_objective_batch(oracle, trained_sa, train.images[:8],
                                 train.sa_labels[:8], eps, lam=1.0)
        assert b - a == pytest.approx(float(np.linalg.norm(eps.astype(np.float64))),
                                      rel=1e-5)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_stack_gives_each_edit_alone_bytes_in_one_call(self, encoder, data):
        m = data.draw(st.integers(1, 20), label="M")
        b = data.draw(st.integers(1, 70), label="B")
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=b,
                                             max_size=b), label="labels"),
                          dtype=np.uint8)
        scale = data.draw(st.sampled_from([0.0, 1e-3, 0.1, 3.0]), label="scale")
        lam = data.draw(st.sampled_from([0.0, 0.01, 1.0]), label="lam")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        edits = (rng.standard_normal((m, INPUT_DIM)) * scale).astype(np.float32)
        batch = rng.standard_normal((b, INPUT_DIM)).astype(np.float32)
        head = LinearHead(rng.standard_normal((EMBED_DIM, 2)).astype(np.float32),
                          rng.standard_normal(2).astype(np.float32))
        oracle = InProcessOracle(encoder)
        losses = edit_objective_batch(oracle, head, batch, labels, edits, lam)
        assert (oracle.query_counter, oracle.round_trips) == ((m, m * b), 1)
        assert losses.shape == (m,) and losses.dtype == np.float64
        for eps, loss in zip(edits, losses):
            alone = edit_objective_batch(oracle, head, batch, labels, eps, lam)
            assert type(alone) is float
            assert np.float64(alone).tobytes() == loss.tobytes()

    @given(b=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bool_labels_give_the_bytes_of_their_uint8_form(self, encoder, b, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=b).astype(np.uint8)
        batch = rng.standard_normal((b, INPUT_DIM)).astype(np.float32)
        eps = (rng.standard_normal(INPUT_DIM) * 0.1).astype(np.float32)
        head = LinearHead(rng.standard_normal((EMBED_DIM, 2)).astype(np.float32),
                          rng.standard_normal(2).astype(np.float32))
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        loss, grad = edit_objective_grad(oracle, head, batch, labels.astype(bool), eps, 0.01)
        ref_loss, ref_grad = edit_objective_grad(oracle, head, batch, labels, eps, 0.01)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert (np.float64(edit_objective_batch(oracle, head, batch, labels.astype(bool),
                                                eps, 0.01)).tobytes()
                == np.float64(edit_objective_batch(oracle, head, batch, labels,
                                                   eps, 0.01)).tobytes())

    @given(dtype=st.sampled_from([np.float16, np.int64, np.bool_]), b=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_a_batch_the_oracle_casts_gives_the_bytes_of_its_float32_form(
            self, encoder, dtype, b, seed):
        # a gradient oracle embeds a bool, integer or float16 batch in
        # float32, and the gradient follows the dtype it answers in
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=b).astype(np.uint8)
        batch = (rng.standard_normal((b, INPUT_DIM)) * 2).astype(dtype)
        eps = (rng.standard_normal(INPUT_DIM) * 0.1).astype(np.float32)
        head = LinearHead(rng.standard_normal((EMBED_DIM, 2)).astype(np.float32),
                          rng.standard_normal(2).astype(np.float32))
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        loss, grad = edit_objective_grad(oracle, head, batch, labels, eps, 0.01)
        ref_loss, ref_grad = edit_objective_grad(oracle, head, batch.astype(np.float32),
                                                 labels, eps, 0.01)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.dtype == np.float32 and grad.tobytes() == ref_grad.tobytes()

    @given(dtype=st.sampled_from([np.float32, np.float64]), b=st.integers(1, 70),
           scale=st.sampled_from([0.0, 1e-3, 0.1, 3.0]),
           lam=st.sampled_from([0.0, 0.01, 1.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grad_loss_is_the_batch_loss(self, encoder, dtype, b, scale, lam, seed):
        """On a gradient oracle, edit_objective_grad's loss is the float64
        bytes edit_objective_batch gives for the same batch, labels, edit
        and lam."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=b).astype(np.uint8)
        batch = rng.standard_normal((b, INPUT_DIM)).astype(dtype)
        eps = (rng.standard_normal(INPUT_DIM) * scale).astype(dtype)
        head = LinearHead(rng.standard_normal((EMBED_DIM, 2)).astype(np.float32),
                          rng.standard_normal(2).astype(np.float32))
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        loss, _ = edit_objective_grad(oracle, head, batch, labels, eps, lam)
        want = edit_objective_batch(oracle, head, batch, labels, eps, lam)
        assert type(loss) is type(want) is float
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()

    @given(dtype=st.sampled_from([np.float32, np.float64]), b=st.integers(1, 70),
           m=st.integers(1, 4), lam=st.sampled_from([0, 0.01, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_the_objective_gives_the_textbook_bytes(self, encoder, dtype, b, m, lam,
                                                    seed):
        # three batches of one shape: each gives the bytes of the textbook
        # expressions, -mean(CE) + lam * ||edit||_2 and softmax - onehot
        rng = np.random.default_rng(seed)
        head = LinearHead(rng.standard_normal((EMBED_DIM, 2)).astype(np.float32),
                          rng.standard_normal(2).astype(np.float32))
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        for _ in range(3):
            labels = rng.integers(0, 2, size=b).astype(np.uint8)
            batch = rng.standard_normal((b, INPUT_DIM)).astype(dtype)
            edits = (rng.standard_normal((m, INPUT_DIM)) * 0.1).astype(np.float32)
            losses = edit_objective_batch(oracle, head, batch, labels, edits, lam)
            logits = head_forward(head, oracle.embed_edits(batch, edits))
            shifted = logits - logits.max(axis=-1, keepdims=True)
            ce = -(np.where(labels == 1, shifted[..., 1], shifted[..., 0])
                   - np.log(np.exp(shifted).sum(axis=-1)))
            want = -np.mean(ce, axis=1).astype(np.float64) + lam * l2_norm(edits)
            assert losses.dtype == np.float64 and losses.tobytes() == want.tobytes()
            # and the CE gradient of each row, which the white-box objective reads
            exps = np.exp(shifted)
            want = exps / exps.sum(axis=-1, keepdims=True) - np.eye(2, dtype=dtype)[labels]
            objectives, grad = _objective(head, lam, oracle.embed_edits(batch, edits),
                                          labels, edits)
            assert objectives.tobytes() == losses.tobytes()
            assert grad.tobytes() == want.tobytes()

    def test_the_objective_refuses_a_wrong_embedding_dim_on_every_call(self):
        head = LinearHead(np.zeros((32, 2), np.float32), np.zeros(2, np.float32))
        z, edits = np.zeros((2, 4, 16), np.float32), np.zeros((2, 8), np.float32)
        for _ in range(2):
            with pytest.raises(ValueError, match="embedding dim 16 != head dim 32"):
                _objective(head, 0.01, z, np.zeros(4, np.uint8), edits)

    @pytest.mark.parametrize("objective", [edit_objective_batch, edit_objective_grad],
                             ids=["batch", "grad"])
    @pytest.mark.parametrize("labels", [np.array([1], dtype=np.uint8),
                                        np.zeros(7, dtype=np.uint8),
                                        np.zeros((8, 1), dtype=np.uint8)],
                             ids=["one", "too_few", "column"])
    def test_one_label_per_batch_row(self, encoder, trained_sa, small_data, objective,
                                     labels):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        eps = np.zeros(INPUT_DIM, dtype=np.float32)
        with pytest.raises(ValueError, match=rf"\(8,\).*{re.escape(str(labels.shape))}"):
            objective(oracle, trained_sa, train.images[:8], labels, eps, 0.01)
        assert oracle.query_counter == (0, 0)  # refused before the query

    @pytest.mark.parametrize("objective", [edit_objective_batch, edit_objective_grad],
                             ids=["batch", "grad"])
    def test_float_labels_refused(self, encoder, trained_sa, small_data, objective):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        with pytest.raises(TypeError, match="float64"):
            objective(oracle, trained_sa, train.images[:2], np.array([1.0, 0.0]),
                      np.zeros(INPUT_DIM, dtype=np.float32), 0.01)

    def test_grad_matches_finite_differences_f64(self, encoder, trained_sa,
                                                 small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        rng = np.random.default_rng(3)
        batch = train.images[:6].astype(np.float64)
        labels = train.sa_labels[:6]
        eps = rng.normal(0, 0.05, INPUT_DIM)
        _, grad = edit_objective_grad(oracle, trained_sa, batch, labels, eps, 0.01)
        probe = rng.choice(INPUT_DIM, size=12, replace=False)
        numeric = central_diff(
            lambda e: edit_objective_batch(oracle, trained_sa, batch, labels, e, 0.01),
            eps)
        assert np.allclose(grad[probe], numeric[probe], rtol=1e-5, atol=1e-7)


class TestWhiteboxLearning:
    def test_requires_gradient_capability(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        with pytest.raises(CapabilityError):
            learn_ude_whitebox(InProcessOracle(encoder), trained_sa, train.images,
                               train.sa_labels, UdeConfig(epochs=1), 0)

    def test_learns_concealing_edit(self, encoder, trained_sa, small_data):
        _, train, test = small_data
        grad_oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        fwd = InProcessOracle(encoder)
        art = learn_ude_whitebox(grad_oracle, trained_sa, train.images,
                                 train.sa_labels, UdeConfig(), 0)
        clean = head_accuracy(trained_sa, fwd.embed(test.images), test.sa_labels)
        edited = head_accuracy(trained_sa, fwd.embed(test.images + art.eps),
                               test.sa_labels)
        assert clean > 0.8
        assert edited < clean - 0.15

    def test_deterministic(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        def run():
            oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
            return learn_ude_whitebox(oracle, trained_sa, train.images,
                                      train.sa_labels, UdeConfig(epochs=3), 4)
        assert run().eps.tobytes() == run().eps.tobytes()

    def test_traces_and_metadata(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        art = learn_ude_whitebox(oracle, trained_sa, train.images, train.sa_labels,
                                 UdeConfig(epochs=4), 1)
        assert art.mode == "whitebox"
        assert len(art.loss_trace) == len(art.eps_norm_trace) == 4
        assert art.eps_norm_trace[-1] > 0

    def test_one_vjp_and_no_separate_forward_per_batch(self, encoder, trained_sa,
                                                      small_data, monkeypatch):
        # each mini-batch is embedded once, for both the loss and its gradient
        calls = {"encoder_edits_vjp": 0, "encoder_forward_edits": 0}
        for name in calls:
            def counted(*args, real=getattr(ude.oracle, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(ude.oracle, name, counted)
        _, train, _ = small_data
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        cfg = UdeConfig(epochs=2, batch_size=64)
        learn_ude_whitebox(oracle, trained_sa, train.images, train.sa_labels, cfg, 0)
        n = len(train)
        batches = cfg.epochs * -(-n // cfg.batch_size)
        assert calls == {"encoder_edits_vjp": batches, "encoder_forward_edits": 0}
        assert oracle.query_counter == (batches, cfg.epochs * n)


class TestDiseaseTraining:
    def test_zero_edit_matches_plain_training(self, encoder, small_data):
        _, train, _ = small_data
        cfg = TrainConfig("adamw", 1.25e-4, epochs=5, batch_size=16)
        zeros = np.zeros(INPUT_DIM, dtype=np.float32)
        [(fair, _)] = train_fair_disease(InProcessOracle(encoder), [zeros], train.images,
                                         train.disease_labels, cfg, 2)
        plain, _ = train_head(InProcessOracle(encoder), train.images,
                              train.disease_labels, cfg, 2)
        assert head_bytes(fair) == head_bytes(plain)


class TestNoiseMap:
    def test_normalization_and_mask(self):
        eps = np.array([0.0, -1.0, 2.0, 0.5], dtype=np.float32)
        norm, mask, degenerate = export_noise_map(eps, top_fraction=0.25)
        assert not degenerate
        assert norm.min() == 0.0 and norm.max() == 1.0
        assert mask.tolist() == [False, False, True, False]

    def test_full_fraction(self):
        _, mask, _ = export_noise_map(np.array([0.0, 1.0]), top_fraction=1.0)
        assert mask.all()

    def test_degenerate_constant(self):
        norm, mask, degenerate = export_noise_map(np.full(4, 0.3), top_fraction=0.5)
        assert degenerate and not mask.any() and not norm.any()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            export_noise_map(np.ones(4), top_fraction=0.0)

    def test_csv_shapes(self, tmp_path):
        eps = np.random.default_rng(0).normal(size=16).astype(np.float32)
        write_noise_map_csv(tmp_path, eps, side=4, top_fraction=0.25)
        grid = (tmp_path / "noise_map.csv").read_text().strip().splitlines()
        mask = (tmp_path / "noise_mask.csv").read_text().strip().splitlines()
        assert len(grid) == len(mask) == 4
        assert all(len(row.split(",")) == 4 for row in grid)
        flat = [int(v) for row in mask for v in row.split(",")]
        assert sum(flat) == 4  # top quarter of 16 pixels


class TestPersistence:
    def test_round_trip(self, tmp_path):
        art = EditArtifact(eps=np.arange(INPUT_DIM, dtype=np.float32),
                           loss_trace=[1.0, 0.5], eps_norm_trace=[0.1, 0.2],
                           config={"lam": 0.01}, seed=9, mode="gezo",
                           iteration_trace=[{"iteration": 1, "improved": True}])
        save_output({"edit": art}, "edit", tmp_path / "e")
        back = load_input(PipelineConfig(), "edit", tmp_path / "e")
        assert back.eps.tobytes() == art.eps.tobytes()
        assert back.loss_trace == art.loss_trace
        assert back.mode == "gezo"
        assert back.iteration_trace == art.iteration_trace
