import numpy as np
import pytest

from ude.editing import (
    EditArtifact,
    UdeConfig,
    apply_edit,
    edit_objective_batch,
    edit_objective_grad,
    export_noise_map,
    learn_ude_whitebox,
    load_edit,
    save_edit,
    train_fair_disease,
    write_noise_map_csv,
)
from ude.models import INPUT_DIM, TrainConfig, head_accuracy, train_head
from ude.oracle import FORWARD_WITH_INPUT_GRAD, CapabilityError, InProcessOracle

from conftest import central_diff


@pytest.fixture(scope="module")
def trained_sa(encoder, small_data):
    _, train, _ = small_data
    oracle = InProcessOracle(encoder)
    head, _ = train_head(oracle, train.images, train.sa_labels,
                         TrainConfig("adam", 1e-2, epochs=30, batch_size=16, seed=0))
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
                               train.sa_labels, UdeConfig(epochs=1))

    def test_learns_concealing_edit(self, encoder, trained_sa, small_data):
        _, train, test = small_data
        grad_oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        fwd = InProcessOracle(encoder)
        art = learn_ude_whitebox(grad_oracle, trained_sa, train.images,
                                 train.sa_labels, UdeConfig(seed=0))
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
                                      train.sa_labels, UdeConfig(epochs=3, seed=4))
        assert run().eps.tobytes() == run().eps.tobytes()

    def test_traces_and_metadata(self, encoder, trained_sa, small_data):
        _, train, _ = small_data
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        art = learn_ude_whitebox(oracle, trained_sa, train.images, train.sa_labels,
                                 UdeConfig(epochs=4, seed=1))
        assert art.mode == "whitebox"
        assert len(art.loss_trace) == len(art.eps_norm_trace) == 4
        assert art.eps_norm_trace[-1] > 0


class TestApplyEdit:
    def test_addition(self):
        x = np.zeros((2, 4), dtype=np.float32)
        eps = np.arange(4, dtype=np.float32)
        assert np.array_equal(apply_edit(x, eps), np.stack([eps, eps]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_edit(np.zeros((1, 3), dtype=np.float32),
                       np.zeros(4, dtype=np.float32))


class TestDiseaseTraining:
    def test_zero_edit_matches_plain_training(self, encoder, small_data):
        _, train, _ = small_data
        cfg = TrainConfig("adamw", 1.25e-4, epochs=5, batch_size=16, seed=2)
        zeros = np.zeros(INPUT_DIM, dtype=np.float32)
        [(fair, _)] = train_fair_disease(InProcessOracle(encoder), [zeros], train.images,
                                         train.disease_labels, cfg)
        plain, _ = train_head(InProcessOracle(encoder), train.images,
                              train.disease_labels, cfg)
        assert fair.param_bytes() == plain.param_bytes()

    def test_missing_labels(self, encoder, small_data):
        _, train, _ = small_data
        with pytest.raises(ValueError):
            train_fair_disease(InProcessOracle(encoder),
                               [np.zeros(INPUT_DIM, dtype=np.float32)],
                               train.images, None)


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
        art = EditArtifact(eps=np.arange(8, dtype=np.float32),
                           loss_trace=[1.0, 0.5], eps_norm_trace=[0.1, 0.2],
                           config={"lam": 0.01}, seed=9, mode="gezo",
                           iteration_trace=[{"iteration": 1, "improved": True}])
        save_edit(tmp_path / "e", art)
        back = load_edit(tmp_path / "e")
        assert back.eps.tobytes() == art.eps.tobytes()
        assert back.loss_trace == art.loss_trace
        assert back.mode == "gezo"
        assert back.iteration_trace == art.iteration_trace
