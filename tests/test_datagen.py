import numpy as np
import pytest

from ude.datagen import (
    DESK_TRAIN,
    CellCounts,
    LabeledImageSet,
    SynthConfig,
    base_pattern,
    generate,
)
from ude.pipeline import PipelineConfig, load_input, save_output

PLEURAL_EFFUSION_TRAIN = [[5000, 500], [500, 5000]]  # the bias-amplified grid n[y][a]


class TestCellCounts:
    def test_total(self):
        assert CellCounts([[1, 2], [3, 4]]).total == 10

    @pytest.mark.parametrize("grid", [[[1, 2]], [[1, -1], [0, 0]], [[1], [2]]])
    def test_invalid(self, grid):
        with pytest.raises(ValueError):
            CellCounts(grid)

    def test_desk_train_is_scaled_pleural_effusion(self):
        assert DESK_TRAIN.n == [[v // 10 for v in row] for row in PLEURAL_EFFUSION_TRAIN]


class TestSynthConfig:
    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(sa_region=[0, 1], disease_region=[1, 2])

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(sa_region=[])

    def test_dim(self):
        assert SynthConfig().dim == 256

    def test_default_regions_follow_side(self):
        cfg = SynthConfig(side=20)
        assert cfg.sa_region == [r * 20 + c for r in range(6) for c in range(6)]
        assert cfg.disease_region == [r * 20 + c for r in range(16, 20)
                                      for c in range(16, 20)]
        assert cfg.shared_region == [r * 20 + c for r in range(8, 12)
                                     for c in range(8, 12)]

    @pytest.mark.parametrize("side", [1, 3, 5, 6, 9])
    def test_side_too_small_for_default_regions(self, side):
        with pytest.raises(ValueError):
            SynthConfig(side=side)


class TestGenerate:
    def test_counts_honored(self):
        counts = CellCounts([[3, 1], [2, 5]])
        data = generate(SynthConfig(), counts, seed=0)
        assert len(data) == 11
        for y in (0, 1):
            for a in (0, 1):
                got = int(np.sum((data.disease_labels == y) & (data.sa_labels == a)))
                assert got == counts.n[y][a]

    def test_deterministic_and_seed_sensitive(self):
        cfg = SynthConfig()
        counts = CellCounts([[2, 2], [2, 2]])
        a = generate(cfg, counts, seed=5)
        b = generate(cfg, counts, seed=5)
        c = generate(cfg, counts, seed=6)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(), CellCounts([[0, 0], [0, 0]]), seed=0)

    def test_signal_placement(self):
        # with zero noise the group signal lands exactly on sa_region pixels
        cfg = SynthConfig(noise_sigma=0.0)
        data = generate(cfg, CellCounts([[1, 1], [0, 0]]), seed=0)
        base = base_pattern(cfg)
        diff = data.images[1] - data.images[0]  # a=1 minus a=0, both y=0
        on = sorted(np.nonzero(np.abs(diff) > 1e-6)[0].tolist())
        # a lifts its own region plus the shared block
        assert on == sorted(cfg.sa_region + cfg.shared_region)
        assert np.allclose(diff[cfg.sa_region], cfg.signal_amp)
        assert np.allclose(diff[cfg.shared_region],
                           cfg.shared_amp_frac * cfg.signal_amp)
        assert np.allclose(data.images[0], base, atol=1e-6)

    def test_shared_region_carries_both_labels(self):
        cfg = SynthConfig(noise_sigma=0.0)
        data = generate(cfg, CellCounts([[1, 0], [1, 0]]), seed=0)
        diff = data.images[1] - data.images[0]  # y=1 minus y=0, both a=0
        shared_lift = cfg.shared_amp_frac * cfg.signal_amp
        assert np.allclose(diff[cfg.shared_region], shared_lift)
        assert np.allclose(diff[cfg.disease_region], cfg.signal_amp)

    def test_subgroup_rates_match_published_ratio(self):
        # the disease rate of each group, #(y=1, a) / #(a), is the grid's
        data = generate(SynthConfig(), CellCounts(PLEURAL_EFFUSION_TRAIN), seed=1)
        rates = [float(np.mean(data.disease_labels[data.sa_labels == a])) for a in (0, 1)]
        assert rates[0] == pytest.approx(500 / 5500)
        assert rates[1] == pytest.approx(5000 / 5500)


class TestLabeledImageSet:
    IMAGES = np.zeros((2, 4), dtype=np.float32)

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            LabeledImageSet(self.IMAGES, sa_labels=np.array([0, 2]),
                            disease_labels=np.array([0, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledImageSet(self.IMAGES, sa_labels=np.array([0, 1]),
                            disease_labels=np.array([0, 1, 1]))

    @pytest.mark.parametrize("bad", [[0.5, 1.0], [0.9, 0.0], [0.0, np.nan], [-1, 0]])
    @pytest.mark.parametrize("name", ["sa_labels", "disease_labels"])
    def test_rejects_labels_the_uint8_cast_would_round(self, name, bad):
        labels = {"sa_labels": np.array([0, 1]), "disease_labels": np.array([1, 0]),
                  name: np.array(bad)}
        with pytest.raises(ValueError, match=name):
            LabeledImageSet(self.IMAGES, **labels)

    @pytest.mark.parametrize("shape", [(), (2,), (2, 4, 1), (0, 4)])
    def test_rejects_images_that_are_not_a_matrix(self, shape):
        with pytest.raises(ValueError, match="images"):
            LabeledImageSet(np.zeros(shape, dtype=np.float32), sa_labels=np.array([0, 1]),
                            disease_labels=np.array([0, 1]))

    def test_labels_are_uint8(self):
        data = LabeledImageSet(self.IMAGES, sa_labels=np.array([0.0, 1.0]),
                               disease_labels=[True, False])
        assert data.sa_labels.dtype == data.disease_labels.dtype == np.uint8
        assert data.sa_labels.tolist() == [0, 1]
        assert data.disease_labels.tolist() == [1, 0]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        data = generate(SynthConfig(), CellCounts([[2, 2], [2, 2]]), seed=3)
        save_output({"train_data": data}, "train_data", tmp_path / "d")
        back = load_input(PipelineConfig(), "train_data", tmp_path / "d")
        assert np.array_equal(back.images, data.images)
        assert np.array_equal(back.sa_labels, data.sa_labels)
        assert np.array_equal(back.disease_labels, data.disease_labels)
        assert back.sa_labels.dtype == back.disease_labels.dtype == np.uint8
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "disease_labels.udet", "images.udet", "provenance.json", "sa_labels.udet"]
