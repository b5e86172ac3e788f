"""Synthetic chest-X-ray-like data with controllable group and disease pixel
signals, resampled into bias-amplified training sets and balanced test sets.

Every image is
    base pattern
    + a * signal_amp * mask(sa_region)
    + y * signal_amp * mask(disease_region)
    + (a + y) * shared_amp_frac * signal_amp * mask(shared_region)
    + N(0, noise_sigma^2) pixel noise,
where a is the binary group label and y the binary disease label. The shared
block ties the two labels to overlapping pixels, which is what lets a
classifier trained on group-imbalanced counts pick up group information as a
shortcut for the disease.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import is_integer, is_real
from .prng import derive_seed
from .tensor_io import load_artifact, save_artifact


def _block(side: int, row0: int, col0: int, size: int) -> list[int]:
    return [r * side + c
            for r in range(row0, row0 + size)
            for c in range(col0, col0 + size)]


def default_sa_region(side: int = 16) -> list[int]:
    return _block(side, 0, 0, 6)  # top-left 6x6


def default_disease_region(side: int = 16) -> list[int]:
    return _block(side, side - 4, side - 4, 4)  # bottom-right 4x4


def default_shared_region(side: int = 16) -> list[int]:
    mid = side // 2 - 2
    return _block(side, mid, mid, 4)  # center 4x4


# bound on |signal_amp|, |shared_amp_frac| and |noise_sigma|: far beyond the
# [0, 1) pixel scale, and small enough that no float32 pixel overflows
MAX_AMPLITUDE = 1e6


@dataclass
class SynthConfig:
    side: int = 16
    # a region left out is the default block for `side`
    sa_region: list[int] | None = None
    disease_region: list[int] | None = None
    shared_region: list[int] | None = None
    signal_amp: float = 1.5
    shared_amp_frac: float = 0.2
    noise_sigma: float = 0.4
    pattern_seed: int = 7

    def __post_init__(self):
        if not is_integer(self.side) or self.side < 1:
            raise ValueError(f"side must be an integer >= 1, got {self.side!r}")
        if not is_integer(self.pattern_seed):
            raise ValueError(f"pattern_seed must be an integer, got {self.pattern_seed!r}")
        for name in ("signal_amp", "shared_amp_frac", "noise_sigma"):
            value = getattr(self, name)
            if not (is_real(value) and abs(value) <= MAX_AMPLITUDE):
                raise ValueError(f"{name} must be a number of magnitude at most "
                                 f"{MAX_AMPLITUDE:g}, got {value!r}")
        for name, default in (("sa_region", default_sa_region),
                              ("disease_region", default_disease_region),
                              ("shared_region", default_shared_region)):
            if getattr(self, name) is None:
                setattr(self, name, default(self.side))
        for region in (self.sa_region, self.disease_region, self.shared_region):
            if not (isinstance(region, list)
                    and all(is_integer(i) and 0 <= i < self.dim for i in region)):
                raise ValueError(f"regions must be lists of integers in [0, {self.dim})")
        if set(self.sa_region) & set(self.disease_region):
            raise ValueError("sa_region and disease_region must be disjoint")
        if not self.sa_region or not self.disease_region:
            raise ValueError("regions must be nonempty")

    @property
    def dim(self) -> int:
        return self.side * self.side


@dataclass
class CellCounts:
    """Counts n[y][a] on the 2x2 grid (negative/positive x group0/group1)."""

    n: list[list[int]]

    def __post_init__(self):
        arr = np.asarray(self.n)
        if arr.shape != (2, 2) or np.any(arr < 0):
            raise ValueError("counts must be a nonnegative 2x2 grid")
        if not all(is_integer(v) for row in self.n for v in row):
            raise ValueError(f"counts must be integers, got {self.n}")
        self.n = [[int(v) for v in row] for row in self.n]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.n)


# Desk-scale defaults: the bias-amplified pleural-effusion training grid,
# n[y][a] = [[5000, 500], [500, 5000]] with a=0 the first group column, at
# scale 0.1 (keeps the 10:1 subgroup gap), and a balanced test grid large
# enough that rate estimates are stable.
DESK_TRAIN = CellCounts([[500, 50], [50, 500]])
DESK_TEST = CellCounts([[50, 50], [50, 50]])


@dataclass
class LabeledImageSet:
    images: np.ndarray  # [N, D] f32
    sa_labels: np.ndarray  # a in {0,1}
    disease_labels: np.ndarray  # y in {0,1}

    def __post_init__(self):
        if np.ndim(self.images) != 2:
            raise ValueError(f"images must be [N, D], got shape {np.shape(self.images)}")
        n = self.images.shape[0]
        for name in ("sa_labels", "disease_labels"):
            lab = np.asarray(getattr(self, name))
            # checked before the cast, which would turn 0.5 into 0
            if lab.shape != (n,) or np.any((lab != 0) & (lab != 1)):
                raise ValueError(f"{name} must be 0/1 with length {n}")
            setattr(self, name, lab.astype(np.uint8))

    def __len__(self) -> int:
        return self.images.shape[0]


def base_pattern(cfg: SynthConfig) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(cfg.pattern_seed, 0xBA5E))
    return rng.uniform(0.0, 1.0, cfg.dim).astype(np.float32)


def _region_mask(cfg: SynthConfig, region: list[int]) -> np.ndarray:
    mask = np.zeros(cfg.dim, dtype=np.float32)
    mask[region] = 1.0
    return mask


def generate(cfg: SynthConfig, counts: CellCounts, seed: int) -> LabeledImageSet:
    """Draw a labeled set honoring the exact per-cell counts."""
    if counts.total == 0:
        raise ValueError("total count is zero")
    base = base_pattern(cfg)
    m_sa = _region_mask(cfg, cfg.sa_region)
    m_dis = _region_mask(cfg, cfg.disease_region)
    m_shared = _region_mask(cfg, cfg.shared_region)
    rng = np.random.default_rng(derive_seed(seed, 0xDA7A))

    images, ys, sas = [], [], []
    for y in (0, 1):
        for a in (0, 1):
            k = counts.n[y][a]
            if k == 0:
                continue
            mean = (base
                    + a * cfg.signal_amp * m_sa
                    + y * cfg.signal_amp * m_dis
                    + (a + y) * cfg.shared_amp_frac * cfg.signal_amp * m_shared)
            noise = rng.normal(0.0, cfg.noise_sigma, (k, cfg.dim)) if cfg.noise_sigma > 0 \
                else np.zeros((k, cfg.dim))
            images.append((mean[None, :] + noise).astype(np.float32))
            ys.append(np.full(k, y, dtype=np.uint8))
            sas.append(np.full(k, a, dtype=np.uint8))
    return LabeledImageSet(images=np.concatenate(images),
                           sa_labels=np.concatenate(sas),
                           disease_labels=np.concatenate(ys))


# ---------------------------------------------------------------------------
# persistence: one tensor_io artifact, labels stored as f32 tensors

def save_dataset(dirpath, dataset: LabeledImageSet) -> None:
    save_artifact(dirpath, "labeled_image_set", vars(dataset))


def load_dataset(dirpath) -> LabeledImageSet:
    return LabeledImageSet(**load_artifact(dirpath, "labeled_image_set")[0])
