"""Pipeline orchestration: one set of stage functions (data generation, head
training, edit learning, evaluation), persisted stage by stage with run
manifests by the cmd_* commands, so every artifact can be reproduced
byte-for-byte from its recorded config and seeds, and chained in memory by
run_experiment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import closing
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .datagen import (
    DESK_TEST,
    DESK_TRAIN,
    CellCounts,
    LabeledImageSet,
    SynthConfig,
    generate,
    load_dataset,
    save_dataset,
)
from .editing import (
    EditArtifact,
    UdeConfig,
    apply_edit,
    learn_ude_whitebox,
    load_edit,
    save_edit,
    train_fair_disease,
)
from .fairness import FairnessReport, CSV_HEADER, evaluate
from .gezo import GezoConfig, learn_ude_gezo
from .models import (
    LinearHead,
    TrainConfig,
    build_encoder,
    head_accuracy,
    load_head,
    save_head,
    train_head,
)
from .oracle import (
    FORWARD_ONLY,
    FORWARD_WITH_INPUT_GRAD,
    InProcessOracle,
    OracleServer,
    RemoteOracle,
    parse_address,
)
from .prng import derive_seed
from .tensor_io import PROVENANCE


class ConfigError(ValueError):
    pass


class ArtifactError(RuntimeError):
    """A stage input is missing or cannot be read."""


# seed-stream tags, mixed with the global seed via prng.derive_seed
TAG_DATA_TRAIN = 0x01
TAG_DATA_TEST = 0x02
TAG_SA_TRAIN = 0x04
TAG_EDIT = 0x05
TAG_DISEASE = 0x06
TAG_SWEEP = 0x07


@dataclass
class PipelineConfig:
    seed: int = 42
    encoder_seed: int = 16  # one frozen encoder shared across runs, like a hosted FM
    out_dir: str = "runs/default"
    mode: str = "whitebox"  # or "gezo"
    oracle: str = "inprocess"  # or a server address like "127.0.0.1:7447"
    synth: SynthConfig = field(default_factory=SynthConfig)
    train_counts: CellCounts = field(default_factory=lambda: CellCounts(DESK_TRAIN.n))
    test_counts: CellCounts = field(default_factory=lambda: CellCounts(DESK_TEST.n))
    sa_train: TrainConfig = field(
        default_factory=partial(TrainConfig, "adam", 1e-4, 50, batch_size=8))
    disease_train: TrainConfig = field(
        default_factory=partial(TrainConfig, "adamw", 1.25e-4, 50, batch_size=8))
    ude: UdeConfig = field(default_factory=UdeConfig)
    gezo: GezoConfig = field(default_factory=GezoConfig)

    def __post_init__(self):
        seeds = (self.seed, self.encoder_seed)
        if not all(isinstance(s, (int, np.integer)) for s in seeds):
            raise ConfigError("seed and encoder_seed must be integers")
        if self.mode not in ("whitebox", "gezo"):
            raise ConfigError(f"mode must be whitebox or gezo, got {self.mode!r}")
        if self.mode == "whitebox" and self.oracle != "inprocess":
            raise ConfigError("whitebox mode needs gradient access; remote oracles "
                              "are forward-only by protocol")
        if self.oracle != "inprocess":
            try:
                parse_address(self.oracle)
            except ValueError as exc:
                raise ConfigError(f"bad oracle address: {exc}") from exc
        if self.train_counts.total == 0 or self.test_counts.total == 0:
            raise ConfigError("train_counts and test_counts must not be all zero")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        raw = dict(raw)
        try:
            for key, ctor in (("synth", SynthConfig), ("sa_train", TrainConfig),
                              ("disease_train", TrainConfig), ("ude", UdeConfig),
                              ("gezo", GezoConfig)):
                if key in raw:
                    raw[key] = ctor(**raw[key])
            for key in ("train_counts", "test_counts"):
                if key in raw and not isinstance(raw[key], CellCounts):
                    grid = raw[key]["n"] if isinstance(raw[key], dict) else raw[key]
                    raw[key] = CellCounts(grid)
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 JSON
            raise ConfigError(f"invalid config file {path}: {exc}") from exc
        return cls.from_dict(raw)


def derive(cfg: PipelineConfig, tag: int) -> int:
    return derive_seed(cfg.seed, tag)


def make_oracle(cfg: PipelineConfig):
    """The oracle cfg.oracle names, with the capability cfg.mode needs: in
    process, around the encoder cfg.encoder_seed names, input gradients in
    white-box mode and forward-only otherwise; remote, always forward-only."""
    if cfg.oracle != "inprocess":
        return RemoteOracle(cfg.oracle)
    cap = FORWARD_WITH_INPUT_GRAD if cfg.mode == "whitebox" else FORWARD_ONLY
    return InProcessOracle(build_encoder(seed=cfg.encoder_seed, input_dim=cfg.synth.dim),
                           capability=cap)


# ---------------------------------------------------------------------------
# artifact layout helpers

def _paths(cfg: PipelineConfig) -> dict:
    out = cfg.out_dir
    return {
        "train_data": os.path.join(out, "data", "train"),
        "test_data": os.path.join(out, "data", "test"),
        "sa_head": os.path.join(out, "sa_head"),
        "edit": os.path.join(out, "edit"),
        "disease_head": os.path.join(out, "disease_head"),
        "erm_head": os.path.join(out, "erm_head"),
        "reports": os.path.join(out, "reports"),
        "manifests": os.path.join(out, "manifests"),
    }


def make_out_dir(path) -> str:
    """path, created if absent; ConfigError when it cannot be, so that an
    unusable --out is rejected before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def load_input(loader, path):
    """loader(path) for a stage input; ArtifactError when it is missing or
    its files are unreadable or malformed."""
    try:
        return loader(path)
    except (OSError, ValueError, TypeError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc


def load_head_input(cfg: PipelineConfig, path) -> LinearHead:
    """The head a stage reads from `path`; ArtifactError, before any oracle
    call, when it cannot be read or does not take the embeddings of the
    encoder cfg names (its weight rows are not that encoder's width)."""
    head = load_input(load_head, path)
    width = build_encoder(seed=cfg.encoder_seed, input_dim=cfg.synth.dim).embed_dim
    if head.weight.shape[0] != width:
        raise ArtifactError(f"head in {path} takes {head.weight.shape[0]}-dim embeddings, "
                            f"but encoder {cfg.encoder_seed} gives {width}")
    return head


def _file_digests(root) -> dict:
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _write_manifest(cfg: PipelineConfig, stage: str, inputs: list, outputs: list) -> None:
    paths = _paths(cfg)
    os.makedirs(paths["manifests"], exist_ok=True)
    manifest = {
        "stage": stage,
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "inputs": {p: _file_digests(p) for p in inputs if os.path.exists(p)},
        "outputs": {p: _file_digests(p) for p in outputs if os.path.exists(p)},
    }
    with open(os.path.join(paths["manifests"], f"{stage}.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


# ---------------------------------------------------------------------------
# stages: pure functions from inputs to outputs. The cmd_* functions persist
# them stage by stage; run_experiment chains them in memory.

def generate_data(cfg: PipelineConfig) -> tuple[LabeledImageSet, LabeledImageSet]:
    """The biased training set and the balanced test set."""
    return (generate(cfg.synth, cfg.train_counts, derive(cfg, TAG_DATA_TRAIN)),
            generate(cfg.synth, cfg.test_counts, derive(cfg, TAG_DATA_TEST)))


def train_sa(cfg: PipelineConfig, oracle, train: LabeledImageSet):
    """The group-attribute head on clean embeddings; (head, loss trace)."""
    return train_head(oracle, train.images, train.sa_labels, cfg.sa_train,
                      derive(cfg, TAG_SA_TRAIN))


def learn_edit(cfg: PipelineConfig, oracle, sa_head: LinearHead,
               train: LabeledImageSet) -> EditArtifact:
    """The universal edit; white-box mode needs an input-gradient oracle."""
    seed = derive(cfg, TAG_EDIT)
    if cfg.mode == "whitebox":
        return learn_ude_whitebox(oracle, sa_head, train.images, train.sa_labels,
                                  cfg.ude, seed)
    return learn_ude_gezo(oracle, sa_head, train.images, train.sa_labels,
                          cfg.gezo, seed)


def train_disease(cfg: PipelineConfig, oracle, train: LabeledImageSet,
                  eps: np.ndarray | None = None):
    """The plain-baseline disease head (edit = 0) and, given an edit, the
    debiased head on edited inputs, trained in one loop; (erm_head, debiased
    head or None)."""
    d_cfg, seed = cfg.disease_train, derive(cfg, TAG_DISEASE)
    zeros = np.zeros(train.images.shape[1], dtype=np.float32)
    if eps is None:
        [(erm_head, _)] = train_fair_disease(oracle, [zeros], train.images,
                                             train.disease_labels, d_cfg, seed)
        return erm_head, None
    (erm_head, _), (head, _) = train_fair_disease(oracle, [zeros, eps], train.images,
                                                  train.disease_labels, d_cfg, seed)
    return erm_head, head


def evaluate_heads(oracle, test: LabeledImageSet, erm_head: LinearHead,
                   head: LinearHead | None = None, eps: np.ndarray | None = None):
    """Fairness reports on the balanced test set: "erm" for the plain head
    and, given the debiased head, "ude" for it on edited inputs. Returns
    (reports, clean test embeddings, edited test embeddings or None); the
    test set is embedded once per report."""
    z = oracle.embed(test.images)
    reports = {"erm": evaluate(erm_head, z, test.disease_labels, test.sa_labels)}
    z_edited = None
    if head is not None:
        z_edited = oracle.embed(apply_edit(test.images, eps))
        reports["ude"] = evaluate(head, z_edited, test.disease_labels, test.sa_labels)
    return reports, z, z_edited


# ---------------------------------------------------------------------------
# staged commands: load inputs, run one stage, save outputs and a manifest

def cmd_generate(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    make_out_dir(cfg.out_dir)
    train, test = generate_data(cfg)
    save_dataset(paths["train_data"], train)
    save_dataset(paths["test_data"], test)
    _write_manifest(cfg, "generate", [], [paths["train_data"], paths["test_data"]])


def cmd_train_sa(cfg: PipelineConfig) -> float:
    """Train the group-attribute head on clean embeddings; returns its
    training-set accuracy."""
    paths = _paths(cfg)
    train = load_input(load_dataset, paths["train_data"])
    with closing(make_oracle(cfg)) as oracle:
        head, trace = train_sa(cfg, oracle, train)
        acc = head_accuracy(head, oracle.embed(train.images), train.sa_labels)
    save_head(paths["sa_head"], head, task="sensitive_attribute",
              train_accuracy=acc, loss_trace=trace)
    _write_manifest(cfg, "train_sa", [paths["train_data"]], [paths["sa_head"]])
    return acc


def cmd_learn_edit(cfg: PipelineConfig) -> EditArtifact:
    paths = _paths(cfg)
    train = load_input(load_dataset, paths["train_data"])
    sa_head = load_head_input(cfg, paths["sa_head"])
    with closing(make_oracle(cfg)) as oracle:
        artifact = learn_edit(cfg, oracle, sa_head, train)
    save_edit(paths["edit"], artifact)
    _write_manifest(cfg, "learn_edit", [paths["train_data"], paths["sa_head"]],
                    [paths["edit"]])
    return artifact


def cmd_train_disease(cfg: PipelineConfig) -> None:
    """Train the plain-baseline disease head and, when an edit artifact
    exists, the debiased head on edited inputs."""
    paths = _paths(cfg)
    train = load_input(load_dataset, paths["train_data"])
    artifact = None
    if os.path.exists(os.path.join(paths["edit"], PROVENANCE)):
        artifact = load_input(load_edit, paths["edit"])
    with closing(make_oracle(cfg)) as oracle:
        erm_head, head = train_disease(cfg, oracle, train,
                                       None if artifact is None else artifact.eps)
    save_head(paths["erm_head"], erm_head, task="disease", edit="zero")
    outputs = [paths["erm_head"]]
    if head is not None:
        save_head(paths["disease_head"], head, task="disease", edit=artifact.mode)
        outputs.append(paths["disease_head"])
    _write_manifest(cfg, "train_disease", [paths["train_data"], paths["edit"]], outputs)


def cmd_evaluate(cfg: PipelineConfig) -> dict:
    """Side-by-side fairness reports for the plain and debiased disease heads
    on the balanced test set. With no debiased head, only the plain report."""
    paths = _paths(cfg)
    test = load_input(load_dataset, paths["test_data"])
    erm_head = load_head_input(cfg, paths["erm_head"])
    head = eps = None
    if os.path.exists(os.path.join(paths["disease_head"], PROVENANCE)):
        head = load_head_input(cfg, paths["disease_head"])
        eps = load_input(load_edit, paths["edit"]).eps
    with closing(make_oracle(cfg)) as oracle:
        reports, _, _ = evaluate_heads(oracle, test, erm_head, head, eps)
    os.makedirs(paths["reports"], exist_ok=True)
    with open(os.path.join(paths["reports"], "evaluation.json"), "w") as fh:
        json.dump({k: asdict(r) for k, r in reports.items()}, fh, indent=2)
    with open(os.path.join(paths["reports"], "evaluation.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + CSV_HEADER)
        for name, rep in reports.items():
            writer.writerow([name] + rep.csv_row())
    _write_manifest(cfg, "evaluate", [paths["test_data"], paths["erm_head"],
                                      paths["disease_head"], paths["edit"]],
                    [paths["reports"]])
    return reports


def cmd_serve(cfg: PipelineConfig, address: str) -> OracleServer:
    """A forward-only server around the encoder cfg.encoder_seed names;
    ConfigError when it cannot listen on `address`."""
    encoder = build_encoder(seed=cfg.encoder_seed, input_dim=cfg.synth.dim)
    try:
        return OracleServer(encoder, address)
    except (ValueError, OSError) as exc:  # a malformed address, or one in use
        raise ConfigError(f"cannot serve on {address}: {exc}") from exc


# ---------------------------------------------------------------------------
# in-memory experiment runner (used by sweeps, scripts, and acceptance tests)

@dataclass
class ExperimentResult:
    sa_acc_clean: float
    sa_acc_edited: float
    edit: EditArtifact
    erm_report: FairnessReport
    ude_report: FairnessReport
    train: LabeledImageSet
    test: LabeledImageSet


def run_experiment(cfg: PipelineConfig, oracle=None, grad_oracle=None) -> ExperimentResult:
    """Run the whole pipeline in memory for one seed; no artifacts written.

    Every stage queries `oracle`, or else the one make_oracle builds for
    cfg; `grad_oracle` overrides the edit stage's oracle. The group head's
    accuracies are taken on the evaluation stage's test-set embeddings.
    """
    own = oracle is None
    if own:
        oracle = make_oracle(cfg)
    try:
        train, test = generate_data(cfg)
        sa_head, _ = train_sa(cfg, oracle, train)
        artifact = learn_edit(cfg, grad_oracle or oracle, sa_head, train)
        erm_head, fair_head = train_disease(cfg, oracle, train, artifact.eps)
        reports, z, z_edited = evaluate_heads(oracle, test, erm_head, fair_head,
                                              artifact.eps)
    finally:
        if own:
            oracle.close()
    return ExperimentResult(sa_acc_clean=head_accuracy(sa_head, z, test.sa_labels),
                            sa_acc_edited=head_accuracy(sa_head, z_edited,
                                                        test.sa_labels),
                            edit=artifact, erm_report=reports["erm"],
                            ude_report=reports["ude"], train=train, test=test)


SWEEP_PARAMS = ("lambda", "local_iters")


def sweep_config(cfg: PipelineConfig, param: str, value: float,
                 seed: int) -> PipelineConfig:
    """A copy of cfg with one sweep parameter set to value and the given seed,
    validated like any config; sweeping local_iters forces GeZO mode."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}")
    raw = {**cfg.to_dict(), "seed": seed}
    if param == "lambda":
        raw["ude"]["lam"] = raw["gezo"]["lam"] = float(value)
    else:
        raw["mode"] = "gezo"
        raw["gezo"]["local_iters"] = int(value) if float(value).is_integer() else value
    return PipelineConfig.from_dict(raw)


def cmd_sweep(cfg: PipelineConfig, param: str, values: list[float],
              seeds: list[int] | None = None) -> list[dict]:
    """Re-run the pipeline per (value, seed); one row per run, value-major,
    with the debiased classifier's metrics and the final |eps|_2. Every
    value runs on `seeds`, so values are compared on the same data; without
    them, value i runs on one seed mixed from (global seed, i). Every config
    and the output directory are checked before any run."""
    if not values or (seeds is not None and not seeds):
        raise ConfigError("no sweep values or seeds")
    runs = [(value, sweep_config(cfg, param, value, seed))
            for i, value in enumerate(values)
            for seed in (seeds or [derive_seed(cfg.seed, TAG_SWEEP, i)])]
    reports = make_out_dir(_paths(cfg)["reports"])
    rows = []
    for value, sub in runs:
        res = run_experiment(sub)
        rep = res.ude_report
        rows.append({"param": param, "value": value, "seed": sub.seed,
                     "EO_n": rep.eo_neg, "EO_p": rep.eo_pos,
                     "DI": rep.one_minus_di_abs, "Acc": rep.accuracy,
                     "eps_norm": res.edit.eps_norm_trace[-1]})
    out_csv = os.path.join(reports, f"sweep_{param}.csv")
    with open(out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _write_manifest(cfg, f"sweep_{param}", [], [_paths(cfg)["reports"]])
    return rows
