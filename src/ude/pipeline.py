"""Pipeline orchestration. The pipeline's stages (generate the data, train
the group head, learn the edit, train the disease heads, evaluate) are
declared once, in STAGES: each stage's name (its CLI verb, with "-" for
"_"), the artifacts it reads and writes, and one body. run_stages runs a
list of them against a store with one oracle. A RunDirectory store loads a
stage's saved inputs from an output directory before the stage runs and
saves its outputs with a manifest, so every artifact can be reproduced
byte-for-byte from its recorded config and seeds; a plain dict keeps them
in memory, which is how run_experiment runs them. Each artifact's place,
format and the shapes the config requires of it are declared once, in
ARTIFACTS, and saved and loaded only by save_output and load_input.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections.abc import Callable
from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass, field, replace
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
)
from .editing import EditArtifact, UdeConfig, learn_ude_whitebox, train_fair_disease
from .fairness import FairnessReport, CSV_HEADER, evaluate
from .gezo import GezoConfig, learn_ude_gezo
from .models import (
    FrozenEncoder,
    LinearHead,
    TrainConfig,
    build_encoder,
    head_accuracy,
    train_head,
)
from .numerics import NUM_CLASSES, is_integer
from .oracle import (
    FORWARD_ONLY,
    FORWARD_WITH_INPUT_GRAD,
    InProcessOracle,
    OracleServer,
    RemoteOracle,
    parse_address,
)
from .prng import derive_seed
from .tensor_io import PROVENANCE, load_artifact, save_artifact


class ConfigError(ValueError):
    pass


class ArtifactError(RuntimeError):
    """A stage input is missing or cannot be read."""


MODES = ("whitebox", "gezo")  # how the edit is learned: through the VJP or GeZO

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
    mode: str = "whitebox"  # one of MODES
    oracle: str = "inprocess"  # or a server address like "127.0.0.1:7447"
    synth: SynthConfig = field(default_factory=SynthConfig)
    train_counts: CellCounts = field(default_factory=lambda: CellCounts(DESK_TRAIN.n))
    test_counts: CellCounts = field(default_factory=lambda: CellCounts(DESK_TEST.n))
    sa_train: TrainConfig = field(default_factory=partial(TrainConfig, "adam", 1e-4, 50, 8))
    disease_train: TrainConfig = field(
        default_factory=partial(TrainConfig, "adamw", 1.25e-4, 50, 8))
    ude: UdeConfig = field(default_factory=UdeConfig)
    gezo: GezoConfig = field(default_factory=GezoConfig)

    def __post_init__(self):
        self._check_fields(vars(self))
        if self.mode == "whitebox" and self.oracle != "inprocess":
            raise ConfigError("whitebox mode needs gradient access; remote oracles "
                              "are forward-only by protocol")
        if self.train_counts.total == 0 or self.test_counts.total == 0:
            raise ConfigError("train_counts and test_counts must not be all zero")

    @staticmethod
    def _check_fields(raw: dict) -> None:
        """ConfigError for a seed, encoder_seed, out_dir, mode or oracle in
        `raw` that is malformed on its own."""
        if not all(is_integer(raw[key]) for key in ("seed", "encoder_seed") if key in raw):
            raise ConfigError("seed and encoder_seed must be integers")
        for key in ("out_dir", "oracle"):
            if key in raw and not isinstance(raw[key], str):
                raise ConfigError(f"{key} must be a string, got {raw[key]!r}")
        if "mode" in raw and raw["mode"] not in MODES:
            raise ConfigError(f"mode must be whitebox or gezo, got {raw['mode']!r}")
        if raw.get("oracle", "inprocess") != "inprocess":
            try:
                parse_address(raw["oracle"])
            except ValueError as exc:
                raise ConfigError(f"bad oracle address: {exc}") from exc

    def encoder(self) -> FrozenEncoder:
        """The frozen encoder encoder_seed names, for synth.dim-pixel images."""
        return build_encoder(seed=self.encoder_seed, input_dim=self.synth.dim)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict, **overrides) -> "PipelineConfig":
        """`raw`'s config with `overrides` set over it: each field of `raw`
        must be well-formed, and the merged config consistent. A key left
        out of a sa_train, disease_train, ude or gezo block keeps the
        default config's value; a synth block is built afresh, since its
        default regions follow its side."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        cls._check_fields(raw)
        raw = {**raw, **overrides}
        try:
            if "synth" in raw:
                raw["synth"] = SynthConfig(**raw["synth"])
            default = cls()
            for key in ("sa_train", "disease_train", "ude", "gezo"):
                if key in raw:
                    raw[key] = replace(getattr(default, key), **raw[key])
            for key in ("train_counts", "test_counts"):
                if key in raw and not isinstance(raw[key], CellCounts):
                    grid = raw[key]
                    raw[key] = CellCounts(**grid) if isinstance(grid, dict) else CellCounts(grid)
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path, **overrides) -> "PipelineConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 JSON
            raise ConfigError(f"invalid config file {path}: {exc}") from exc
        return cls.from_dict(raw, **overrides)


def derive(cfg: PipelineConfig, tag: int) -> int:
    return derive_seed(cfg.seed, tag)


def make_oracle(cfg: PipelineConfig):
    """The oracle cfg.oracle names, with the capability cfg.mode needs: in
    process, around the encoder cfg.encoder_seed names, input gradients in
    white-box mode and forward-only otherwise; remote, always forward-only."""
    if cfg.oracle != "inprocess":
        return RemoteOracle(cfg.oracle)
    cap = FORWARD_WITH_INPUT_GRAD if cfg.mode == "whitebox" else FORWARD_ONLY
    return InProcessOracle(cfg.encoder(), capability=cap)


def make_out_dir(path) -> str:
    """path, created if absent; ConfigError when it cannot be, so that an
    unusable --out is rejected before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# the stages: each body(cfg, oracle, store) takes the stage's inputs from the
# store and puts its outputs there

def _generate(cfg: PipelineConfig, oracle, store) -> None:
    """The biased training set and the balanced test set."""
    store["train_data"] = generate(cfg.synth, cfg.train_counts, derive(cfg, TAG_DATA_TRAIN))
    store["test_data"] = generate(cfg.synth, cfg.test_counts, derive(cfg, TAG_DATA_TEST))


def _train_sa(cfg: PipelineConfig, oracle, store) -> None:
    """The group-attribute head on clean embeddings, and its loss trace."""
    train = store["train_data"]
    store["sa_head"], store["sa_loss_trace"] = train_head(
        oracle, train.images, train.sa_labels, cfg.sa_train, derive(cfg, TAG_SA_TRAIN))
    if isinstance(store, RunDirectory):
        # The saved head records its training-set accuracy, which the CLI
        # prints: one more embed of the training set, which in-memory runs
        # skip. perfbench pins the query counts of both paths.
        store["sa_train_accuracy"] = head_accuracy(
            store["sa_head"], oracle.embed(train.images), train.sa_labels)


def _learn_edit(cfg: PipelineConfig, oracle, store) -> None:
    """The universal edit; white-box mode needs an input-gradient oracle."""
    train = store["train_data"]
    learn, edit_cfg = ((learn_ude_whitebox, cfg.ude) if cfg.mode == "whitebox"
                       else (learn_ude_gezo, cfg.gezo))
    store["edit"] = learn(oracle, store["sa_head"], train.images, train.sa_labels,
                          edit_cfg, derive(cfg, TAG_EDIT))


def train_disease(cfg: PipelineConfig, oracle, store) -> None:
    """The plain-baseline disease head (edit = 0) and, when the store holds
    an edit, the debiased head on edited inputs, trained in one loop."""
    train, d_cfg, seed = store["train_data"], cfg.disease_train, derive(cfg, TAG_DISEASE)
    zeros = np.zeros(train.images.shape[1], dtype=np.float32)
    if "edit" not in store:
        [(store["erm_head"], _)] = train_fair_disease(oracle, [zeros], train.images,
                                                      train.disease_labels, d_cfg, seed)
        return
    (store["erm_head"], _), (store["disease_head"], _) = train_fair_disease(
        oracle, [zeros, store["edit"].eps], train.images, train.disease_labels, d_cfg, seed)


def _evaluate(cfg: PipelineConfig, oracle, store) -> None:
    """Fairness reports on the balanced test set: "erm" for the plain disease
    head and, when there is a debiased head, "ude" for it on edited inputs.
    Every input is taken before the test set is embedded under the zero
    edit and the learned one, in one oracle call."""
    test, heads = store["test_data"], {"erm": store["erm_head"]}
    edits = [np.zeros(test.images.shape[1], dtype=np.float32)]
    if "disease_head" in store:
        heads["ude"] = store["disease_head"]
        edits.append(store["edit"].eps)
    z = store["test_embeddings"] = oracle.embed_edits(test.images, np.stack(edits))
    store["reports"] = {name: evaluate(head, zk, test.disease_labels, test.sa_labels)
                        for (name, head), zk in zip(heads.items(), z)}


@dataclass(frozen=True)
class Stage:
    """A stage: the artifacts it reads, in its manifest's order, those it
    may write, and its body; its CLI verb is its name with "-" for "_"."""
    name: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    body: Callable


# the pipeline, in order
STAGES = {stage.name: stage for stage in (
    Stage("generate", (), ("train_data", "test_data"), _generate),
    Stage("train_sa", ("train_data",), ("sa_head",), _train_sa),
    Stage("learn_edit", ("train_data", "sa_head"), ("edit",), _learn_edit),
    Stage("train_disease", ("train_data", "edit"), ("erm_head", "disease_head"),
          train_disease),
    Stage("evaluate", ("test_data", "erm_head", "disease_head", "edit"), ("reports",),
          _evaluate),
)}


def _save_reports(dirpath, reports: dict) -> None:
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "evaluation.json"), "w") as fh:
        json.dump({k: asdict(r) for k, r in reports.items()}, fh, indent=2)
    with open(os.path.join(dirpath, "evaluation.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + CSV_HEADER)
        for name, rep in reports.items():
            writer.writerow([name] + rep.csv_row())


@dataclass(frozen=True)
class Artifact:
    """How a run directory keeps an artifact: its path under the output
    directory; the tensor_io kind and dataclass it is saved as (the reports,
    which no stage reads, have neither and are saved as JSON and CSV); the
    notes its provenance records besides the class's fields, each key's
    value taken from the store; and the shapes the config requires of its
    tensors, checked as it is loaded (None: any size)."""
    path: str
    kind: str | None = None
    cls: type | None = None
    notes: dict = field(default_factory=dict)
    shapes: Callable = lambda cfg: {}


def _data_shapes(cfg: PipelineConfig) -> dict:
    return {"images": (None, cfg.synth.dim)}


def _head_shapes(cfg: PipelineConfig) -> dict:
    return {"weight": (cfg.encoder().embed_dim, NUM_CLASSES)}


def _head(path: str, **notes) -> Artifact:
    return Artifact(path, "linear_head", LinearHead, notes, _head_shapes)


ARTIFACTS = {
    "train_data": Artifact(os.path.join("data", "train"), "labeled_image_set",
                           LabeledImageSet, shapes=_data_shapes),
    "test_data": Artifact(os.path.join("data", "test"), "labeled_image_set",
                          LabeledImageSet, shapes=_data_shapes),
    "sa_head": _head("sa_head", task=lambda run: "sensitive_attribute",
                     train_accuracy=lambda run: run["sa_train_accuracy"],
                     loss_trace=lambda run: run["sa_loss_trace"]),
    "edit": Artifact("edit", "edit_artifact", EditArtifact,
                     shapes=lambda cfg: {"eps": (cfg.synth.dim,)}),
    "erm_head": _head("erm_head", task=lambda run: "disease", edit=lambda run: "zero"),
    "disease_head": _head("disease_head", task=lambda run: "disease",
                          edit=lambda run: run["edit"].mode),
    "reports": Artifact("reports"),
}


def save_output(run, name: str, path) -> None:
    """Save the artifact `name` that the store `run` holds at `path`, with
    its notes taken from `run`."""
    row = ARTIFACTS[name]
    if row.kind is None:
        _save_reports(path, run[name])
    else:
        save_artifact(path, row.kind, run[name],
                      **{key: note(run) for key, note in row.notes.items()})


def load_input(cfg: PipelineConfig, name: str, path=None):
    """The artifact `name` saved at `path`, by default its place under
    cfg.out_dir; ArtifactError when it is missing, its files are unreadable
    or malformed, or its tensors are not of the shapes cfg requires."""
    row = ARTIFACTS[name]
    path = path or os.path.join(cfg.out_dir, row.path)
    shapes = row.shapes(cfg)
    try:
        return load_artifact(path, row.kind, row.cls, row.notes, shapes)
    except (OSError, ValueError, TypeError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc


def _file_digests(root) -> dict:
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class RunDirectory(dict):
    """The store of an output directory, cfg.out_dir, created here. load()
    takes in a stage's inputs saved there, so that `in`, get() and [] agree
    on what the stage reads; save() writes what a stage put in the store,
    then the stage's manifest."""

    def __init__(self, cfg: PipelineConfig):
        super().__init__()
        self.cfg = cfg
        make_out_dir(cfg.out_dir)

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, ARTIFACTS[name].path)

    def __missing__(self, name: str):
        raise ArtifactError(f"missing stage input {name}: nothing saved in {self.path(name)}")

    def load(self, stage: Stage) -> None:
        """Take in each input of `stage` saved in the directory and not held
        (load_input); ArtifactError, before any oracle call, when one cannot
        be read or is not of the shapes the config requires."""
        for name in stage.reads:
            path = self.path(name)
            if name not in self and os.path.exists(os.path.join(path, PROVENANCE)):
                self[name] = load_input(self.cfg, name, path)

    def save(self, stage: Stage) -> None:
        written = [name for name in stage.writes if name in self]
        for name in written:
            save_output(self, name, self.path(name))
        self.write_manifest(stage.name, stage.reads, written)

    def write_manifest(self, name: str, reads, writes) -> None:
        """<out>/manifests/<name>.json: the config and the file digests of
        the artifacts read and written that exist."""
        manifests = os.path.join(self.cfg.out_dir, "manifests")
        os.makedirs(manifests, exist_ok=True)
        manifest = {"stage": name, "version": __version__, "seed": self.cfg.seed,
                    "config": self.cfg.to_dict()}
        for side, artifacts in (("inputs", reads), ("outputs", writes)):
            manifest[side] = {p: _file_digests(p) for p in map(self.path, artifacts)
                              if os.path.exists(p)}
        with open(os.path.join(manifests, f"{name}.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)


def run_stages(cfg: PipelineConfig, names, store, oracle=None, grad_oracle=None,
               after=None):
    """Run the named stages, in the order given, against `store` (a
    RunDirectory, or a dict for a run in memory) and return it. The stages
    query one oracle: `oracle`, or else the one make_oracle builds for cfg,
    opened at the first stage that reads an input and closed at the end;
    `grad_oracle`, if given, serves the edit stage instead. A RunDirectory
    loads a stage's saved inputs before it runs and saves its outputs and
    manifest as it finishes; then after(stage name, store) is called."""
    with ExitStack() as owned:
        for name in names:
            stage = STAGES[name]
            if isinstance(store, RunDirectory):
                store.load(stage)
            if oracle is None and stage.reads:  # generate queries nothing
                oracle = owned.enter_context(closing(make_oracle(cfg)))
            edit_oracle = name == "learn_edit" and grad_oracle is not None
            stage.body(cfg, grad_oracle if edit_oracle else oracle, store)
            if isinstance(store, RunDirectory):
                store.save(stage)
            if after is not None:
                after(name, store)
    return store


def cmd_serve(cfg: PipelineConfig, address: str) -> OracleServer:
    """A forward-only server around the encoder cfg.encoder_seed names;
    ConfigError when it cannot listen on `address`."""
    try:
        return OracleServer(cfg.encoder(), address)
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
    """Run every stage in memory for one seed; no artifacts written.

    Every stage queries `oracle`, or else the one make_oracle builds for
    cfg; `grad_oracle` overrides the edit stage's oracle. The group head's
    accuracies are taken on the evaluation stage's test-set embeddings.
    """
    run = run_stages(cfg, STAGES, {}, oracle, grad_oracle)
    sa_head, test, reports = run["sa_head"], run["test_data"], run["reports"]
    clean, edited = run["test_embeddings"]
    return ExperimentResult(
        sa_acc_clean=head_accuracy(sa_head, clean, test.sa_labels),
        sa_acc_edited=head_accuracy(sa_head, edited, test.sa_labels),
        edit=run["edit"], erm_report=reports["erm"], ude_report=reports["ude"],
        train=run["train_data"], test=test)


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
    reports = make_out_dir(os.path.join(cfg.out_dir, "reports"))
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
    RunDirectory(cfg).write_manifest(f"sweep_{param}", (), ("reports",))
    return rows
