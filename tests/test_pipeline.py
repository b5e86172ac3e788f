import json
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

import ude.pipeline
from ude.datagen import CellCounts, SynthConfig
from ude.editing import EditArtifact, apply_edit
from ude.gezo import GezoConfig
from ude.models import (
    TrainConfig,
    build_encoder,
    encoder_forward,
    head_accuracy,
    load_head,
)
from ude.oracle import (
    FORWARD_ONLY,
    FORWARD_WITH_INPUT_GRAD,
    CapabilityError,
    InProcessOracle,
    RemoteOracle,
)
from ude.pipeline import (
    ConfigError,
    PipelineConfig,
    RunDirectory,
    cmd_serve,
    cmd_sweep,
    make_oracle,
    run_experiment,
    run_stages,
    train_disease,
)

from conftest import encoder_digests, head_bytes


def tiny_config(out_dir, **overrides) -> PipelineConfig:
    """A pipeline small enough for fast staged tests."""
    base = dict(
        seed=1,
        out_dir=str(out_dir),
        train_counts=CellCounts([[60, 6], [6, 60]]),
        test_counts=CellCounts([[15, 15], [15, 15]]),
        sa_train=TrainConfig("adam", 1e-2, epochs=10, batch_size=8),
        disease_train=TrainConfig("adamw", 1e-2, epochs=10, batch_size=8),
        gezo=GezoConfig(local_iters=3, samples=2, epochs=3),
    )
    base.update(overrides)
    cfg = PipelineConfig(**base)
    cfg.ude.epochs = 10
    return cfg


def staged(cfg, *names) -> RunDirectory:
    """The named stages run against cfg's output directory, as the stage
    verbs run them."""
    return run_stages(cfg, names, RunDirectory(cfg))


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = PipelineConfig(seed=9, mode="gezo")
        back = PipelineConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "mode": "gezo",
                                    "gezo": {"local_iters": 2}}))
        cfg = PipelineConfig.from_json_file(path)
        assert cfg.seed == 3
        assert cfg.gezo.local_iters == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_file(path)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"bogus": 1})

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            PipelineConfig(mode="grey")

    def test_whitebox_remote_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(mode="whitebox", oracle="127.0.0.1:9")

    @pytest.mark.parametrize("mode,address,kind,capability", [
        ("whitebox", "inprocess", InProcessOracle, FORWARD_WITH_INPUT_GRAD),
        ("gezo", "inprocess", InProcessOracle, FORWARD_ONLY),
        ("gezo", "127.0.0.1:9", RemoteOracle, FORWARD_ONLY),
    ])
    def test_oracle_capability_follows_mode(self, tmp_path, mode, address, kind,
                                            capability):
        oracle = make_oracle(tiny_config(tmp_path, mode=mode, oracle=address))
        assert type(oracle) is kind
        assert oracle.capability == capability
        if kind is RemoteOracle:
            assert oracle._sock is None  # built without connecting


class TestStagedPipeline:
    def test_whitebox_stages_end_to_end(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        staged(cfg, "generate")
        acc = staged(cfg, "train_sa")["sa_train_accuracy"]
        assert 0 <= acc <= 1
        artifact = staged(cfg, "learn_edit")["edit"]
        assert artifact.mode == "whitebox"
        staged(cfg, "train_disease")
        reports = staged(cfg, "evaluate")["reports"]
        assert set(reports) == {"erm", "ude"}
        eval_json = json.loads(
            (tmp_path / "run" / "reports" / "evaluation.json").read_text())
        assert set(eval_json) == {"erm", "ude"}
        csv_text = (tmp_path / "run" / "reports" / "evaluation.csv").read_text()
        assert csv_text.splitlines()[0] == "method,EO_n,EO_p,DI,Acc"

    def test_gezo_stage(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", mode="gezo")
        staged(cfg, "generate")
        staged(cfg, "train_sa")
        artifact = staged(cfg, "learn_edit")["edit"]
        assert artifact.mode == "gezo"

    def test_evaluate_without_edit_reports_erm_only(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        staged(cfg, "generate")
        staged(cfg, "train_sa")
        staged(cfg, "train_disease")
        reports = staged(cfg, "evaluate")["reports"]
        assert set(reports) == {"erm"}

    def test_manifests_record_output_digests(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        staged(cfg, "generate")
        manifest = json.loads(
            (tmp_path / "run" / "manifests" / "generate.json").read_text())
        assert manifest["stage"] == "generate"
        assert manifest["seed"] == cfg.seed
        outs = manifest["outputs"]
        train_key = next(k for k in outs if k.endswith("train"))
        assert "images.udet" in outs[train_key]
        assert len(outs[train_key]["images.udet"]) == 64  # sha256 hex

    def test_rerun_reproduces_identical_artifacts(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            cfg = tiny_config(tmp_path / name)
            staged(cfg, "generate")
            staged(cfg, "train_sa")
            staged(cfg, "learn_edit")
            eps = (tmp_path / name / "edit" / "eps.udet").read_bytes()
            digests.append(eps)
        assert digests[0] == digests[1]

    def test_stage_uses_the_configured_encoder(self, tmp_path):
        """A stage queries the encoder its config's encoder_seed names, also in
        a directory that already holds another encoder_seed's run."""
        heads = {}
        for name in ("fresh", "reused"):
            cfg = tiny_config(tmp_path / name)
            staged(cfg, "generate")
            if name == "reused":
                staged(replace(cfg, encoder_seed=3), "train_sa")
                heads["other"] = head_bytes(load_head(tmp_path / name / "sa_head"))
            staged(cfg, "train_sa")
            heads[name] = head_bytes(load_head(tmp_path / name / "sa_head"))
        assert heads["reused"] == heads["fresh"] != heads["other"]
        assert not (tmp_path / "reused" / "encoder").exists()

    def test_serve_uses_the_configured_encoder(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        staged(cfg, "generate")
        staged(replace(cfg, encoder_seed=3), "train_sa")
        x = np.random.default_rng(0).normal(size=(4, cfg.synth.dim)).astype(np.float32)
        server = cmd_serve(cfg, "127.0.0.1:0")
        server.start_background()
        try:
            with closing(RemoteOracle(server.bound_address)) as oracle:
                z = oracle.embed(x)
        finally:
            server.shutdown()
        enc = build_encoder(seed=cfg.encoder_seed, input_dim=cfg.synth.dim)
        assert z.tobytes() == encoder_forward(enc, x).tobytes()


class TestRunExperiment:
    def test_result_shape(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = run_experiment(cfg)
        assert 0 <= result.sa_acc_clean <= 1
        assert 0 <= result.sa_acc_edited <= 1
        assert result.edit.mode == "whitebox"
        assert result.erm_report.accuracy >= 0
        assert result.ude_report.accuracy >= 0

    def test_forward_oracle_never_asked_for_gradients(self, tmp_path, encoder):
        from ude.oracle import InProcessOracle

        class StrictForward(InProcessOracle):
            def embed_vjp(self, batch):
                raise CapabilityError("forward-only")

        cfg = tiny_config(tmp_path, mode="gezo")
        run_experiment(cfg, oracle=StrictForward(encoder))

    def test_whitebox_edit_stage_needs_a_gradient_oracle(self, tmp_path, encoder):
        cfg = tiny_config(tmp_path)
        with pytest.raises(CapabilityError):
            run_experiment(cfg, oracle=InProcessOracle(encoder))
        grad = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        assert run_experiment(cfg, oracle=InProcessOracle(encoder),
                              grad_oracle=grad).edit.mode == "whitebox"


    @pytest.mark.parametrize("mode", ["whitebox", "gezo"])
    def test_given_oracles_are_the_only_path_to_an_encoder(self, tmp_path, monkeypatch,
                                                           mode):
        # an encoder other than the config's, so a second path would show
        enc = build_encoder(seed=7)
        oracle = InProcessOracle(enc)
        grad = InProcessOracle(enc, capability=FORWARD_WITH_INPUT_GRAD)

        def no_encoder(*args, **kwargs):
            raise AssertionError("run_experiment built its own encoder")

        monkeypatch.setattr(ude.pipeline, "build_encoder", no_encoder)
        cfg = tiny_config(tmp_path, mode=mode)
        result = run_experiment(cfg, oracle=oracle,
                                grad_oracle=grad if mode == "whitebox" else None)
        sa_head = run_stages(cfg, ["train_sa"], {"train_data": result.train},
                             InProcessOracle(enc))["sa_head"]
        test = result.test
        edited = apply_edit(test.images, result.edit.eps)
        assert result.sa_acc_clean == head_accuracy(sa_head, oracle.embed(test.images),
                                                    test.sa_labels)
        assert result.sa_acc_edited == head_accuracy(sa_head, oracle.embed(edited),
                                                     test.sa_labels)


class TestTrainDisease:
    @pytest.mark.parametrize("with_edit", [True, False])
    def test_one_embed_call_of_the_training_set_per_head(self, tmp_path, encoder,
                                                          with_edit):
        # the logical query count of a pipeline (perfbench's
        # gezo_expected_queries) counts one embed per disease head
        class Recording(InProcessOracle):
            def __init__(self, encoder):
                super().__init__(encoder)
                self.rows = []

            def embed(self, batch):
                self.rows.append(batch.shape[0])
                return super().embed(batch)

        cfg = tiny_config(tmp_path)
        run = run_stages(cfg, ["generate"], {})
        train = run["train_data"]
        if with_edit:
            eps = np.full(train.images.shape[1], 0.1, dtype=np.float32)
            run["edit"] = EditArtifact(eps, [], [], {}, seed=0)
        oracle = Recording(encoder)
        train_disease(cfg, oracle, run)
        n = train.images.shape[0]
        assert oracle.rows == ([n, n] if with_edit else [n])
        assert ("disease_head" in run) == with_edit
        if with_edit:
            assert head_bytes(run["disease_head"]) != head_bytes(run["erm_head"])


class TestSweep:
    def test_unknown_param(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(tiny_config(tmp_path), "lr", [0.1])

    def test_lambda_sweep_rows_and_csv(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        rows = cmd_sweep(cfg, "lambda", [0.01, 1.0])
        assert [r["value"] for r in rows] == [0.01, 1.0]
        assert all({"EO_n", "EO_p", "DI", "Acc", "seed", "eps_norm"} <= set(r)
                   for r in rows)
        csv_lines = (tmp_path / "run" / "reports" / "sweep_lambda.csv") \
            .read_text().strip().splitlines()
        assert len(csv_lines) == 3

    def test_local_iters_sweep_forces_gezo(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        cfg.gezo.epochs = 2
        rows = cmd_sweep(cfg, "local_iters", [2])
        assert len(rows) == 1


class TestSyntheticDefaults:
    def test_default_counts_match_published_scale(self):
        cfg = PipelineConfig()
        assert cfg.train_counts.n == [[500, 50], [50, 500]]
        assert cfg.test_counts.n == [[50, 50], [50, 50]]
        assert isinstance(cfg.synth, SynthConfig)

    def test_encoder_shared_across_seeds(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a", seed=1)
        cfg_b = tiny_config(tmp_path / "b", seed=2)
        assert encoder_digests(make_oracle(cfg_a).encoder) == \
            encoder_digests(make_oracle(cfg_b).encoder)
