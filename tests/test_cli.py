import argparse
import csv
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict, make_dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ude.oracle
import ude.pipeline
import ude.tensor_io
from ude.cli import (
    EXIT_ARTIFACT,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_METRIC,
    EXIT_OK,
    EXIT_REMOTE,
    build_parser,
    main,
)
from ude.pipeline import (
    ARTIFACTS,
    STAGES,
    ConfigError,
    PipelineConfig,
    RunDirectory,
    make_oracle,
    run_experiment,
    save_output,
    sweep_config,
)
from ude.tensor_io import PROVENANCE, save_artifact, save_tensor


NAN, INF = float("nan"), float("inf")  # json writes them as NaN and Infinity


def write_tiny_config(tmp_path, **overrides):
    raw = {
        "seed": 1,
        "out_dir": str(tmp_path / "run"),
        "train_counts": [[60, 6], [6, 60]],
        "test_counts": [[15, 15], [15, 15]],
        "sa_train": {"optimizer": "adam", "lr": 1e-2, "epochs": 10, "batch_size": 8},
        "disease_train": {"optimizer": "adamw", "lr": 1e-2, "epochs": 10,
                          "batch_size": 8},
        "ude": {"epochs": 10},
        "gezo": {"local_iters": 3, "samples": 2, "epochs": 3},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


# stage input -> (a verb that reads it, what that verb writes, its files)
STAGE_INPUTS = {
    "data/train": ("train-sa", ["sa_head", "manifests/train_sa.json"],
                   ["provenance.json", "images.udet", "sa_labels.udet",
                    "disease_labels.udet"]),
    "data/test": ("evaluate", ["reports", "manifests/evaluate.json"],
                  ["provenance.json", "images.udet", "sa_labels.udet",
                   "disease_labels.udet"]),
    "sa_head": ("learn-edit", ["edit", "manifests/learn_edit.json"],
                ["provenance.json", "weight.udet", "bias.udet"]),
    "edit": ("train-disease", ["erm_head", "disease_head",
                               "manifests/train_disease.json"],
             ["provenance.json", "eps.udet"]),
    "erm_head": ("evaluate", ["reports", "manifests/evaluate.json"],
                 ["provenance.json", "weight.udet", "bias.udet"]),
    "disease_head": ("evaluate", ["reports", "manifests/evaluate.json"],
                     ["provenance.json", "weight.udet", "bias.udet"]),
}


# what a config leaf or sub-object is replaced with; ints small enough that
# no count or side makes generate outgrow the default config by much
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 32), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 32), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 32), max_size=2))


@st.composite
def mutated_configs(draw):
    """PipelineConfig().to_dict() with one or two of its leaves or
    sub-objects (at any depth, list items included) replaced."""
    raw = PipelineConfig().to_dict()
    for _ in range(draw(st.integers(1, 2))):
        node, key = raw, draw(st.sampled_from(sorted(raw)))
        while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
        node[key] = draw(CONFIG_VALUES)
    return raw


@given(raw=mutated_configs())
@example(raw={"synth": {"sa_region": [True]}})
@example(raw={"seed": True})
@example(raw={"sa_train": {"epochs": True}})
@example(raw={"train_counts": {"m": 1}})
@example(raw={"out_dir": 5})
@example(raw={"sa_train": {"lr": True}})
@example(raw={"ude": {"lam": False}})
@example(raw={"synth": {"noise_sigma": -0.4}})
@example(raw={"oracle": ["127.0.0.1:7447"], "mode": "gezo"})
@settings(max_examples=150, deadline=None)
def test_generate_exits_0_exactly_on_an_accepted_config(raw):
    text = json.dumps(raw)  # NaN and Infinity included
    try:
        PipelineConfig.from_dict(json.loads(text))
        expected = EXIT_OK
    except ConfigError:
        expected = EXIT_CONFIG
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            fh.write(text)
        assert main(["generate", "--config", path, "--out",
                     os.path.join(tmp, "run")]) == expected


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The output directory of one tiny white-box `ude run`."""
    base = tmp_path_factory.mktemp("full")
    assert main(["run", "--config", write_tiny_config(base)]) == EXIT_OK
    return base / "run"


@pytest.fixture(scope="module")
def side_12_run(tmp_path_factory):
    """The output directory of the same run on 12 x 12 images."""
    base = tmp_path_factory.mktemp("side12")
    assert main(["run", "--config", write_tiny_config(base, synth={"side": 12})]) == EXIT_OK
    return base / "run"


def without_outputs_of_reader(tmp_path, full_run, artifact):
    """A copy of full_run, in tmp_path / "run", without what the verb that
    reads `artifact` writes; (its config, the verb, those outputs)."""
    verb, outputs, _ = STAGE_INPUTS[artifact]
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    for out in outputs:
        if out.endswith(".json"):
            (run_dir / out).unlink()
        else:
            shutil.rmtree(run_dir / out)
    return write_tiny_config(tmp_path), verb, [run_dir / out for out in outputs]


def test_a_run_directory_holds_only_what_it_has_loaded(tmp_path, full_run):
    """On a finished run, `in` and get() agree on the edit before the
    evaluate stage's inputs are loaded, when the store holds nothing, and
    after, when it holds the saved edit."""
    shutil.copytree(full_run, tmp_path / "run")
    store = RunDirectory(PipelineConfig.from_json_file(write_tiny_config(tmp_path)))
    for loaded in (False, True):
        assert ("edit" in store) == (store.get("edit") is not None) == loaded
        store.load(STAGES["evaluate"])


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1}))
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("mode,section", [("whitebox", "ude"), ("gezo", "gezo")])
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_empty_edit_epochs_or_batches_are_config_errors(self, tmp_path, capsys,
                                                            mode, section, field):
        cfg = write_tiny_config(tmp_path, mode=mode, **{section: {field: 0}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_whitebox_remote_is_config_error(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["learn-edit", "--config", cfg, "--mode", "whitebox",
                     "--oracle", "127.0.0.1:9"]) == EXIT_CONFIG

    def test_flags_are_set_over_the_file_before_it_is_checked(self, tmp_path, capsys):
        # white-box with a remote oracle is invalid alone; --mode gezo makes
        # it a valid config whose server is down
        cfg = write_tiny_config(tmp_path, oracle="127.0.0.1:1")
        assert main(["run", "--config", cfg, "--mode", "gezo"]) == EXIT_REMOTE
        assert capsys.readouterr().err.startswith("remote error: ")
        cfg = write_tiny_config(tmp_path, mode="gezo", oracle="127.0.0.1:1")
        out = tmp_path / "whitebox"
        assert main(["run", "--config", cfg, "--mode", "whitebox",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "whitebox mode needs gradient access" in capsys.readouterr().err
        assert not out.exists()

    def test_remote_error_when_server_down(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, mode="gezo")
        assert main(["generate", "--config", cfg]) == EXIT_OK
        assert main(["train-sa", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert main(["learn-edit", "--config", cfg, "--mode", "gezo",
                     "--oracle", "127.0.0.1:1"]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith("remote error: ") and "127.0.0.1:1" in err

    def test_remote_error_when_socket_path_is_missing(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["run", "--config", cfg, "--mode", "gezo",
                     "--oracle", str(tmp_path / "absent.sock")]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith("remote error: ") and "absent.sock" in err

    def test_remote_error_when_server_never_answers(self, tmp_path, silent_server,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(ude.oracle, "CLIENT_TIMEOUT_S", 0.2)
        cfg = write_tiny_config(tmp_path, mode="gezo", oracle=silent_server)
        assert main(["generate", "--config", cfg]) == EXIT_OK
        assert main(["train-sa", "--config", cfg]) == EXIT_REMOTE
        assert "no answer" in capsys.readouterr().err

    def test_remote_error_names_the_servers_refusal(self, tmp_path, encoder, capsys):
        # GeZO's first request, 4,096 rows under 66 edits, asks for more
        # rows than the server embeds in one answer; it refuses from the
        # header and closes while the client is still sending the 4 MiB batch
        from ude.oracle import ERR_MALFORMED, OracleServer

        server = OracleServer(encoder, "127.0.0.1:0")
        server.start_background()
        try:
            cfg = write_tiny_config(
                tmp_path, train_counts=[[1024, 1024], [1024, 1024]],
                sa_train={"optimizer": "adam", "lr": 1e-2, "epochs": 1, "batch_size": 512},
                gezo={"local_iters": 1, "samples": 33, "epochs": 1, "batch_size": 4096})
            assert main(["run", "--config", cfg, "--mode", "gezo",
                         "--oracle", server.bound_address]) == EXIT_REMOTE
        finally:
            server.shutdown()
        err = capsys.readouterr().err
        assert err.startswith(f"remote error: server error {ERR_MALFORMED}: rows to embed")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("mode,overrides", [
        ("whitebox", {"ude": {"epochs": 20, "lr": 1e38}}),
        ("gezo", {"gezo": {"local_iters": 3, "samples": 2, "epochs": 20,
                           "init_step": 1e38}}),
    ])
    def test_diverging_edit_stops_at_the_epoch(self, tmp_path, capsys, mode,
                                               overrides):
        cfg = write_tiny_config(tmp_path, mode=mode, **overrides)
        assert main(["run", "--config", cfg]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert f"{mode} edit learning diverged in epoch" in err
        assert not (tmp_path / "run" / "edit").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("verb,section,heads", [
        ("train-sa", "sa_train", ["sa_head"]),
        ("run", "disease_train", ["erm_head", "disease_head"]),
    ])
    def test_diverging_head_training_stops_at_the_epoch(self, tmp_path, capsys, verb,
                                                        section, heads):
        cfg = write_tiny_config(tmp_path, **{section: {
            "optimizer": "sgd", "lr": 1e38, "epochs": 3, "batch_size": 8}})
        if verb != "run":
            assert main(["generate", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert main([verb, "--config", cfg]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("numerical error: head 1 of ")
        assert "training diverged in epoch 1 of 3" in err
        assert not any((tmp_path / "run" / head).exists() for head in heads)

    def test_bad_sweep_values(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        for flags in (["--values", "a,b"], ["--values", "0.01", "--seeds", "a"],
                      ["--values", "0.01", "--seeds", "1.5"],
                      ["--values", "0.01", "--seeds", ","],
                      ["--values", "0.01,,0.1"], ["--values", "0.01,"],
                      ["--values", "0.01", "--seeds", "1,,2"],
                      ["--values", "0.01", "--seeds", "1", "--seed", "2"]):
            assert main(["sweep", "--config", cfg, "--param", "lambda",
                         *flags]) == EXIT_CONFIG, flags

    def test_sweep_checks_every_value_first(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("a pipeline ran before every value was checked")

        monkeypatch.setattr(ude.pipeline, "generate", no_work)
        cfg = write_tiny_config(tmp_path)
        for flags in (["--values", ","], ["--values", "0.01,-1"],
                      ["--values", "0.01,1", "--seeds", "1,a"],
                      ["--values", "0.01,1", "--seeds", "1,1.5"],
                      ["--values", "0.01", "--seeds", ""],
                      ["--values", "0.01", "--seeds", ","],
                      ["--values", "0.01", "--seeds", "1", "--seed", "2"]):
            assert main(["sweep", "--config", cfg, "--param", "lambda",
                         *flags]) == EXIT_CONFIG, flags
            assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("param,values", [("lambda", "-1"), ("lambda", "nan"),
                                              ("lambda", "inf"),
                                              ("local_iters", "0.5"),
                                              ("local_iters", "2.5"),
                                              ("local_iters", "inf")])
    def test_out_of_range_sweep_values(self, tmp_path, capsys, param, values):
        cfg = write_tiny_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", param,
                     "--values", values]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_sweep_uses_configured_remote_oracle(self, tmp_path):
        cfg = write_tiny_config(tmp_path, mode="gezo", oracle="127.0.0.1:1")
        assert main(["sweep", "--config", cfg, "--param", "lambda",
                     "--values", "0.01"]) == EXIT_REMOTE

    @pytest.mark.parametrize("raw", [
        [], {"synth": [1]}, {"seed": "x"}, {"disease_train": {"optimizer": "foo"}},
        {"sa_train": {"seed": 5}}, {"disease_train": {"seed": 5}},
        {"ude": {"seed": 5}}, {"gezo": {"seed": 5}},
        {"sa_train": {"epochs": 1.5}}, {"disease_train": {"batch_size": 8.0}},
        {"ude": {"epochs": 2.0}}, {"gezo": {"local_iters": 2.5}},
        {"mode": "gezo", "gezo": {"samples": 2.0}},
        {"synth": {"side": 3}}, {"synth": {"sa_region": [-1]}},
        {"train_counts": [[0, 0], [0, 0]]}, {"test_counts": [[0, 0], [0, 0]]},
        {"sa_train": {"lr": NAN}}, {"disease_train": {"lr": INF}},
        {"ude": {"lr": NAN}}, {"ude": {"lam": NAN}}, {"ude": {"lam": INF}},
        {"gezo": {"lam": NAN}}, {"gezo": {"lam": INF}}, {"gezo": {"init_step": NAN}},
        {"gezo": {"init_step": INF}}, {"gezo": {"init_step": 0}},
        {"synth": {"signal_amp": NAN}}, {"synth": {"shared_amp_frac": INF}},
        {"synth": {"noise_sigma": -INF}}, {"train_counts": [[INF, 6], [6, 60]]},
        {"test_counts": [[15.5, 15], [15, 15]]}, {"synth": {"pattern_seed": 1.5}},
        {"synth": {"sa_region": [True]}}, {"seed": True}, {"sa_train": {"epochs": True}},
        {"train_counts": {"m": 1}}, {"out_dir": 5}, {"synth": {"signal_amp": [1]}},
        {"synth": {"shared_region": ""}}, {"synth": {"noise_sigma": 3.4e38}},
        {"sa_train": {"lr": True}}, {"ude": {"lam": False}}, {"gezo": {"init_step": True}},
        {"gezo": {"momentum": False}}, {"synth": {"signal_amp": True}},
        {"synth": {"noise_sigma": -0.4}}, {"oracle": ["127.0.0.1:7447"], "mode": "gezo"},
        {"oracle": {"x": 1}, "mode": "gezo"},
    ], ids=json.dumps)
    def test_malformed_config_is_config_error(self, tmp_path, capsys, raw):
        # stage seeds derive from the global seed, so sub-configs take none
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["generate", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["train-sa", "learn-edit", "train-disease",
                                      "evaluate", "noise-map"])
    def test_missing_stage_input_is_artifact_error(self, tmp_path, capsys, verb):
        out = tmp_path / "absent"
        assert main([verb, "--out", str(out)]) == EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")

    @pytest.mark.parametrize("garble", [b"garbage", b"UDET\x01", b"UDET\x01\x00\x02",
                                        b"UDET\x01\x00\x01\x05\x00\x00\x00"],
                             ids=["magic", "no-rank", "no-dims", "no-payload"])
    def test_corrupt_stage_input_is_artifact_error(self, tmp_path, capsys, garble):
        cfg = write_tiny_config(tmp_path)
        assert main(["generate", "--config", cfg]) == EXIT_OK
        (tmp_path / "run" / "data" / "train" / "images.udet").write_bytes(garble)
        assert main(["train-sa", "--config", cfg]) == EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")
        assert not (tmp_path / "run" / "sa_head").exists()

    @pytest.mark.parametrize("artifact,garble", [
        (artifact, (name, how)) for artifact, (_, _, names) in STAGE_INPUTS.items()
        for name in names for how in ("garbage", "truncated", "non-finite")
        if how != "non-finite" or name.endswith(".udet")],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
    def test_every_file_of_a_stage_input_is_checked(self, tmp_path, capsys, full_run,
                                                     artifact, garble):
        """A garbled or truncated file of any artifact a stage reads, or a
        tensor of it whose last value is NaN, stops that stage with exit 7
        before it writes anything."""
        names = STAGE_INPUTS[artifact][2]
        cfg, verb, outputs = without_outputs_of_reader(tmp_path, full_run, artifact)
        assert sorted(p.name for p in (tmp_path / "run" / artifact).iterdir()) == \
            sorted(names)
        name, how = garble
        path = tmp_path / "run" / artifact / name
        blob = path.read_bytes()
        path.write_bytes({"garbage": b"garbage", "truncated": blob[:len(blob) // 2],
                          "non-finite": blob[:-4] + struct.pack("<f", NAN)}[how])
        assert main([verb, "--config", cfg]) == EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")
        assert not any(out.exists() for out in outputs)

    def test_a_provenance_naming_a_file_outside_is_artifact_error(self, tmp_path, capsys,
                                                                  full_run, monkeypatch):
        """An edit whose provenance lists the tensor ../../outside/secret,
        a valid tensor file there, stops train-disease with exit 7 before
        that file is opened or anything is written."""
        cfg, verb, outputs = without_outputs_of_reader(tmp_path, full_run, "edit")
        secret = tmp_path / "outside" / "secret.udet"
        secret.parent.mkdir()
        save_tensor(secret, np.zeros(1, np.float32))
        prov_path = tmp_path / "run" / "edit" / PROVENANCE
        prov = json.loads(prov_path.read_text())
        prov["tensors"][os.path.join("..", "..", "outside", "secret")] = [1]
        prov_path.write_text(json.dumps(prov))
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(os.path.realpath(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ude.tensor_io, "open", spy, raising=False)
        assert main([verb, "--config", cfg]) == EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ") and "of tensors ['eps']" in err
        assert os.path.realpath(secret) not in opened
        assert not any(out.exists() for out in outputs)

    @pytest.mark.parametrize("artifact,swap", [
        ("data/train", "side-12"), ("data/test", "side-12"), ("edit", "side-12"),
        ("data/train", "empty"), ("data/test", "empty")])
    def test_stage_input_of_another_shape_is_artifact_error(self, tmp_path, capsys,
                                                            full_run, side_12_run,
                                                            artifact, swap):
        """Data or an edit of a side-12 run, well-formed but 144 pixels wide,
        or data of no rows, stops a side-16 stage that reads it with exit 7
        before it writes anything."""
        cfg, verb, outputs = without_outputs_of_reader(tmp_path, full_run, artifact)
        shutil.rmtree(tmp_path / "run" / artifact)
        if swap == "side-12":
            shutil.copytree(side_12_run / artifact, tmp_path / "run" / artifact)
        else:
            # fields as LabeledImageSet's, without its check
            empty = make_dataclass("Data", ["images", "sa_labels", "disease_labels"])(
                np.zeros((0, 256), np.float32), np.zeros(0, np.float32),
                np.zeros(0, np.float32))
            save_artifact(tmp_path / "run" / artifact, ARTIFACTS["train_data"].kind, empty)
        assert main([verb, "--config", cfg]) == EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")
        assert not any(out.exists() for out in outputs)

    @pytest.mark.parametrize("rows,classes", [(None, 3), (16, 2)],
                             ids=["not-binary", "not-the-encoder-width"])
    def test_head_of_the_wrong_shape_is_artifact_error(self, tmp_path, capsys, full_run,
                                                       rows, classes):
        """A well-formed artifact whose head is not binary ([E,3] weight, [3]
        bias), or does not take the encoder's E-dim embeddings ([16,2]
        weight), stops learn-edit with exit 7 before it writes anything."""
        cfg, verb, outputs = without_outputs_of_reader(tmp_path, full_run, "sa_head")
        rows = rows or PipelineConfig().encoder().embed_dim
        # fields as LinearHead's, without its [E, 2] / [2] check
        head = make_dataclass("Head", ["weight", "bias"])(
            np.zeros((rows, classes), np.float32), np.zeros(classes, np.float32))
        save_artifact(tmp_path / "run" / "sa_head", ARTIFACTS["sa_head"].kind, head)
        assert main([verb, "--config", cfg]) == EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")
        assert not any(out.exists() for out in outputs)

    def test_noise_map_of_an_edit_of_another_side_is_artifact_error(self, tmp_path,
                                                                     capsys, full_run):
        """An edit learned at side 16 does not reshape to a side-12 map."""
        cfg = write_tiny_config(tmp_path, synth={"side": 12})
        assert main(["noise-map", "--config", cfg, "--edit",
                     str(full_run / "edit")]) == EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")
        assert not (tmp_path / "run" / "noise_map").exists()

    @pytest.mark.parametrize("argv", [["serve", "--address", "127.0.0.1:x"],
                                      ["noise-map"]], ids=lambda argv: argv[0])
    def test_verbs_that_read_no_seed_take_no_seed_flag(self, tmp_path, argv):
        # a malformed address and an absent edit: a verb that accepted the
        # flag would stop at them instead of serving or exporting
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(tmp_path / "absent")])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("fraction", ["0", "1.5", "-0.2", "nan"])
    def test_noise_map_top_fraction_is_checked_first(self, tmp_path, capsys, fraction):
        # no edit under --out: the flag is rejected before the edit is read
        assert main(["noise-map", "--out", str(tmp_path / "absent"),
                     "--top-fraction", fraction]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("address", ["127.0.0.1:x", "127.0.0.1:99999", "127.0.0.1:-1",
                                         ""])
    def test_malformed_address_is_config_error(self, tmp_path, capsys, address):
        assert main(["serve", "--address", address]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        out = tmp_path / "run"
        assert main(["run", "--mode", "gezo", "--oracle", address,
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_serve_on_an_address_in_use_is_config_error(self, encoder, capsys):
        from ude.oracle import OracleServer

        server = OracleServer(encoder, "127.0.0.1:0")
        try:
            assert main(["serve", "--address", server.bound_address]) == EXIT_CONFIG
        finally:
            server.shutdown()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_sigterm_stops_serve_with_exit_0_and_frees_its_socket(self, tmp_path,
                                                                 monkeypatch):
        # SIGTERM takes Ctrl-C's path: the server shuts down, removes its
        # socket file and exits 0, so a second server can bind the path
        from ude.oracle import InProcessOracle, RemoteOracle

        src = os.path.dirname(os.path.dirname(ude.oracle.__file__))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        path = tmp_path / "t.sock"

        def serve():
            proc = subprocess.Popen(
                [sys.executable, "-m", "ude.cli", "serve", "--address", str(path)],
                stdout=subprocess.PIPE, text=True)
            assert proc.stdout.readline().startswith("serving embeddings")
            return proc

        def stop(proc):
            proc.send_signal(signal.SIGTERM)
            try:
                return proc.wait(timeout=60)
            finally:
                proc.kill()
                proc.stdout.close()

        assert stop(serve()) == EXIT_OK
        assert not path.exists()
        second = serve()
        try:
            client = RemoteOracle(str(path))
            encoder = PipelineConfig.from_dict({}).encoder()
            x = np.ones((2, encoder.input_dim), np.float32)
            try:
                assert client.embed(x).tobytes() == InProcessOracle(encoder).embed(x).tobytes()
            finally:
                client.close()
        finally:
            assert stop(second) == EXIT_OK
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["generate"], ["run"],
                                      ["sweep", "--param", "lambda", "--values", "0.01"]],
                             ids=lambda argv: argv[0])
    def test_out_that_cannot_be_created_is_config_error(self, tmp_path, capsys,
                                                        monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("data generated before --out was checked")

        monkeypatch.setattr(ude.pipeline, "generate", no_work)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cfg = write_tiny_config(tmp_path)
        assert main([*argv, "--config", cfg, "--out", str(blocker / "run")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("blocker", ["data", "manifests", "reports", "noise_map"])
    def test_write_under_out_that_fails_is_config_error(self, tmp_path, capsys, full_run,
                                                        blocker):
        # a file where a verb writes a directory under --out: the write fails,
        # and the verb exits 2 naming where, with no traceback
        cfg = write_tiny_config(tmp_path)
        blocked = tmp_path / "run" / blocker
        blocked.parent.mkdir()
        blocked.write_text("not a directory")
        argv = (["noise-map", "--edit", str(full_run / "edit")] if blocker == "noise_map"
                else ["run"])
        assert main([*argv, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(blocked) in err
        assert "Traceback" not in err

    def test_removed_clamp_key_is_config_error(self, tmp_path):
        cfg = write_tiny_config(tmp_path, ude={"clamp": [0, 1]})
        assert main(["learn-edit", "--config", cfg]) == EXIT_CONFIG

    def test_undefined_metric(self, tmp_path):
        # single-group test set leaves DI/EO undefined
        cfg = write_tiny_config(tmp_path, test_counts=[[30, 0], [30, 0]])
        for verb in ("generate", "train-sa", "learn-edit", "train-disease"):
            assert main([verb, "--config", cfg]) == EXIT_OK
        assert main(["evaluate", "--config", cfg]) == EXIT_METRIC

    def test_undefined_metric_in_a_run_keeps_the_earlier_stages(self, tmp_path, capsys):
        """`ude run` prints and saves each stage as it finishes, so a run that
        stops at evaluation leaves the earlier stages' lines and manifests."""
        cfg = write_tiny_config(tmp_path, test_counts=[[30, 0], [30, 0]])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) \
            == EXIT_METRIC
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].split(" (")[0] for line in lines] == [
            "group head training accuracy", "edit learned"]
        assert sorted(p.name for p in (tmp_path / "whole" / "manifests").iterdir()) == [
            "generate.json", "learn_edit.json", "train_disease.json", "train_sa.json"]


# stage manifest -> (its inputs, its outputs) relative to --out, as `ude run`
# writes them, in order
RUN_MANIFESTS = {
    "generate": ([], ["data/train", "data/test"]),
    "train_sa": (["data/train"], ["sa_head"]),
    "learn_edit": (["data/train", "sa_head"], ["edit"]),
    "train_disease": (["data/train", "edit"], ["erm_head", "disease_head"]),
    "evaluate": (["data/test", "erm_head", "disease_head", "edit"], ["reports"]),
}


def test_the_cli_has_a_verb_for_every_stage_of_the_table():
    """The verbs other than sweep, serve, noise-map and run are the stages
    of the table, hyphenated and in its order, and run's help lists them."""
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    verbs = [name.replace("_", "-") for name in STAGES]
    assert [verb for verb in sub.choices
            if verb not in ("sweep", "serve", "noise-map", "run")] == verbs
    [run_help] = [a.help for a in sub._choices_actions if a.dest == "run"]
    assert run_help == "full pipeline: " + ", ".join(verbs)


class TestRun:
    @pytest.mark.parametrize("mode", ["whitebox", "gezo"])
    def test_run_builds_one_oracle(self, tmp_path, monkeypatch, encoder, mode):
        from ude.oracle import OracleServer

        built = []

        def counting(cfg):
            built.append(cfg.oracle)
            return make_oracle(cfg)

        monkeypatch.setattr(ude.pipeline, "make_oracle", counting)
        server = OracleServer(encoder, "127.0.0.1:0")
        server.start_background()
        try:
            address = "inprocess" if mode == "whitebox" else server.bound_address
            cfg = write_tiny_config(tmp_path, mode=mode, oracle=address)
            assert main(["run", "--config", cfg]) == EXIT_OK
        finally:
            server.shutdown()
        assert built == [address]

    @pytest.mark.parametrize("mode", ["whitebox", "gezo"])
    def test_run_manifest_layout(self, tmp_path, mode):
        cfg = write_tiny_config(tmp_path, mode=mode)
        assert main(["run", "--config", cfg]) == EXIT_OK
        out = tmp_path / "run"
        layout = {}
        for path in sorted((out / "manifests").iterdir()):
            manifest = json.loads(path.read_text())
            layout[manifest["stage"]] = tuple(
                [os.path.relpath(key, out) for key in manifest[side]]
                for side in ("inputs", "outputs"))
        assert layout == {stage: tuple(sides) for stage, sides in RUN_MANIFESTS.items()}

    def test_full_whitebox_run(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "erm:" in out and "ude:" in out
        run_dir = tmp_path / "run"
        # the encoder is named by encoder_seed in the manifests, not copied
        assert {p.name for p in run_dir.iterdir()} == {
            "data", "sa_head", "edit", "erm_head", "disease_head", "reports",
            "manifests"}
        assert {p.name for p in (run_dir / "data").iterdir()} == {"train", "test"}

    @pytest.mark.parametrize("mode", ["whitebox", "gezo"])
    def test_staged_run_matches_in_memory(self, tmp_path, mode):
        """One stage graph: the staged `ude run` and run_experiment give a
        byte-equal edit and equal reports."""
        cfg = write_tiny_config(tmp_path, mode=mode)
        assert main(["run", "--config", cfg]) == EXIT_OK
        result = run_experiment(PipelineConfig.from_json_file(cfg))
        save_output({"edit": result.edit}, "edit", tmp_path / "in_memory_edit")
        run_dir = tmp_path / "run"
        for name in ("eps.udet", "provenance.json"):
            assert (run_dir / "edit" / name).read_bytes() == \
                (tmp_path / "in_memory_edit" / name).read_bytes(), name
        staged = json.loads((run_dir / "reports" / "evaluation.json").read_text())
        in_memory = {"erm": asdict(result.erm_report),
                     "ude": asdict(result.ude_report)}
        assert staged == json.loads(json.dumps(in_memory))

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["generate", "--config", cfg]) == EXIT_OK
        first = (tmp_path / "run" / "data" / "train" / "images.udet").read_bytes()
        assert main(["generate", "--config", cfg, "--seed", "2"]) == EXIT_OK
        second = (tmp_path / "run" / "data" / "train" / "images.udet").read_bytes()
        assert first != second

    def test_noise_map_command(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        for verb in ("generate", "train-sa", "learn-edit"):
            assert main([verb, "--config", cfg]) == EXIT_OK
        assert main(["noise-map", "--config", cfg,
                     "--top-fraction", "0.2"]) == EXIT_OK
        grid = (tmp_path / "run" / "noise_map" / "noise_map.csv").read_text()
        assert len(grid.strip().splitlines()) == 16

    def test_gezo_run_against_live_server(self, tmp_path, encoder):
        from ude.oracle import OracleServer

        server = OracleServer(encoder, "127.0.0.1:0")
        server.start_background()
        try:
            cfg = write_tiny_config(tmp_path, mode="gezo",
                                    oracle=server.bound_address)
            assert main(["run", "--config", cfg]) == EXIT_OK
        finally:
            server.shutdown()

    def test_stage_verbs_take_mode_and_oracle(self, tmp_path, encoder):
        """Each verb that queries the encoder takes --mode and --oracle, and
        the verbs run one by one give the bytes of `ude run`."""
        from ude.oracle import OracleServer

        cfg = write_tiny_config(tmp_path)  # white-box, in process
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        server = OracleServer(encoder, "127.0.0.1:0")
        server.start_background()
        try:
            flags = ["--config", cfg, "--mode", "gezo", "--oracle", server.bound_address]
            assert main(["generate", "--config", cfg, "--out", str(staged)]) == EXIT_OK
            for verb in ("train-sa", "learn-edit", "train-disease", "evaluate"):
                assert main([verb, *flags, "--out", str(staged)]) == EXIT_OK, verb
            assert main(["run", *flags, "--out", str(whole)]) == EXIT_OK
        finally:
            server.shutdown()
        assert json.loads((staged / "edit" / "provenance.json").read_text())["mode"] \
            == "gezo"
        for name in ("edit/eps.udet", "reports/evaluation.json"):
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name

    def test_sweep_over_seeds(self, tmp_path, capsys):
        """`sweep --seeds` runs every value on every seed: one CSV row per
        (value, seed), value-major, each the run_experiment of its config,
        and one printed line per value with the means over its seeds."""
        cfg = write_tiny_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "lambda",
                     "--values", "0.01,1.0", "--seeds", "1,2"]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        with open(tmp_path / "run" / "reports" / "sweep_lambda.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["param", "value", "seed", "EO_n", "EO_p",
                                         "DI", "Acc", "eps_norm"]
            rows = list(reader)
        expected = []
        for value in (0.01, 1.0):
            for seed in (1, 2):
                res = run_experiment(sweep_config(PipelineConfig.from_json_file(cfg),
                                                  "lambda", value, seed))
                rep = res.ude_report
                expected.append({"param": "lambda", "value": value, "seed": seed,
                                 "EO_n": rep.eo_neg, "EO_p": rep.eo_pos,
                                 "DI": rep.one_minus_di_abs, "Acc": rep.accuracy,
                                 "eps_norm": res.edit.eps_norm_trace[-1]})
        assert rows == [{k: str(v) for k, v in row.items()} for row in expected]
        assert len(printed) == 3
        for line, runs in zip(printed[1:], (expected[:2], expected[2:])):
            means = [sum(r[key] for r in runs) / 2
                     for key in ("eps_norm", "Acc", "EO_p", "DI")]
            assert line.split() == [f"{runs[0]['value']:g}", *(f"{m:.3f}" for m in means)]

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
