import json
from dataclasses import asdict

import pytest

import ude.oracle
from ude.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_METRIC,
    EXIT_OK,
    EXIT_REMOTE,
    main,
)
from ude.editing import save_edit
from ude.pipeline import PipelineConfig, run_experiment


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


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1}))
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    def test_whitebox_remote_is_config_error(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["learn-edit", "--config", cfg, "--mode", "whitebox",
                     "--oracle", "127.0.0.1:9"]) == EXIT_CONFIG

    def test_remote_error_when_server_down(self, tmp_path):
        cfg = write_tiny_config(tmp_path, mode="gezo")
        assert main(["generate", "--config", cfg]) == EXIT_OK
        assert main(["train-sa", "--config", cfg]) == EXIT_OK
        assert main(["learn-edit", "--config", cfg, "--mode", "gezo",
                     "--oracle", "127.0.0.1:1"]) == EXIT_REMOTE

    def test_remote_error_when_server_never_answers(self, tmp_path, silent_server,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(ude.oracle, "CLIENT_TIMEOUT_S", 0.2)
        cfg = write_tiny_config(tmp_path, mode="gezo", oracle=silent_server)
        assert main(["generate", "--config", cfg]) == EXIT_OK
        assert main(["train-sa", "--config", cfg]) == EXIT_REMOTE
        assert "no answer" in capsys.readouterr().err

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

    def test_bad_sweep_values(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "lambda",
                     "--values", "a,b"]) == EXIT_CONFIG

    def test_sweep_uses_configured_remote_oracle(self, tmp_path):
        cfg = write_tiny_config(tmp_path, mode="gezo", oracle="127.0.0.1:1")
        assert main(["sweep", "--config", cfg, "--param", "lambda",
                     "--values", "0.01"]) == EXIT_REMOTE

    def test_removed_clamp_key_is_config_error(self, tmp_path):
        cfg = write_tiny_config(tmp_path, ude={"clamp": [0, 1]})
        assert main(["learn-edit", "--config", cfg]) == EXIT_CONFIG

    def test_undefined_metric(self, tmp_path):
        # single-group test set leaves DI/EO undefined
        cfg = write_tiny_config(tmp_path, test_counts=[[30, 0], [30, 0]])
        for verb in ("generate", "train-sa", "learn-edit", "train-disease"):
            assert main([verb, "--config", cfg]) == EXIT_OK
        assert main(["evaluate", "--config", cfg]) == EXIT_METRIC


class TestRun:
    def test_full_whitebox_run(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert main(["run", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "erm:" in out and "ude:" in out
        run_dir = tmp_path / "run"
        for sub in ("data/train", "data/test", "encoder", "sa_head", "edit",
                    "erm_head", "disease_head", "reports", "manifests"):
            assert (run_dir / sub).exists(), sub

    @pytest.mark.parametrize("mode", ["whitebox", "gezo"])
    def test_staged_run_matches_in_memory(self, tmp_path, mode):
        """One stage graph: the staged `ude run` and run_experiment give a
        byte-equal edit and equal reports."""
        cfg = write_tiny_config(tmp_path, mode=mode)
        assert main(["run", "--config", cfg]) == EXIT_OK
        result = run_experiment(PipelineConfig.from_json_file(cfg))
        save_edit(tmp_path / "in_memory_edit", result.edit)
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

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
