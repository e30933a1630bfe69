import json
from pathlib import Path

import pytest

from cooplang import lewis_game
from cooplang.cli import EXIT_CONFIG, EXIT_OK, main


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "game": lewis_game().to_json_dict(),
        "community": {"epsilon": 0.0, "greedy_msg": True},
        "inference": {"alpha": 1000.0},
        "run": {"n_episodes": 100, "seed": 7, "out": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSubcommands:
    def test_gen_community_writes_artifact(self, config_path, tmp_path,
                                           capsys):
        assert run("gen-community", "--config", config_path) == EXIT_OK
        assert (tmp_path / "out" / "community.json").exists()
        assert "community" in capsys.readouterr().out

    def test_collect_is_byte_identical(self, config_path, tmp_path):
        out = tmp_path / "out" / "dataset.jsonl"
        assert run("collect", "--config", config_path, "--n", "50",
                   "--seed", "7", "--canonical") == EXIT_OK
        first = out.read_bytes()
        assert run("collect", "--config", config_path, "--n", "50",
                   "--seed", "7", "--canonical") == EXIT_OK
        assert out.read_bytes() == first

    def test_full_pipeline_round_trip(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("collect", "--config", config_path, "--canonical") == EXIT_OK
        assert run("fit-broca", "--config", config_path) == EXIT_OK
        assert run("fit-wernicke", "--config", config_path,
                   "--alpha", "1000") == EXIT_OK
        assert run("eval-speaker", "--config", config_path) == EXIT_OK
        speaker = json.loads((out / "report.json").read_text())
        assert speaker["success_rate"] == 1.0
        assert run("eval-listener", "--config", config_path) == EXIT_OK
        listener = json.loads((out / "report.json").read_text())
        assert listener["recovery_rate"] == 1.0
        assert (out / "report.csv").exists()
        for artifact in ("community.json", "dataset.jsonl", "broca.json",
                         "wernicke.json"):
            assert run("gen-community", "--config", config_path) == EXIT_OK
            assert (out / artifact).exists()

    def test_detect_reports_both_detectors(self, config_path, tmp_path):
        assert run("detect", "--config", config_path, "--canonical") == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["positive_signalling"]["detected"] is True
        assert report["positive_listening"]["detected"] is True

    def test_oracle_check_passes(self, config_path, capsys):
        assert run("oracle-check", "--config", config_path) == EXIT_OK
        assert "100 passed, 0 failed" in capsys.readouterr().out

    def test_fit_wernicke_expected_variant(self, config_path, tmp_path):
        path = Path(config_path)
        doc = json.loads(path.read_text())
        doc["community"]["epsilon"] = 0.2
        doc["inference"] = {"alpha": 1.0, "variant": "expected"}
        path.write_text(json.dumps(doc))
        assert run("collect", "--config", config_path, "--n", "60",
                   "--canonical") == EXIT_OK
        assert run("fit-wernicke", "--config", config_path) == EXIT_OK
        model = json.loads((tmp_path / "out" / "wernicke.json").read_text())
        assert sum(sum(h.values()) for h in model["table"].values()) == 60

    def test_fit_artifacts_idempotent(self, config_path, tmp_path):
        out = tmp_path / "out"
        run("collect", "--config", config_path, "--canonical")
        run("fit-wernicke", "--config", config_path)
        first = (out / "wernicke.json").read_bytes()
        run("fit-wernicke", "--config", config_path)
        assert (out / "wernicke.json").read_bytes() == first


class TestErrorHandling:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("COOPLANG_CONFIG", raising=False)
        assert run("collect") == EXIT_CONFIG

    def test_nonexistent_config_file(self, capsys):
        assert run("collect", "--config", "/nope/config.json") == EXIT_CONFIG

    def test_invalid_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run("collect", "--config", bad.as_posix()) == EXIT_CONFIG

    def test_config_from_environment(self, config_path, monkeypatch, tmp_path):
        monkeypatch.setenv("COOPLANG_CONFIG", config_path)
        assert run("gen-community") == EXIT_OK

    @pytest.mark.parametrize("section,key", [("inference", "alpah"),
                                             ("run", "n_epsiodes")])
    def test_unknown_section_key_is_config_error(self, config_path, capsys,
                                                 section, key):
        path = Path(config_path)
        doc = json.loads(path.read_text())
        doc[section][key] = 5.0
        path.write_text(json.dumps(doc))
        assert run("gen-community", "--config", config_path) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_unknown_wernicke_label_is_config_error(self, config_path,
                                                    tmp_path, capsys):
        assert run("collect", "--config", config_path, "--canonical") == EXIT_OK
        assert run("fit-wernicke", "--config", config_path) == EXIT_OK
        path = tmp_path / "out" / "wernicke.json"
        model = json.loads(path.read_text())
        next(iter(model["table"].values()))["start::pick9"] = 1
        path.write_text(json.dumps(model))
        assert run("eval-listener", "--config", config_path) == EXIT_CONFIG
        assert "start::pick9" in capsys.readouterr().err

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("collect", "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--n", "--alpha", "--out",
                     "--canonical"):
            assert flag in text
