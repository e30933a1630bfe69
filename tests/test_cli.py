import json
from pathlib import Path

import pytest

from cooplang import lewis_game, supermarket_game
from cooplang.cli import EXIT_CONFIG, EXIT_MODULE, EXIT_OK, EXIT_USAGE, main


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


def edit_config(config_path, edit):
    path = Path(config_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


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
        assert run("collect", "--config", config_path, "--canonical") == EXIT_OK
        assert run("detect", "--config", config_path, "--canonical") == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["positive_signalling"]["detected"] is True
        assert report["positive_listening"]["detected"] is True

    def test_detect_reads_the_collected_dataset(self, config_path, tmp_path,
                                                monkeypatch):
        """detect tests the dataset on disk; --n and --seed do not
        simulate another."""
        from cooplang import data

        assert run("collect", "--config", config_path, "--n", "40",
                   "--canonical") == EXIT_OK
        report = tmp_path / "out" / "report.json"
        assert run("detect", "--config", config_path, "--canonical") == EXIT_OK
        first = report.read_bytes()

        def no_collect(*args, **kwargs):
            raise AssertionError("detect simulated episodes")

        monkeypatch.setattr(data, "collect", no_collect)
        assert run("detect", "--config", config_path, "--n", "500",
                   "--canonical") == EXIT_OK
        assert report.read_bytes() == first

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
                                             ("run", "n_epsiodes"),
                                             ("inference", "smoothing"),
                                             ("distances", "traj_metric")])
    def test_unknown_section_key_is_config_error(self, config_path, capsys,
                                                 section, key):
        path = Path(config_path)
        doc = json.loads(path.read_text())
        doc.setdefault(section, {})[key] = 5.0
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

    @pytest.mark.parametrize("command,community", [
        ("collect", {"n_speakers": 0}),
        ("gen-community", {"temp_target": 0, "n_speakers": 0}),
        ("gen-community", {"n_listeners": 0}),
        ("gen-community", {"codebook_k": 0}),
        ("gen-community", {"temp_msg": -1.0}),
    ])
    def test_bad_community_value_is_config_error(self, config_path, capsys,
                                                 command, community):
        edit_config(config_path, lambda doc: doc["community"].update(community))
        assert run(command, "--config", config_path) == EXIT_CONFIG
        one_line_error(capsys, "configuration error")

    @pytest.mark.parametrize("command", ["gen-community", "collect"])
    @pytest.mark.parametrize("seed", [-2, 1.5, "x"])
    def test_bad_config_seed_is_config_error(self, config_path, capsys,
                                             command, seed):
        edit_config(config_path, lambda doc: doc["run"].update(seed=seed))
        assert run(command, "--config", config_path) == EXIT_CONFIG
        one_line_error(capsys, "configuration error: seed must be")

    @pytest.mark.parametrize("command", ["gen-community", "eval-speaker"])
    def test_negative_seed_flag_is_config_error(self, config_path, capsys,
                                                command):
        assert run(command, "--config", config_path, "--seed", "-2") == EXIT_CONFIG
        one_line_error(capsys, "configuration error: seed must be >= 0")

    @pytest.mark.parametrize("layout", [
        {"start": [0]},
        {"start": "00"},
        {"items": {"milk": [1]}},
        {"items": {"milk": [1, "1"]}},
        {"items": ["milk"]},
    ], ids=["short-start", "text-start", "short-cell", "text-cell",
            "item-list"])
    def test_malformed_supermarket_is_config_error(self, config_path, capsys,
                                                   layout):
        game = supermarket_game(
            width=2, height=2, items={"milk": (1, 1)}, shopping_list=["milk"],
            start=(0, 0), horizon=2, vocab=tuple("abc")).to_json_dict()
        game["layout"].update(layout)
        edit_config(config_path, lambda doc: doc.update(game=game))
        assert run("gen-community", "--config", config_path) == EXIT_CONFIG
        one_line_error(capsys, "configuration error")

    @pytest.mark.parametrize("artifact,command,edit", [
        ("broca.json", "eval-speaker", lambda doc: [1, 2]),
        ("broca.json", "eval-speaker", without("backoff_table")),
        ("broca.json", "eval-speaker", lambda doc: {**doc, "table": [1]}),
        ("broca.json", "eval-speaker",
         lambda doc: {**doc, "backoff_table": {"none": {"a": "1"}}}),
        ("wernicke.json", "eval-listener", lambda doc: [1, 2]),
        ("wernicke.json", "eval-listener", without("table")),
        ("wernicke.json", "eval-listener", without("alpha")),
        ("wernicke.json", "eval-listener", without("backoff")),
        ("wernicke.json", "eval-listener",
         lambda doc: {**doc, "table": {"a": {"start::pick0": 1.5}}}),
        ("broca.json", "eval-speaker",
         lambda doc: {**doc, "table": {"start::pick0": {"a": True}}}),
        ("broca.json", "eval-speaker",
         lambda doc: {**doc, "backoff_table": {"none": {"a": 0}}}),
        ("wernicke.json", "eval-listener",
         lambda doc: {**doc, "table": {"a": {"start::pick0": -7}}}),
        ("wernicke.json", "eval-listener",
         lambda doc: {**doc, "table": {"a": {"start::pick0": False}}}),
    ], ids=["broca-list", "broca-no-backoff-table", "broca-table-list",
            "broca-text-count", "wernicke-list", "wernicke-no-table",
            "wernicke-no-alpha", "wernicke-no-backoff", "wernicke-float-count",
            "broca-bool-count", "broca-zero-count", "wernicke-negative-count",
            "wernicke-bool-count"])
    def test_malformed_model_is_config_error(self, config_path, tmp_path,
                                             capsys, artifact, command, edit):
        assert run("collect", "--config", config_path, "--n", "30",
                   "--canonical") == EXIT_OK
        assert run("fit-broca", "--config", config_path) == EXIT_OK
        assert run("fit-wernicke", "--config", config_path) == EXIT_OK
        path = tmp_path / "out" / artifact
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        assert run(command, "--config", config_path) == EXIT_CONFIG
        one_line_error(capsys, "configuration error")

    def test_detect_without_a_dataset_is_config_error(self, config_path,
                                                      capsys):
        assert run("detect", "--config", config_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("configuration error: cannot read ")
        assert err.endswith("dataset.jsonl: no such file\n")

    def test_detect_on_too_few_episodes_is_module_error(self, config_path,
                                                        capsys):
        assert run("collect", "--config", config_path, "--n", "20",
                   "--canonical") == EXIT_OK
        capsys.readouterr()
        assert run("detect", "--config", config_path) == EXIT_MODULE
        one_line_error(capsys, "error: need at least 30 episodes, got 20")

    def test_record_not_of_the_game_is_module_error(self, config_path,
                                                    tmp_path, capsys):
        assert run("collect", "--config", config_path, "--n", "30",
                   "--canonical") == EXIT_OK
        path = tmp_path / "out" / "dataset.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["message"] = ["zz", "q"]
        rec["trajectory"]["canonical_key"] = "start::pick9"
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("fit-wernicke", "--config", config_path) == EXIT_MODULE
        one_line_error(capsys, "error: line 2")

    @pytest.mark.parametrize("key,value", [("message", "ab"),
                                           ("episode_seed", "x")])
    def test_record_field_of_the_wrong_type_is_module_error(
            self, config_path, tmp_path, capsys, key, value):
        edit_config(config_path, lambda d: d["game"].update(max_msg_len=2))
        assert run("collect", "--config", config_path, "--n", "30",
                   "--canonical") == EXIT_OK
        path = tmp_path / "out" / "dataset.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec[key] = value
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("fit-broca", "--config", config_path) == EXIT_MODULE
        one_line_error(capsys, "error: line 2")

    def test_speaker_cap_error_says_the_speakers_lift_is_fixed(
            self, config_path, capsys):
        # no 4-step episode collects both items: 5**4 trajectories, each
        # in the support of every noisy behaviour
        game = supermarket_game(
            width=3, height=3, items={"milk": (0, 1), "bread": (2, 2)},
            shopping_list=["milk", "bread"], start=(0, 0), horizon=4,
            vocab=tuple("abc")).to_json_dict()
        edit_config(config_path, lambda doc: doc.update(
            game=game, community={"epsilon": 0.1, "codebook_k": 8},
            distances={"dist_lift": "total_variation",
                       "wasserstein_support_cap": 100000}))
        assert run("collect", "--config", config_path, "--n", "30") \
            == EXIT_MODULE
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert "625 atoms" in err and "cap (512)" in err
        assert "speakers' lift (wasserstein1) and cap are fixed" in err
        assert "the distances settings configure the detectors" in err
        assert "use the total_variation lift" not in err

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("collect", "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--n", "--alpha", "--out",
                     "--canonical"):
            assert flag in text


class TestParser:
    """One flat parser: the command is a positional and every option is
    shared, so options may come before the command."""

    def test_help_lists_every_command(self, capsys):
        from cooplang.cli import COMMANDS
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for command in COMMANDS:
            assert command in text

    def test_a_command_has_the_one_help_page(self, capsys):
        pages = []
        for argv in (["--help"], ["collect", "--help"], ["detect", "-h"]):
            with pytest.raises(SystemExit):
                run(*argv)
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[1] == pages[2]

    def test_options_may_come_before_the_command(self, config_path, tmp_path,
                                                 capsys):
        out = tmp_path / "out" / "dataset.jsonl"
        assert run("--config", config_path, "collect") == EXIT_OK
        assert out.exists()
        before = out.read_bytes()
        assert run("--canonical", "--n", "50", "--config", config_path,
                   "collect") == EXIT_OK
        first = out.read_bytes()
        assert run("collect", "--config", config_path, "--n", "50",
                   "--canonical") == EXIT_OK
        assert out.read_bytes() == first != before

    @pytest.mark.parametrize("argv", [
        ["frobnicate"], ["--canonical", "frobnicate"], [],
        ["collect", "extra"], ["collect", "--frobnicate"],
        ["collect", "--seed", "x"]])
    def test_a_bad_command_line_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage: cooplang")


SUPERMARKET = supermarket_game(
    width=2, height=2, items={"milk": (1, 1)}, shopping_list=["milk"],
    start=(0, 0), horizon=2, vocab=tuple("abc")).to_json_dict()
DELETE = object()

# (game, section.key, value): each value breaks its key's rule
MALFORMED = [
    ("lewis", "game.vocab", [1, 2, 3]),
    ("lewis", "game.vocab", "abc"),
    ("lewis", "game.vocab", ["", "a", "b"]),
    ("lewis", "game.vocab", ["a", "a b"]),
    ("lewis", "game.max_msg_len", 1.5),
    ("lewis", "game.max_msg_len", True),
    ("lewis", "game.max_msg_len", "2"),
    ("lewis", "game.max_msg_len", 10**9),
    ("lewis", "game.horizon", "1"),
    ("lewis", "game.gamma", "x"),
    ("lewis", "game.gamma", None),
    ("lewis", "game.reward_params", []),
    ("lewis", "game.reward_params.pick_reward", "x"),
    ("lewis", "game.reward_params.pick_reward", DELETE),
    ("lewis", "game.layout", 5),
    ("lewis", "game.layout.candidates", "abc"),
    ("lewis", "game.layout.candidates", 3),
    ("lewis", "game.layout.target", True),
    ("lewis", "game.layout.target", "0"),
    ("lewis", "game.layout.target", 1.0),
    ("lewis", "game.layout.target", 3),
    ("supermarket", "game.horizon", 1.5),
    ("supermarket", "game.layout.width", "2"),
    ("supermarket", "game.layout.height", True),
    ("supermarket", "game.layout.shopping_list", "milk"),
    ("supermarket", "game.layout.shopping_list", [["milk"]]),
    ("supermarket", "game.layout.items", {"milk": [1, True]}),
    ("supermarket", "game.layout.start", DELETE),
    ("supermarket", "game.reward_params.step_penalty", "x"),
    ("supermarket", "game.reward_params.item_reward", None),
    ("lewis", "community.epsilon", "x"),
    ("lewis", "community.epsilon", 1.5),
    ("lewis", "community.greedy_msg", "yes"),
    ("lewis", "community.greedy_target", 1),
    ("lewis", "community.n_speakers", 1.5),
    ("lewis", "community.n_listeners", "2"),
    ("lewis", "community.codebook_k", True),
    ("lewis", "community.temp_msg", "x"),
    ("lewis", "community.temp_msg", float("nan")),
    ("lewis", "community.temp_target", float("nan")),
    ("lewis", "distances.dist_lift", 5),
    ("lewis", "distances.listening_epsilon", float("nan")),
    ("lewis", "distances.signalling_alpha", "x"),
    ("lewis", "distances.permutations", "x"),
    ("lewis", "distances.permutations", 500.5),
    ("lewis", "distances.wasserstein_support_cap", "x"),
    ("lewis", "inference.alpha", "x"),
    ("lewis", "inference.alpha", -1.0),
    ("lewis", "inference.variant", 5),
    ("lewis", "inference.backoff", "x"),
    ("lewis", "run.n_episodes", "x"),
    ("lewis", "run.n_episodes", 0),
    ("lewis", "run.out", 5),
    ("lewis", "config.comunity", {"epsilon": 0.1}),
    ("lewis", "config.community", [1]),
]

# (flags, section.key) for out-of-range command-line overrides
MALFORMED_FLAGS = [
    (["--alpha", "nan"], "inference.alpha"),
    (["--alpha", "inf"], "inference.alpha"),
    (["--alpha", "0"], "inference.alpha"),
    (["--n", "0"], "run.n_episodes"),
]


def set_key(doc, game, path, value):
    """Put value at section.key of a config doc on the given game."""
    if game == "supermarket":
        doc["game"] = json.loads(json.dumps(SUPERMARKET))
    *sections, key = path.removeprefix("config.").split(".")
    for name in sections:
        doc = doc.setdefault(name, {})
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = value


def one_line_naming(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("configuration error: "), err
    assert err.count("\n") == 1 and path in err, err


class TestConfigRules:
    @pytest.mark.parametrize("game,path,value", MALFORMED, ids=[
        f"{path}={'missing' if value is DELETE else repr(value)}"
        for _, path, value in MALFORMED])
    def test_malformed_value_is_one_line_config_error(
            self, config_path, capsys, game, path, value):
        edit_config(config_path, lambda doc: set_key(doc, game, path, value))
        assert run("gen-community", "--config", config_path) == EXIT_CONFIG
        one_line_naming(capsys, path)

    @pytest.mark.parametrize("flags,path", MALFORMED_FLAGS,
                             ids=[" ".join(f) for f, _ in MALFORMED_FLAGS])
    def test_malformed_flag_is_one_line_config_error(
            self, config_path, capsys, flags, path):
        assert run("gen-community", "--config", config_path,
                   *flags) == EXIT_CONFIG
        one_line_naming(capsys, path)

    def test_flags_replace_the_config_values(self, config_path, tmp_path):
        out = tmp_path / "flagged"
        assert run("collect", "--config", config_path, "--n", "31",
                   "--seed", "2", "--out", str(out), "--canonical") == EXIT_OK
        header, *records = (out / "dataset.jsonl").read_text().splitlines()
        assert len(records) == 31
        assert json.loads(header)["meta"]["master_seed"] == 2


class TestInputArtifacts:
    @pytest.fixture
    def fitted(self, config_path, tmp_path):
        assert run("collect", "--config", config_path, "--n", "30",
                   "--canonical") == EXIT_OK
        assert run("fit-broca", "--config", config_path) == EXIT_OK
        assert run("fit-wernicke", "--config", config_path) == EXIT_OK
        return tmp_path / "out"

    @pytest.mark.parametrize("command,artifact", [
        ("fit-broca", "dataset.jsonl"),
        ("fit-wernicke", "dataset.jsonl"),
        ("eval-speaker", "broca.json"),
        ("eval-listener", "wernicke.json"),
    ])
    def test_missing_artifact_is_one_line_config_error(
            self, config_path, fitted, capsys, command, artifact):
        (fitted / artifact).unlink()
        capsys.readouterr()
        assert run(command, "--config", config_path) == EXIT_CONFIG
        one_line_naming(capsys, artifact)

    @pytest.mark.parametrize("command,out", [("gen-community", "afile"),
                                             ("collect", "afile/sub")])
    def test_out_that_names_a_file_is_one_line_config_error(
            self, config_path, tmp_path, capsys, command, out):
        (tmp_path / "afile").write_text("")
        assert run(command, "--config", config_path,
                   "--out", str(tmp_path / out)) == EXIT_CONFIG
        one_line_naming(capsys, "run.out")

    @pytest.mark.parametrize("command,artifact", [
        ("eval-speaker", "broca.json"),
        ("eval-listener", "wernicke.json"),
    ])
    @pytest.mark.parametrize("text", ["{nope", "\xff"])
    def test_model_that_is_not_json_is_one_line_config_error(
            self, config_path, fitted, capsys, command, artifact, text):
        (fitted / artifact).write_text(text, encoding="latin-1")
        capsys.readouterr()
        assert run(command, "--config", config_path) == EXIT_CONFIG
        one_line_naming(capsys, artifact)
