import json
import math

import numpy as np
import pytest

from cooplang import (
    CommunityConfig,
    build_community,
    collect,
    lewis_game,
    load,
    save,
)
from cooplang.data import InteractionDataset
from cooplang.errors import (
    ConfigError,
    DatasetParseError,
    FingerprintMismatchError,
)


class TestCollect:
    def test_episode_count(self, lewis_community):
        assert len(collect(lewis_community, 100, master_seed=0).records) == 100

    def test_byte_identical_across_runs(self, lewis_community, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save(collect(lewis_community, 50, master_seed=7), p1)
        save(collect(lewis_community, 50, master_seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, lewis_community):
        a = collect(lewis_community, 50, master_seed=0)
        b = collect(lewis_community, 50, master_seed=1)
        assert [r.message for r in a.records] != [r.message for r in b.records]

    def test_noiseless_pipeline_realizes_targets(self, lewis3):
        cfg = CommunityConfig(game=lewis3, epsilon=0.0, greedy_msg=True)
        com = build_community(cfg, 0)
        dataset = collect(com, 200, master_seed=0)
        for rec in dataset.records:
            assert rec.trajectory.canonical_key == rec.hidden_target.canonical_key

    def test_zero_episodes_rejected(self, lewis_community):
        with pytest.raises(ConfigError):
            collect(lewis_community, 0, master_seed=0)

    def test_target_frequencies_match_prior(self, lewis_community):
        n = 10000
        dataset = collect(lewis_community, n, master_seed=13)
        counts = {}
        for rec in dataset.records:
            key = rec.hidden_target.canonical_key
            counts[key] = counts.get(key, 0) + 1
        for tau, p in zip(lewis_community.game.table.trajs,
                          lewis_community.prior):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts.get(tau.canonical_key, 0) - n * p) <= 3 * sigma

    def test_public_view_strips_targets(self, lewis_community):
        dataset = collect(lewis_community, 10, master_seed=0)
        public = dataset.public()
        assert all(r.hidden_target is None for r in public.records)
        assert all(r.hidden_target is not None for r in dataset.records)


class TestPersistence:
    def test_round_trip_structural_equality(self, lewis_community, tmp_path):
        for seed in range(20):
            dataset = collect(lewis_community, 20, master_seed=seed)
            path = tmp_path / f"d{seed}.jsonl"
            save(dataset, path)
            back = load(path, game=lewis_community.game)
            assert back.game_fingerprint == dataset.game_fingerprint
            assert back.meta == dataset.meta
            assert back.records == dataset.records

    def test_save_load_save_is_byte_identical(self, lewis_community, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save(collect(lewis_community, 30, master_seed=2), p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_is_header_only(self, lewis_community, tmp_path):
        from cooplang.games import game_fingerprint
        empty = InteractionDataset(
            game_fingerprint=game_fingerprint(lewis_community.game),
            records=[], meta={})
        path = tmp_path / "empty.jsonl"
        save(empty, path)
        assert path.read_text().count("\n") == 1
        assert load(path).records == []

    def test_truncated_line_names_line_number(self, lewis_community, tmp_path):
        path = tmp_path / "trunc.jsonl"
        save(collect(lewis_community, 3, master_seed=0), path)
        text = path.read_text()
        path.write_text(text[: text.rfind('"trajectory"')])
        with pytest.raises(DatasetParseError, match="line 4"):
            load(path)

    def test_fingerprint_mismatch_rejected(self, lewis_community, tmp_path):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 3, master_seed=0), path)
        other = lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"))
        with pytest.raises(FingerprintMismatchError):
            load(path, game=other)

    def test_format_version_gate(self, lewis_community, tmp_path):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 2, master_seed=0), path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"format_version":1', '"format_version":9')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match="format_version"):
            load(path)

    @pytest.mark.parametrize("header", [
        '{"format_version":1,"meta":{}}',   # no game_fingerprint
        '[1, 2]',                           # not an object
    ])
    def test_malformed_header_names_line_one(self, tmp_path, header):
        path = tmp_path / "d.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(DatasetParseError, match="line 1"):
            load(path)

    def test_short_step_names_its_line(self, lewis_community, tmp_path):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 3, master_seed=0), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["trajectory"]["steps"][0] = ["start", "pick0"]
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load(path)

    @pytest.mark.parametrize("field", ["trajectory", "hidden_target"])
    @pytest.mark.parametrize("edit,match", [
        # a 3-key object would unpack into its three keys
        (lambda t: t.update(steps=[{"x": 1, "y": 2, "z": 3}]), "steps must"),
        (lambda t: t.update(steps=["abc"]), "steps must"),
        (lambda t: t.update(steps={"a": 1}), "steps must"),
        (lambda t: t.update(canonical_key="nonsense"), "does not match"),
        (lambda t: t.update(canonical_key="start::pick1,pick2"),
         "does not match"),
        (lambda t: t["steps"][0].__setitem__(0, "picked:0"),
         "does not match"),
        (lambda t: t.update(canonical_key=7), "must be a string"),
        (lambda t: t.update(steps=[], canonical_key=7), "must be a string"),
    ], ids=["object-step", "string-step", "object-steps", "key",
            "key-actions", "key-digest", "key-type", "empty-key-type"])
    def test_trajectory_without_a_game_is_checked(self, lewis_community,
                                                  tmp_path, field, edit,
                                                  match):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 3, master_seed=0), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        edit(rec[field])
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError, match=f"line 3: .*{match}"):
            load(path)

    def test_empty_trajectory_keeps_its_key_without_a_game(self,
                                                           lewis_community,
                                                           tmp_path):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 3, master_seed=0), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["trajectory"] = {"steps": [], "canonical_key": "0,0|::"}
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        assert load(path).records[1].trajectory.canonical_key == "0,0|::"

    @pytest.mark.parametrize("key,value", [
        ("message", "ab"),          # a string is not a token list
        ("message", ["a", 1]),
        ("episode_seed", "x"),
        ("episode_seed", -1),
        ("episode_seed", True),
        ("speaker_id", 0),
        ("listener_id", None),
        ("trajectory", None),       # only hidden_target may be null
    ])
    def test_field_of_the_wrong_type_names_its_line(self, tmp_path, key,
                                                    value):
        game = lewis_game(max_msg_len=2)  # "ab" read as tokens would fit
        path = tmp_path / "d.jsonl"
        save(collect(build_community(CommunityConfig(game=game), 0), 3,
                     master_seed=0), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec[key] = value
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        for against in (None, game):
            with pytest.raises(DatasetParseError,
                               match=f"line 3: {key} must be"):
                load(path, game=against)

    @pytest.mark.parametrize("meta", ["[1, 2]", "null", '"x"'])
    def test_header_meta_must_be_an_object(self, tmp_path, meta):
        path = tmp_path / "d.jsonl"
        path.write_text('{"format_version":1,"game_fingerprint":"f",'
                        f'"meta":{meta}}}\n')
        with pytest.raises(DatasetParseError, match="line 1: header meta"):
            load(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, lewis_community,
                                                     tmp_path):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 3, master_seed=0), path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:12] + b"\xff" + lines[2][12:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetParseError, match="line 3: not UTF-8"):
            load(path)


class TestLoadAgainstGame:
    @staticmethod
    def saved(community, tmp_path, edit=None):
        """Save three episodes; edit(record) rewrites the second record."""
        path = tmp_path / "d.jsonl"
        save(collect(community, 3, master_seed=0), path)
        if edit is not None:
            lines = path.read_text().splitlines()
            rec = json.loads(lines[2])
            edit(rec)
            lines[2] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
        return path

    # parses: whether a load without a game accepts the record, which it
    # does unless the canonical key disagrees with the steps
    @pytest.mark.parametrize("edit,parses", [
        (lambda r: r.update(message=["zz", "q"]), True),
        (lambda r: r.update(message=["a", "a"]), True),
        (lambda r: r["trajectory"].update(canonical_key="start::pick9"),
         False),
        (lambda r: r["hidden_target"].update(canonical_key="start::pick9"),
         False),
        (lambda r: r["trajectory"]["steps"][0].__setitem__(2, 5.0), True),
        (lambda r: r["trajectory"]["steps"].append(["start", "pick0", 0.0]),
         False),
    ], ids=["token", "length", "key", "hidden-key", "reward", "steps"])
    def test_record_not_of_the_game_names_its_line(self, lewis3,
                                                   lewis_community, tmp_path,
                                                   edit, parses):
        path = self.saved(lewis_community, tmp_path, edit)
        if parses:
            load(path)
        else:
            with pytest.raises(DatasetParseError, match="line 3"):
                load(path)
        with pytest.raises(DatasetParseError, match="line 3"):
            load(path, game=lewis3)

    def test_records_hold_the_tables_trajectories(self, lewis3,
                                                  lewis_community, tmp_path):
        loaded = load(self.saved(lewis_community, tmp_path), game=lewis3)
        table = lewis3.table
        for rec in loaded.records:
            for tau in (rec.trajectory, rec.hidden_target):
                assert tau is table.trajs[table.key_index[tau.canonical_key]]


class TestSave:
    def test_lines_are_dumps_of_each_record(self, lewis_community, tmp_path):
        """Texts shared across records give each line json.dumps' bytes."""
        from dataclasses import replace

        from cooplang.data import _dumps, _traj_to_json

        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 40, master_seed=3), path)
        records = load(path).records  # a trajectory object per record
        records[1] = replace(records[1], hidden_target=None,
                             speaker_id="spéaker \"0\"")
        records[2] = replace(records[2], episode_seed=2**70)
        records[3] = replace(records[3], trajectory=records[0].trajectory,
                             hidden_target=records[0].trajectory)
        dataset = InteractionDataset("f", records, {"k": [1, 2.5]})
        save(dataset, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == len(records) + 2
        for rec, line in zip(records, lines[1:]):
            assert line == _dumps({
                "message": list(rec.message.tokens),
                "trajectory": _traj_to_json(rec.trajectory),
                "hidden_target": _traj_to_json(rec.hidden_target),
                "episode_seed": rec.episode_seed,
                "speaker_id": rec.speaker_id,
                "listener_id": rec.listener_id,
            })
