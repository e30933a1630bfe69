import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cooplang import (
    CommunityConfig,
    Message,
    build_community,
    collect,
    lewis_game,
    load,
    save,
)
from cooplang import data
from cooplang.data import HARNESS_META, InteractionDataset
from cooplang.errors import (
    ConfigError,
    DatasetParseError,
    FingerprintMismatchError,
)
from reference import load_line_by_line


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
        assert all(r.hidden_target is not None for r in dataset.records)
        # the same episodes in the same order, sharing the id and seed columns
        assert public.records == [replace(r, hidden_target=None)
                                  for r in dataset.records]
        assert public.body_ids is dataset.body_ids
        assert public.episode_seeds is dataset.episode_seeds

    def test_public_view_drops_the_harness_meta(self, lewis_community):
        dataset = collect(lewis_community, 10, master_seed=0, timestamp="t")
        dataset.meta["note"] = "kept"
        assert set(HARNESS_META) < set(dataset.meta)
        assert dataset.public().meta == {"created": "t", "note": "kept"}


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
        ("hidden_target", "x"),
        ("hidden_target", 5),
        ("hidden_target", []),
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

    @pytest.mark.parametrize("layout,want", [
        ("message", "line 3: "), ("whole line", "line 3: "),
        ("header", "line 1: bad header: ")])
    def test_a_line_nested_too_deep_names_its_line(self, tmp_path, capsys,
                                                   layout, want):
        """100,000 nested arrays, as a record's message, as a record line or
        as the header: `load` and `cooplang fit-broca` (exit 4) name the
        line."""
        from cooplang.cli import EXIT_MODULE, main

        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "game": lewis_game().to_json_dict(),
            "run": {"n_episodes": 5, "out": str(tmp_path / "out")}}))
        assert main(["collect", "--config", str(config)]) == 0
        path = tmp_path / "out" / "dataset.jsonl"
        lines = path.read_text().splitlines()
        deep = "[" * 100_000 + "]" * 100_000
        if layout == "message":
            rec = json.loads(lines[2])
            lines[2] = data._dumps({**rec, "message": []}).replace(
                '"message":[]', f'"message":{deep}')
        else:
            lines[0 if layout == "header" else 2] = deep
        path.write_text("\n".join(lines) + "\n")
        want += "maximum recursion depth exceeded"
        for against in (None, lewis_game()):
            with pytest.raises(DatasetParseError, match=want):
                load(path, game=against)
        capsys.readouterr()
        assert main(["fit-broca", "--config", str(config)]) == EXIT_MODULE
        assert capsys.readouterr().err.startswith(f"error: {want}")


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


def _outcome(path, game=None, loader=load):
    """load's records, or its error as (line number, reason)."""
    try:
        return loader(path, game=game).records
    except DatasetParseError as exc:
        return exc.line_number, str(exc).split(": ", 1)[1]


class TestRepeatedBodies:
    """A record body (a line after its `{"episode_seed":N,`) seen before is
    not parsed again; load gives what a parse of each line alone gives."""

    # noiseless on 3x3: with listener noise, its 150 bodies are all distinct
    @pytest.mark.parametrize("kind,epsilon", [
        ("lewis3", 0.1), ("sm_2x2", 0.1), ("sm_3x3", 0.0)])
    def test_each_record_is_its_line_loaded_alone(self, request, kind,
                                                  epsilon, tmp_path):
        game = request.getfixturevalue(kind)
        community = build_community(
            CommunityConfig(game=game, epsilon=epsilon, codebook_k=8), 0)
        path = tmp_path / "d.jsonl"
        save(collect(community, 150, master_seed=1), path)
        header, *lines = path.read_text().splitlines()
        bodies = {line.partition(",")[2] for line in lines}
        assert len(bodies) < len(lines)  # some bodies repeat
        one = tmp_path / "one.jsonl"
        for against in (None, game):
            records = load(path, game=against).records
            assert len(records) == len(lines)
            for rec, line in zip(records, lines):
                one.write_text(header + "\n" + line + "\n")
                assert [rec] == load(one, game=against).records

    # BODY is a valid record's body; OPEN is that body without its "}"
    @pytest.mark.parametrize("line", [
        *('{"episode_seed":' + seed + ",BODY" for seed in (
            "-1", "01", "1.0", "1e3", "true", '"1"', "1\u0661", "7" * 5000)),
        '{"episode_seed":1,}',
        '{"episode_seed":1,"episode_seed":7,BODY',
        '{"episode_seed":1,OPEN,"episode_seed":7}',
        '{"episode_seed":1,"episode\\u005fseed":7,BODY',
    ], ids=["negative", "leading-zero", "float", "exponent", "bool",
            "string", "arabic-digit", "5000-digits", "no-body",
            "duplicate-first", "duplicate-last", "duplicate-escaped"])
    def test_odd_line_after_its_body_loads_as_alone(self, lewis_community,
                                                    tmp_path, line):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 1, master_seed=0), path)
        header, valid = path.read_text().splitlines()
        body = valid.partition(",")[2]
        line = line.replace("BODY", body).replace("OPEN", body[:-1])
        path.write_text("\n".join([header, valid, line]) + "\n")
        got = _outcome(path, lewis_community.game)
        path.write_text(header + "\n" + line + "\n")
        # the per-line parse alone, every line parsed in full
        alone = _outcome(path, lewis_community.game, load_line_by_line)
        if isinstance(alone, tuple):
            assert got == (alone[0] + 1, alone[1])
        else:
            assert got[1:] == alone
            assert got[0].episode_seed == 0
        if line.count("episode") == 2:
            assert alone[0].episode_seed == 7  # the later key wins


class TestFieldTexts:
    """A new body in save's layout is cut into its field texts, and each
    distinct trajectory, message and id text is parsed once per file."""

    def test_each_distinct_field_text_is_parsed_once(self, sm_3x3, tmp_path,
                                                     monkeypatch):
        # sm-wide's size: 1,000 noiseless episodes, nearly all bodies distinct
        community = build_community(
            CommunityConfig(game=sm_3x3, epsilon=0.0, codebook_k=64), 1)
        path = tmp_path / "d.jsonl"
        save(collect(community, 1000, master_seed=1), path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        taus = {data._dumps(doc[key]) for doc in docs[1:]
                for key in ("trajectory", "hidden_target")}
        others = {data._dumps(doc[key]) for doc in docs[1:]
                  for key in ("message", "speaker_id", "listener_id")}
        bodies = {data._dumps({**doc, "episode_seed": 0}) for doc in docs[1:]}
        assert len(bodies) > 900 and len(taus) <= 125
        parsed, built = [], []
        loads, traj_from_json = json.loads, data._traj_from_json
        monkeypatch.setattr(json, "loads", lambda text: loads(
            parsed.append(text) or text))
        monkeypatch.setattr(data, "_traj_from_json", lambda doc, *args: (
            built.append(data._dumps(doc)) or traj_from_json(doc, *args)))
        for game in (None, sm_3x3):
            parsed.clear(), built.clear()
            dataset = load(path, game=game)
            assert sorted(built) == sorted(taus)
            # the header, then each distinct field text, never a whole body
            assert parsed[0] == path.read_text().partition("\n")[0]
            assert sorted(parsed[1:]) == sorted(taus | others)
            assert len(dataset) == 1000 and len(dataset.bodies) == len(bodies)


class TestColumnPass:
    """A line whose body fails the column pass, or that is off save's
    layout, is a body of its own, parsed alone wherever it falls among good
    bodies and on every line that repeats it."""

    def bodies(self, lewis_community, tmp_path):
        """Bodies by name: g0-g2 good; `reordered` fails the cut and
        `inner` (a separator inside hidden_target) a field's parse, though
        their lines parse alone; `bad`'s line fails alone too."""
        path = tmp_path / "saved.jsonl"
        save(collect(lewis_community, 40, master_seed=3), path)
        header, *lines = path.read_text().splitlines()
        goods = list(dict.fromkeys(line.partition(",")[2] for line in lines))
        doc = json.loads("{" + goods[0])
        reordered = ",".join(f'"{key}":{data._dumps(doc[key])}'
                             for key in sorted(doc, reverse=True)) + "}"
        inner = {**doc, "hidden_target": {**doc["hidden_target"],
                                          "listener_id": "x"}}
        bodies = {"g0": goods[0], "g1": goods[1], "g2": goods[2],
                  "reordered": reordered, "inner": data._dumps(inner)[1:],
                  "bad": data._dumps({**doc, "message": "a"})[1:]}
        assert data._dumps(inner).count(',"listener_id":') == 2
        return header, bodies

    def write(self, path, header, bodies, names) -> list[int]:
        """The file of these bodies, line i with seed 10 + i; its seeds."""
        seeds = [10 + i for i in range(len(names))]
        path.write_text("\n".join([header] + [
            f'{{"episode_seed":{seed},{bodies[name]}'
            if name in bodies else name  # a whole line as given
            for seed, name in zip(seeds, names)]) + "\n")
        return seeds

    def same_as_alone(self, path, game, ids):
        """load equals the parse of each line alone, with these body ids."""
        got, want = load(path, game=game), load_line_by_line(path, game=game)
        assert got.records == want.records
        assert got.episode_seeds == want.episode_seeds
        assert got.body_ids == tuple(ids)
        assert got.bodies == tuple(want.bodies[ids.index(i)]
                                   for i in range(len(got.bodies)))

    @pytest.mark.parametrize("odd", ["reordered", "inner"])
    def test_a_failing_body_repeats_among_good_ones(self, lewis_community,
                                                    tmp_path, odd):
        header, bodies = self.bodies(lewis_community, tmp_path)
        path = tmp_path / "d.jsonl"
        names = ["g0", odd, "g1", odd, "g0", odd, "g2", "g1"]
        seeds = self.write(path, header, bodies, names)
        for game in (None, lewis_community.game):
            self.same_as_alone(path, game, [0, 1, 2, 3, 0, 4, 5, 2])
            assert load(path, game=game).episode_seeds == tuple(seeds)

    def test_a_first_line_off_the_layout(self, lewis_community, tmp_path):
        header, bodies = self.bodies(lewis_community, tmp_path)
        doc = json.loads('{"episode_seed":7,' + bodies["g1"])
        spaced = json.dumps(doc)  # ", " and ": " separators
        last = data._dumps({**doc, "episode_seed": None})[:-1] \
            .replace('"episode_seed":null,', "") + ',"episode_seed":8}'
        path = tmp_path / "d.jsonl"
        self.write(path, header, bodies,
                   [spaced, "g0", "g1", last, "reordered", "g0", spaced])
        for game in (None, lewis_community.game):
            self.same_as_alone(path, game, [0, 1, 2, 3, 4, 1, 5])

    @pytest.mark.parametrize("names,line", [
        (["g0", "bad", "g1", "bad", "g0"], 3),
        (["bad", "g0", "g0"], 2),
        (["g0", "reordered", "g1", "g0", "reordered", "bad", "g2"], 7),
        (["g0", "g1", "inner", "g1", "inner", "bad", "bad"], 7),
        (['{"episode_seed":1}', "g0", "bad"], 2),
    ], ids=["between-good", "first", "after-repeats", "after-inner",
            "first-line-off-layout"])
    def test_the_first_failing_line_raises(self, lewis_community, tmp_path,
                                           names, line):
        header, bodies = self.bodies(lewis_community, tmp_path)
        path = tmp_path / "d.jsonl"
        self.write(path, header, bodies, names)
        for game in (None, lewis_community.game):
            got = _outcome(path, game)
            assert got == _outcome(path, game, load_line_by_line)
            assert got[0] == line


def _first_appearances(ids) -> list:
    return list(dict.fromkeys(ids))


class TestColumns:
    """A dataset stores its distinct record bodies, and per episode a body
    id and a seed; `records` is built from those columns."""

    def test_records_round_trip_through_the_columns(self, lewis_community):
        records = collect(lewis_community, 60, master_seed=2).records
        # distinct but equal objects beside the table's shared ones
        for i in (1, 4, 5):
            r = records[i]
            records[i] = replace(r, message=Message(tuple(r.message.tokens)),
                                 trajectory=replace(r.trajectory),
                                 episode_seed=100 - i)
        dataset = InteractionDataset("f", records, {})
        back = dataset.records
        assert back == records
        for got, rec in zip(back, records):
            assert got.message is rec.message
            assert got.trajectory is rec.trajectory
            assert got.hidden_target is rec.hidden_target
        assert len(dataset) == len(records) > len(dataset.bodies)
        assert _first_appearances(dataset.body_ids) == list(
            range(len(dataset.bodies)))

    @pytest.mark.parametrize("make", ["collect", "load"])
    def test_bodies_are_distinct_in_order_of_first_appearance(
            self, lewis_community, tmp_path, make):
        dataset = collect(lewis_community, 200, master_seed=4)
        if make == "load":
            save(dataset, tmp_path / "d.jsonl")
            dataset = load(tmp_path / "d.jsonl", game=lewis_community.game)
        assert len(set(dataset.bodies)) == len(dataset.bodies) < 200
        assert _first_appearances(dataset.body_ids) == list(
            range(len(dataset.bodies)))
        assert dataset.episode_seeds == tuple(range(200))

    def test_shared_columns_cannot_change_in_place(self, lewis_community):
        public = collect(lewis_community, 10, master_seed=0).public()
        for column in (public.body_ids, public.episode_seeds, public.bodies):
            with pytest.raises(TypeError):
                column[0] = column[-1]

    def test_len_counts_episodes(self, lewis_community, tmp_path):
        dataset = collect(lewis_community, 37, master_seed=0)
        save(dataset, tmp_path / "d.jsonl")
        for d in (dataset, dataset.public(), load(tmp_path / "d.jsonl")):
            assert len(d) == len(d.records) == 37 > len(d.bodies)
        assert len(InteractionDataset("f", [], {})) == 0

    def test_a_loaded_dataset_holds_no_object_per_episode(self,
                                                         lewis_community,
                                                         tmp_path):
        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 5000, master_seed=1), path)
        gc.collect()
        before = len(gc.get_objects())
        dataset = load(path, game=lewis_community.game)
        gc.collect()
        assert len(gc.get_objects()) - before < 1000
        assert len(dataset) == 5000


class TestSave:
    def test_lines_are_dumps_of_each_record(self, lewis_community, tmp_path):
        """Texts shared across records give each line json.dumps' bytes."""
        from cooplang.data import _dumps, _traj_to_json

        path = tmp_path / "d.jsonl"
        save(collect(lewis_community, 40, master_seed=3), path)
        # distinct but equal trajectory objects, which save dumps separately
        records = [replace(r, trajectory=replace(r.trajectory),
                           hidden_target=replace(r.hidden_target))
                   for r in load(path).records]
        records[1] = replace(records[1], hidden_target=None,
                             speaker_id="spéaker \"0\"")
        records[2] = replace(records[2], episode_seed=2**70)
        records[3] = replace(records[3], trajectory=records[0].trajectory,
                             hidden_target=records[0].trajectory)
        # equal to records[3]'s body, but its zero rewards are -0.0
        zero = records[3].trajectory
        negative = replace(zero, steps=tuple(
            (s, a, -0.0 if r == 0 else r) for s, a, r in zero.steps))
        assert negative == zero
        assert "-0.0" in _dumps(_traj_to_json(negative))
        records[4] = replace(records[3], trajectory=negative, episode_seed=4)
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
