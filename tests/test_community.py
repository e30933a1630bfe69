import json
import math

import numpy as np
import pytest

from cooplang import (
    CommunityConfig,
    ListenerPolicy,
    Message,
    NULL_MESSAGE,
    build_community,
    enumerate_messages,
    enumerate_trajectories,
    lewis_game,
    load_community,
    make_trajectory,
    save_community,
)
from cooplang.community import SpeakerPolicy, speaker_message_dist
from cooplang.errors import ConfigError, VocabularyTooSmallError
from cooplang.tables import listener_table
from reference import (behaviour, distribution_distance, rollout,
                       speaker_sample, target_prior_sample)
from test_artifacts import CONFIGS


def behaviour_row(listener, game, message):
    """The listener table's behaviour row for a message."""
    table = listener_table(listener, game)
    return table.P[table.row(message)]


class TestBuildCommunity:
    def test_same_config_and_seed_is_identical(self, lewis3):
        cfg = CommunityConfig(game=lewis3)
        assert build_community(cfg, 5).codebook == build_community(cfg, 5).codebook

    def test_different_seeds_differ(self, lewis3):
        cfg = CommunityConfig(game=lewis3)
        a = build_community(cfg, 0).codebook
        b = build_community(cfg, 1).codebook
        assert a != b

    def test_fully_deterministic_community(self, lewis3):
        cfg = CommunityConfig(game=lewis3, epsilon=0.0, greedy_msg=True,
                              greedy_target=True)
        com = build_community(cfg, 0)
        rng = np.random.default_rng(0)
        target = target_prior_sample(com, rng)
        msgs = {speaker_sample(com.speakers[0], lewis3, target,
                               np.random.default_rng(i)).canonical()
                for i in range(5)}
        assert len(msgs) == 1

    def test_vocabulary_too_small(self):
        game = lewis_game(n_candidates=3, vocab=("a",), max_msg_len=1)
        with pytest.raises(VocabularyTooSmallError):
            build_community(CommunityConfig(game=game), 0)

    def test_supermarket_codebook_covers_top_k(self, sm_2x2):
        cfg = CommunityConfig(game=sm_2x2, codebook_k=10)
        com = build_community(cfg, 0)
        assert len(com.codebook) == 10
        plans = set(com.codebook.values())
        table = sm_2x2.table
        best = min(table.trajs,
                   key=lambda t: (-table.values[table.trajs.index(t)],
                                  t.canonical_key))
        assert best.actions in plans

    def test_json_round_trip_matches_build(self, tmp_path, lewis_community):
        path = tmp_path / "community.json"
        save_community(lewis_community, path)
        loaded = load_community(path)
        assert loaded.codebook == lewis_community.codebook
        assert loaded.seed == lewis_community.seed
        assert loaded.config.to_dict() == lewis_community.config.to_dict()


class TestTypedErrors:
    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True])
    def test_a_bad_seed_is_a_config_error(self, lewis3, seed):
        with pytest.raises(ConfigError, match="seed"):
            build_community(CommunityConfig(game=lewis3), seed)

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: {k: v for k, v in doc.items() if k != "seed"},
        lambda doc: {**doc, "codebook": list(doc["codebook"])},
        lambda doc: {**doc, "codebook": {"a": 1}},
        lambda doc: {**doc, "seed": "x"},
        lambda doc: {**doc, "seed": -1},
        lambda doc: {**doc, "config": None},
        lambda doc: {**doc, "config": {**doc["config"], "game": None}},
        lambda doc: {**doc, "config": {**doc["config"], "colour": "red"}},
        lambda doc: {**doc, "format_version": 2},
        lambda doc: {**doc, "format_version": True},
        lambda doc: {**doc, "extra": 1},
    ], ids=["list", "no-seed", "list-codebook", "int-plan", "string-seed",
            "negative-seed", "null-config", "null-game", "unknown-config-key",
            "version-2", "version-true", "unknown-key"])
    def test_a_malformed_community_file_is_a_config_error(
            self, tmp_path, lewis_community, edit):
        path = tmp_path / "community.json"
        save_community(lewis_community, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ConfigError):
            load_community(path)

    @pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe{}", b""])
    def test_a_community_file_that_is_not_json_is_a_config_error(
            self, tmp_path, raw):
        path = tmp_path / "community.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match="cannot read JSON"):
            load_community(path)


class TestTargetPrior:
    def test_boltzmann_weights(self):
        game = lewis_game(n_candidates=2, vocab=("a", "b"),
                          pick_reward=math.log(2.0))
        com = build_community(CommunityConfig(game=game), 0)
        probs = {t.canonical_key: p
                 for t, p in zip(com.game.table.trajs, com.prior)}
        assert probs["start::pick0"] == pytest.approx(2 / 3, abs=1e-12)
        assert probs["start::pick1"] == pytest.approx(1 / 3, abs=1e-12)

    def test_equal_values_give_uniform(self):
        game = lewis_game(n_candidates=3, pick_reward=0.0)
        com = build_community(CommunityConfig(game=game), 0)
        assert np.allclose(com.prior, 1 / 3)

    def test_greedy_target_is_argmax(self, lewis3):
        com = build_community(CommunityConfig(game=lewis3, greedy_target=True), 0)
        for i in range(5):
            tau = target_prior_sample(com, np.random.default_rng(i))
            assert tau.canonical_key == "start::pick0"

    def test_empirical_frequencies_match_prior(self, lewis3):
        com = build_community(CommunityConfig(game=lewis3), 0)
        rng = np.random.default_rng(123)
        n = 5000
        counts = {t.canonical_key: 0 for t in com.game.table.trajs}
        for _ in range(n):
            counts[target_prior_sample(com, rng).canonical_key] += 1
        for t, p in zip(com.game.table.trajs, com.prior):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[t.canonical_key] - n * p) < 4 * sigma


class TestSpeaker:
    def test_greedy_returns_optimal_message(self, lewis3, codebook_listener):
        speaker = SpeakerPolicy(listener_ref=codebook_listener, greedy_msg=True)
        tau1 = enumerate_trajectories(lewis3)[1]
        msg = speaker_sample(speaker, lewis3, tau1, np.random.default_rng(0))
        assert msg.canonical() == "b"

    def test_boltzmann_probability_of_best_message(self, lewis3, codebook_listener):
        speaker = SpeakerPolicy(listener_ref=codebook_listener, temp_msg=1.0)
        tau1 = enumerate_trajectories(lewis3)[1]
        msgs, probs = speaker_message_dist(speaker, lewis3, tau1)
        by_canon = {m.canonical(): p for m, p in zip(msgs, probs)}
        e = math.e
        assert by_canon["b"] == pytest.approx(e / (e + 2), abs=1e-12)
        assert by_canon["a"] == pytest.approx(1 / (e + 2), abs=1e-12)

    def test_message_blind_listener_gives_uniform(self, lewis3):
        blind = ListenerPolicy(codebook={}, epsilon=0.0)
        speaker = SpeakerPolicy(listener_ref=blind)
        tau0 = enumerate_trajectories(lewis3)[0]
        _, probs = speaker_message_dist(speaker, lewis3, tau0)
        assert np.allclose(probs, 1 / len(probs))

    def test_distribution_normalizes(self, lewis3, sm_2x2, codebook_listener):
        speaker = SpeakerPolicy(listener_ref=codebook_listener)
        for tau in enumerate_trajectories(lewis3):
            _, probs = speaker_message_dist(speaker, lewis3, tau)
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_lower_temperature_concentrates_on_best(self, lewis3,
                                                    codebook_listener):
        tau1 = enumerate_trajectories(lewis3)[1]
        last = 0.0
        for temp in (4.0, 2.0, 1.0, 0.5, 0.25):
            speaker = SpeakerPolicy(listener_ref=codebook_listener,
                                    temp_msg=temp)
            msgs, probs = speaker_message_dist(speaker, lewis3, tau1)
            p_best = {m.canonical(): p for m, p in zip(msgs, probs)}["b"]
            assert p_best >= last
            last = p_best

    def test_temperatures_must_be_positive(self, codebook_listener):
        with pytest.raises(ConfigError):
            SpeakerPolicy(listener_ref=codebook_listener, temp_msg=0.0)


class TestListenerDist:
    """Behaviour rows of the listener table, against the brute-force
    `reference.behaviour`."""

    def test_point_mass_when_noiseless(self, lewis3, codebook_listener):
        a = Message(("a",))
        row = behaviour_row(codebook_listener, lewis3, a)
        assert row.tolist() == [1.0, 0.0, 0.0]
        assert row.sum() == 1.0
        assert row.tolist() == list(
            behaviour(lewis3, codebook_listener, a).values())

    def test_epsilon_mixture(self, lewis3):
        listener = ListenerPolicy(codebook={"a": ("pick0",)}, epsilon=0.1)
        a = Message(("a",))
        row = behaviour_row(listener, lewis3, a)
        assert row[0] == pytest.approx(0.9 + 0.1 / 3, abs=1e-12)
        assert row[1] == pytest.approx(0.1 / 3, abs=1e-12)
        assert row.tolist() == list(behaviour(lewis3, listener, a).values())

    def test_null_message_uses_default_plan(self, lewis3):
        listener = ListenerPolicy(codebook={"a": ("pick0",)},
                                  default_plan=("pick2",))
        row = behaviour_row(listener, lewis3, NULL_MESSAGE)
        assert row.tolist() == [0.0, 0.0, 1.0]
        assert row.tolist() == list(
            behaviour(lewis3, listener, NULL_MESSAGE).values())

    def test_normalizes_with_early_termination(self):
        from cooplang import supermarket_game
        game = supermarket_game(2, 2, {"milk": (0, 0)}, ["milk"], (0, 0), 2,
                                tuple("abcd"))
        listener = ListenerPolicy(codebook={"a": ("pick",)}, epsilon=0.25)
        a = Message(("a",))
        row = behaviour_row(listener, game, a)
        assert abs(row.sum() - 1.0) < 1e-12
        assert row.tolist() == list(behaviour(game, listener, a).values())

    def test_point_mass_for_every_known_message(self, lewis_community):
        game = lewis_community.game
        listener = lewis_community.listeners[0]
        for canon in lewis_community.codebook:
            message = Message.from_canonical(canon)
            row = behaviour_row(listener, game, message)
            assert row.max() == 1.0
            assert row.tolist() == list(
                behaviour(game, listener, message).values())


class TestMessages:
    def test_enumeration_order(self, lewis3):
        msgs = enumerate_messages(lewis3, include_null=True)
        assert [m.canonical() for m in msgs] == ["", "a", "b", "c"]

    def test_length_two_ordering(self, sm_2x2):
        msgs = [m.canonical() for m in enumerate_messages(sm_2x2)]
        assert msgs[0] == "a"
        assert msgs[8] == "a a"
        assert len(msgs) == 8 + 64


class TestTables:
    def test_replaced_listener_gets_fresh_tables(self, lewis3):
        import dataclasses
        listener = ListenerPolicy(codebook={"a": ("pick0",)}, epsilon=0.0)
        a = Message(("a",))
        assert behaviour_row(listener, lewis3, a).tolist() == [1.0, 0.0, 0.0]
        noisy = dataclasses.replace(listener, epsilon=0.3)
        probs = behaviour_row(noisy, lewis3, a).tolist()
        assert probs == pytest.approx([0.8, 0.1, 0.1], abs=1e-12)

    def test_speaker_tables_are_keyed_by_game(self, codebook_listener):
        speaker = SpeakerPolicy(listener_ref=codebook_listener)
        small, wide = lewis_game(), lewis_game(vocab=("a", "b", "c", "d"))
        tau0 = enumerate_trajectories(small)[0]
        msgs, _ = speaker_message_dist(speaker, small, tau0)
        assert len(msgs) == 3
        msgs, probs = speaker_message_dist(speaker, wide, tau0)
        assert [m.canonical() for m in msgs] == ["a", "b", "c", "d"]
        assert len(probs) == 4

    def test_speaker_distribution_matches_brute_force(self, lewis3, sm_2x2):
        from cooplang import DistanceConfig, optimal_message

        lewis4 = lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"),
                            max_msg_len=2)
        for game in (lewis4, sm_2x2):
            com = build_community(
                CommunityConfig(game=game, epsilon=0.1, codebook_k=8), 0)
            listener, speaker = com.listeners[0], com.speakers[0]
            lifted = {}

            def distance(m1, m2):
                plans = listener.plan_for(m1), listener.plan_for(m2)
                if plans not in lifted:
                    lifted[plans] = distribution_distance(
                        behaviour(game, listener, m1),
                        behaviour(game, listener, m2), DistanceConfig())
                return lifted[plans]

            msgs = enumerate_messages(game)
            for target in com.game.table.trajs[::3]:
                star = optimal_message(listener, game, target)
                dists = np.array([distance(star, m) for m in msgs])
                w = np.exp(-dists - (-dists).max())
                got_msgs, got = speaker_message_dist(speaker, game, target)
                assert got_msgs == msgs
                assert np.array_equal(got, w / w.sum())

    def test_rollout_returns_the_enumerated_trajectory(self, sm_2x2):
        listener = ListenerPolicy(codebook={"a": ("E", "S")}, epsilon=0.3)
        rng = np.random.default_rng(0)
        taus = [rollout(sm_2x2, listener, Message(("a",)), rng)
                for _ in range(50)]
        assert all(tau == make_trajectory(sm_2x2, tau.actions) for tau in taus)

    def test_rollout_rejects_an_action_outside_the_game(self, lewis3):
        from cooplang.errors import InvalidActionError
        listener = ListenerPolicy(codebook={"a": ("jump",)}, epsilon=0.0)
        with pytest.raises(InvalidActionError):
            rollout(lewis3, listener, Message(("a",)), np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("default_plan", [(), ("jump",)])
    def test_tables_reject_an_action_outside_the_game(self, lewis3, epsilon,
                                                      default_plan):
        from cooplang import DistanceConfig, semantic_distance
        from cooplang.errors import InvalidActionError
        codebook = ({"a": ("jump",)} if default_plan == ()
                    else {"a": ("pick0",)})
        a, b = Message(("a",)), Message(("b",))
        for query in (
                lambda lst: listener_table(lst, lewis3),
                lambda lst: semantic_distance(lst, lewis3, a, b,
                                              DistanceConfig())):
            listener = ListenerPolicy(codebook=codebook, epsilon=epsilon,
                                      default_plan=default_plan)
            with pytest.raises(InvalidActionError, match="'jump'"):
                query(listener)


class TestFrozenPolicies:
    def test_listener_epsilon_cannot_change_after_a_query(self, lewis3):
        import dataclasses
        listener = ListenerPolicy(codebook={"a": ("pick0",)}, epsilon=0.0)
        a = Message(("a",))
        behaviour_row(listener, lewis3, a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            listener.epsilon = 0.3
        assert behaviour_row(listener, lewis3, a).tolist() == [1.0, 0.0, 0.0]

    def test_listener_codebook_is_read_only(self, lewis3):
        codebook = {"a": ("pick0",)}
        listener = ListenerPolicy(codebook=codebook, epsilon=0.0)
        a = Message(("a",))
        behaviour_row(listener, lewis3, a)
        with pytest.raises(TypeError):
            listener.codebook["a"] = ("pick1",)
        codebook["a"] = ("pick1",)  # the listener holds its own copy
        assert listener.plan_for(a) == ("pick0",)
        assert behaviour_row(listener, lewis3, a).tolist() == [1.0, 0.0, 0.0]

    def test_speaker_temperature_cannot_change_after_a_query(
            self, lewis3, codebook_listener):
        import dataclasses
        speaker = SpeakerPolicy(listener_ref=codebook_listener, temp_msg=1.0)
        target = enumerate_trajectories(lewis3)[0]
        _, before = speaker_message_dist(speaker, lewis3, target)
        with pytest.raises(dataclasses.FrozenInstanceError):
            speaker.temp_msg = 0.01
        with pytest.raises(dataclasses.FrozenInstanceError):
            speaker.listener_ref = ListenerPolicy(codebook={})
        _, after = speaker_message_dist(speaker, lewis3, target)
        assert np.array_equal(before, after)

    def test_replaced_speaker_gets_fresh_rows(self, lewis3, codebook_listener):
        import dataclasses
        speaker = SpeakerPolicy(listener_ref=codebook_listener, temp_msg=1.0)
        target = enumerate_trajectories(lewis3)[0]
        _, warm = speaker_message_dist(speaker, lewis3, target)
        cold = dataclasses.replace(speaker, temp_msg=0.1)
        _, probs = speaker_message_dist(cold, lewis3, target)
        assert probs.max() > warm.max()
        rng = np.random.default_rng(0)
        draws = {speaker_sample(cold, lewis3, target, rng).canonical()
                 for _ in range(200)}
        assert draws == {"a"}


class TestLaws:
    """The simulator draws from the laws that `Community.prior` and
    `speaker_message_dist` return; a greedy flag makes its law a point
    mass and its stream draw nothing."""

    @pytest.mark.parametrize("name,greedy", [
        ("sm2x2-eps0.5-greedy", True), ("lewis", True),
        ("sm2x2-eps0.1", False), ("lewis", False)])
    def test_collected_episodes_draw_the_laws(self, name, greedy):
        from cooplang import DistanceConfig, collect
        from cooplang.community import _boltzmann
        from cooplang.semantics import emission_distances

        if name == "lewis":
            config = CommunityConfig(game=lewis_game(), greedy_msg=greedy,
                                     greedy_target=greedy)
        else:
            config = CommunityConfig.from_dict(
                {**CONFIGS[name]["community"], "game": CONFIGS[name]["game"]})
        com = build_community(config, 0)
        game, trajs = com.game, com.game.table.trajs
        for rec in collect(com, 200, 0).records:
            speaker = com.speakers[int(rec.speaker_id.removeprefix("speaker"))]
            msgs, law = speaker_message_dist(speaker, game, rec.hidden_target)
            mass = (com.prior[trajs.index(rec.hidden_target)],
                    law[msgs.index(rec.message)])
            assert (mass == (1.0, 1.0)) if greedy else (min(mass) > 0)
        if not greedy:
            assert com.prior.tobytes() == _boltzmann(
                game.table.values, config.temp_target).tobytes()
            table = listener_table(com.listeners[0], game)
            for target in trajs:
                row = emission_distances(table, table.optimal_id(target),
                                         DistanceConfig())
                for speaker in com.speakers:
                    _, law = speaker_message_dist(speaker, game, target)
                    assert law.tobytes() == _boltzmann(
                        -row, speaker.temp_msg).tobytes()


class TestSampler:
    """The batch kernels' CDF draw is numpy's Generator.choice(n, p=p), bit
    for bit."""

    @staticmethod
    def vectors(n, rng):
        flat = np.full(n, 1.0 / n)
        peaked = np.exp(-40.0 * rng.random(n))
        with_zeros = rng.random(n) * (rng.random(n) < 0.5)
        with_zeros[rng.integers(n)] = 1.0
        return [flat, peaked / peaked.sum(), with_zeros / with_zeros.sum()]

    def test_cdf_draw_matches_generator_choice(self):
        from cooplang.community import _cdf
        for n in range(1, 131):
            for p in self.vectors(n, np.random.default_rng(n)):
                cdf = _cdf(p)
                for seed in range(6):
                    rng = np.random.default_rng([seed, n])
                    numpy = np.random.default_rng([seed, n])
                    for _ in range(3):
                        assert int(cdf.searchsorted(rng.random(),
                                                    side="right")) \
                            == numpy.choice(n, p=p)
                    assert rng.random() == numpy.random()
