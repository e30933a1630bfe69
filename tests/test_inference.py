import json
import math

import numpy as np
import pytest

from cooplang import (
    BrocaModel,
    CommunityConfig,
    DistanceConfig,
    ListenerPolicy,
    MapConfig,
    Message,
    WernickeModel,
    boltzmann_message_likelihood,
    broca_emit,
    build_community,
    collect,
    enumerate_messages,
    enumerate_trajectories,
    fit_broca,
    fit_wernicke,
    lewis_game,
    make_trajectory,
    map_target,
    message_distance,
    optimal_message,
    semantic_distance,
    trajectory_distance,
    trajectory_return,
    wernicke_decode,
)
from cooplang.data import InteractionDataset, InteractionRecord
from cooplang.errors import (
    ConfigError,
    EmptyDatasetError,
    FingerprintMismatchError,
    ForeignGameRecordError,
)
from cooplang.games import game_fingerprint
from cooplang.inference import coarse_feature
from cooplang.tables import listener_table


def record(game, message_tokens, actions):
    return InteractionRecord(
        message=Message(tuple(message_tokens)),
        trajectory=make_trajectory(game, actions),
        hidden_target=None,
        episode_seed=0,
        speaker_id="speaker0",
        listener_id="listener0",
    )


def dataset_of(game, records):
    return InteractionDataset(
        game_fingerprint=game_fingerprint(game), records=records, meta={})


def brute_force_map(game, observed, alpha):
    """Independent exhaustive scorer for the literal MAP estimate."""
    scored = [
        (trajectory_return(t, game.gamma)
         - alpha * trajectory_distance(t, observed),
         trajectory_return(t, game.gamma), t.canonical_key, t)
        for t in enumerate_trajectories(game)
    ]
    return min(scored, key=lambda s: (-s[0], -s[1], s[2]))[3]


class TestBoltzmannLikelihood:
    def test_normalizes_to_one(self, lewis3, codebook_listener):
        cfg = DistanceConfig()
        for tau in enumerate_trajectories(lewis3):
            total = sum(
                boltzmann_message_likelihood(codebook_listener, lewis3, m,
                                             tau, cfg)
                for m in enumerate_messages(lewis3))
            assert abs(total - 1.0) < 1e-9

    def test_best_message_probability(self, lewis3, codebook_listener):
        cfg = DistanceConfig()
        tau1 = enumerate_trajectories(lewis3)[1]
        p = boltzmann_message_likelihood(codebook_listener, lewis3,
                                         Message(("b",)), tau1, cfg)
        assert p == pytest.approx(math.e / (math.e + 2), abs=1e-12)

    def test_behaviourally_equal_messages_equal_likelihood(self, lewis3):
        listener = ListenerPolicy(
            codebook={"a": ("pick0",), "b": ("pick0",), "c": ("pick1",)})
        cfg = DistanceConfig()
        tau0 = enumerate_trajectories(lewis3)[0]
        pa = boltzmann_message_likelihood(listener, lewis3, Message(("a",)),
                                          tau0, cfg)
        pb = boltzmann_message_likelihood(listener, lewis3, Message(("b",)),
                                          tau0, cfg)
        assert pa == pb

    def test_null_message_outside_emission_space(self, lewis3,
                                                 codebook_listener):
        tau0 = enumerate_trajectories(lewis3)[0]
        # the null message, a token not in vocab, a message longer than L
        for tokens in [(), ("zz",), ("a", "a")]:
            with pytest.raises(ConfigError):
                boltzmann_message_likelihood(codebook_listener, lewis3,
                                             Message(tokens), tau0,
                                             DistanceConfig())

    # sha256 of every likelihood, targets by messages, as float64 bytes
    DIGESTS = {
        ("lewis", "wasserstein1"):
            "faafbf6379cd73bc0e6e160c2e9982c7a602dc05dffaa8a319dd4bbb8f2fc476",
        ("lewis", "total_variation"):
            "faafbf6379cd73bc0e6e160c2e9982c7a602dc05dffaa8a319dd4bbb8f2fc476",
        ("sm2x2", "wasserstein1"):
            "8eeb3e507858728a1721244be7d5175575ad906b6e0a3356ce4bd379920f2c7c",
        ("sm2x2", "total_variation"):
            "0f2a620d0e37d70824376e64fdfffa98834149f3f72f97e98aa4a70431f89fff",
    }

    @pytest.mark.parametrize("lift", ["wasserstein1", "total_variation"])
    @pytest.mark.parametrize("name", ["lewis", "sm2x2"])
    def test_likelihoods_keep_their_bits(self, name, lift, lewis3, sm_2x2,
                                         codebook_listener):
        import hashlib

        if name == "lewis":
            game, listener = lewis3, codebook_listener
        else:
            game = sm_2x2
            listener = build_community(CommunityConfig(
                game=game, epsilon=0.1, codebook_k=8), 0).listeners[0]
        cfg = DistanceConfig(dist_lift=lift)
        msgs = enumerate_messages(game)
        got = []
        for tau in enumerate_trajectories(game):
            star = optimal_message(listener, game, tau)
            w = np.exp(-np.array([semantic_distance(listener, game, star, m,
                                                    cfg) for m in msgs]))
            row = [boltzmann_message_likelihood(listener, game, m, tau, cfg)
                   for m in msgs]
            assert row == (w / w.sum()).tolist()
            got += row
        assert hashlib.sha256(np.array(got).tobytes()).hexdigest() \
            == self.DIGESTS[name, lift]


class TestMapTarget:
    @pytest.mark.parametrize("alpha,expected", [
        (2.0, "start::pick1"),   # scores (-1, 0, -2)
        (0.5, "start::pick0"),   # scores (0.5, 0, -1.5)
        (1.0, "start::pick0"),   # tie (0, 0) broken by higher return
    ])
    def test_lewis_alpha_sweep(self, lewis3, alpha, expected):
        rec = record(lewis3, ("b",), ["pick1"])
        cfg = MapConfig(alpha=alpha, variant="literal")
        assert map_target(rec, lewis3, cfg).canonical_key == expected

    def test_lewis_alpha_one_ties_every_label_to_pick0(self):
        """lewis_game() has returns (1, 0, 0), and distinct trajectories lie
        1 apart, so at alpha 1 the observed trajectory ties with pick0 and
        the tie goes to the higher return; any larger alpha breaks it."""
        game = lewis_game()
        trajs = enumerate_trajectories(game)
        for alpha, want in ((1.0, ["start::pick0"] * 3),
                            (1.01, [t.canonical_key for t in trajs])):
            got = [map_target(record(game, ("a",), list(t.actions)), game,
                              MapConfig(alpha=alpha)).canonical_key
                   for t in trajs]
            assert got == want

    def test_matches_brute_force_on_random_cases(self, sm_2x2):
        lewis4 = lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"))
        rng = np.random.default_rng(42)
        for game in (lewis4, sm_2x2):
            trajs = enumerate_trajectories(game)
            msgs = enumerate_messages(game)
            for _ in range(50):
                observed = trajs[int(rng.integers(len(trajs)))]
                alpha = float(10 ** rng.uniform(-3, 3))
                rec = InteractionRecord(
                    message=msgs[int(rng.integers(len(msgs)))],
                    trajectory=observed, hidden_target=None,
                    episode_seed=0, speaker_id="s", listener_id="l")
                got = map_target(rec, game,
                                 MapConfig(alpha=alpha, variant="literal"))
                assert got == brute_force_map(game, observed, alpha)

    def test_large_alpha_returns_observed(self, lewis3, sm_2x2):
        for game in (lewis3, sm_2x2):
            cfg = MapConfig(alpha=1000.0, variant="literal")
            for observed in enumerate_trajectories(game):
                rec = InteractionRecord(
                    message=Message(()), trajectory=observed,
                    hidden_target=None, episode_seed=0,
                    speaker_id="s", listener_id="l")
                assert map_target(rec, game, cfg) == observed

    def test_tiny_alpha_returns_argmax_value(self, lewis3, sm_2x2):
        for game in (lewis3, sm_2x2):
            trajs = enumerate_trajectories(game)
            best_v = max(trajectory_return(t, game.gamma) for t in trajs)
            cfg = MapConfig(alpha=1e-6, variant="literal")
            for observed in trajs[:5]:
                rec = InteractionRecord(
                    message=Message(()), trajectory=observed,
                    hidden_target=None, episode_seed=0,
                    speaker_id="s", listener_id="l")
                got = map_target(rec, game, cfg)
                assert trajectory_return(got, game.gamma) == best_v

    def test_expected_variant_needs_listener_model(self, lewis3):
        rec = record(lewis3, ("b",), ["pick1"])
        with pytest.raises(ConfigError):
            map_target(rec, lewis3, MapConfig(alpha=1.0, variant="expected"))

    def test_variants_agree_for_noiseless_listeners(self, lewis3,
                                                    codebook_listener):
        model = listener_table(codebook_listener, lewis3)
        for alpha in (0.5, 1.0, 2.0):
            for canon, plan in codebook_listener.codebook.items():
                rec = record(lewis3, canon.split(), list(plan))
                lit = map_target(rec, lewis3,
                                 MapConfig(alpha=alpha, variant="literal"))
                exp = map_target(rec, lewis3,
                                 MapConfig(alpha=alpha, variant="expected"),
                                 listener_model=model)
                assert lit == exp


    def test_expected_variant_checks_the_listener_model(
            self, lewis3, codebook_listener):
        from cooplang.errors import DomainMismatchError
        cfg = MapConfig(alpha=1.0, variant="expected")
        other = lewis_game(n_candidates=4)
        model = listener_table(codebook_listener, other)
        with pytest.raises(DomainMismatchError):
            map_target(record(lewis3, ("a",), ["pick0"]), lewis3, cfg,
                       listener_model=model)
        model = listener_table(codebook_listener, lewis3)
        with pytest.raises(ConfigError, match="not in vocab"):
            map_target(record(lewis3, ("zz",), ["pick0"]), lewis3, cfg,
                       listener_model=model)


class TestFitBroca:
    def test_noiseless_full_coverage_recovers_codebook(self,
                                                       noiseless_lewis_community):
        com = noiseless_lewis_community
        dataset = collect(com, 200, master_seed=0)
        model = fit_broca(dataset, com.game)
        loss = 0.0
        for rec in dataset.records:
            emitted = broca_emit(model, rec.trajectory)
            loss += message_distance(rec.message, emitted)
        assert loss == 0.0
        inverse = {tuple(plan): m for m, plan in com.codebook.items()}
        for tau in com.game.table.trajs:
            assert broca_emit(model, tau).canonical() == inverse[tau.actions]

    def test_majority_message_wins(self, lewis3):
        recs = ([record(lewis3, ("b",), ["pick1"])] * 7
                + [record(lewis3, ("a",), ["pick1"])] * 3)
        model = fit_broca(dataset_of(lewis3, recs), lewis3)
        tau1 = enumerate_trajectories(lewis3)[1]
        assert broca_emit(model, tau1).canonical() == "b"

    def test_tie_breaks_lexicographically(self, lewis3):
        recs = ([record(lewis3, ("b",), ["pick1"])] * 5
                + [record(lewis3, ("a",), ["pick1"])] * 5)
        model = fit_broca(dataset_of(lewis3, recs), lewis3)
        tau1 = enumerate_trajectories(lewis3)[1]
        assert broca_emit(model, tau1).canonical() == "a"

    def test_backoff_on_item_set_feature(self):
        from cooplang import supermarket_game
        game = supermarket_game(2, 2, {"milk": (1, 0)}, ["milk"], (0, 0), 3,
                                tuple("abcd"))
        seen = record(game, ("a",), ["E", "pick"])          # collects milk
        model = fit_broca(dataset_of(game, [seen]), game)
        unseen = make_trajectory(game, ["S", "E", "N"])     # nothing collected
        detour = make_trajectory(game, ["E", "W", "E"])     # also nothing
        # same empty item set as another path: exact key misses, feature hits
        assert coarse_feature(game, unseen) == coarse_feature(game, detour)
        assert unseen.canonical_key not in model.table
        assert broca_emit(model, unseen).canonical() == "a"

    def test_empty_dataset_rejected(self, lewis3):
        with pytest.raises(EmptyDatasetError):
            fit_broca(dataset_of(lewis3, []), lewis3)

    def test_foreign_game_rejected(self, lewis3, sm_2x2):
        ds = dataset_of(sm_2x2, [record(sm_2x2, ("a",), ["N"])])
        with pytest.raises(ForeignGameRecordError):
            fit_broca(ds, lewis3)

    def test_ignores_hidden_targets(self, lewis_community):
        dataset = collect(lewis_community, 100, master_seed=1)
        model_a = fit_broca(dataset, lewis_community.game)
        model_b = fit_broca(dataset.public(), lewis_community.game)
        assert model_a.table == model_b.table

    def test_coarse_feature_once_per_trajectory(self, lewis_community,
                                                monkeypatch):
        import cooplang.inference

        seen = []
        real = cooplang.inference.coarse_feature

        def counting(game, tau):
            seen.append(tau.canonical_key)
            return real(game, tau)

        monkeypatch.setattr(cooplang.inference, "coarse_feature", counting)
        dataset = collect(lewis_community, 100, master_seed=1)
        model = fit_broca(dataset, lewis_community.game)
        assert sorted(seen) == sorted(model.table)
        assert sum(sum(hist.values())
                   for hist in model.backoff_table.values()) == 100


class TestFitWernicke:
    def test_large_alpha_equals_literal_fit(self, lewis3):
        recs = [record(lewis3, ("b",), ["pick1"]),
                record(lewis3, ("a",), ["pick0"]),
                record(lewis3, ("c",), ["pick2"])] * 5
        model = fit_wernicke(dataset_of(lewis3, recs), lewis3,
                             MapConfig(alpha=1000.0))
        for rec in recs:
            decoded = wernicke_decode(model, rec.message)
            assert decoded == rec.trajectory

    def test_tiny_alpha_always_argmax_value(self, lewis3):
        recs = [record(lewis3, ("b",), ["pick1"]),
                record(lewis3, ("c",), ["pick2"])]
        model = fit_wernicke(dataset_of(lewis3, recs), lewis3,
                             MapConfig(alpha=1e-6))
        for rec in recs:
            decoded = wernicke_decode(model, rec.message)
            assert decoded.canonical_key == "start::pick0"

    def test_unknown_message_within_backoff(self, sm_2x2):
        recs = [record(sm_2x2, ("a", "b"), ["E", "S"])]
        model = fit_wernicke(dataset_of(sm_2x2, recs), sm_2x2,
                             MapConfig(alpha=1000.0), backoff=0.5)
        near = Message(("a", "c"))  # distance 0.5 from "a b"
        assert wernicke_decode(model, near) == wernicke_decode(
            model, Message(("a", "b")))

    def test_unknown_message_beyond_backoff(self, lewis3):
        recs = [record(lewis3, ("b",), ["pick1"])]
        model = fit_wernicke(dataset_of(lewis3, recs), lewis3,
                             MapConfig(alpha=1000.0), backoff=0.0)
        # pseudo-label pool only holds pick1, the global fallback
        assert wernicke_decode(model, Message(("c",))).canonical_key \
            == "start::pick1"

    def test_beyond_backoff_return_outranks_counts(self, lewis3):
        # pick1 (return 0) is counted three times, pick0 (return 1) once
        recs = [record(lewis3, ("b",), ["pick1"])] * 3 + [
            record(lewis3, ("a",), ["pick0"])]
        model = fit_wernicke(dataset_of(lewis3, recs), lewis3,
                             MapConfig(alpha=1000.0), backoff=0.0)
        assert model.table == {"b": {"start::pick1": 3},
                               "a": {"start::pick0": 1}}
        assert wernicke_decode(model, Message(("c",))).canonical_key \
            == "start::pick0"

    def test_ignores_hidden_targets(self, lewis_community):
        dataset = collect(lewis_community, 100, master_seed=1)
        cfg = MapConfig(alpha=2.0)
        a = fit_wernicke(dataset, lewis_community.game, cfg)
        b = fit_wernicke(dataset.public(), lewis_community.game, cfg)
        assert a.table == b.table


def test_fits_do_not_copy_records(lewis_community, monkeypatch):
    """The estimators read (message, trajectory) pairs, not public() copies."""
    from cooplang.data import InteractionDataset

    dataset = collect(lewis_community, 50, master_seed=1)

    def copied(self):
        raise AssertionError("public() copies every record")

    monkeypatch.setattr(InteractionDataset, "public", copied)
    game = lewis_community.game
    assert fit_broca(dataset, game).table
    for variant in ("literal", "expected"):
        model = listener_table(lewis_community.listeners[0], game)
        assert fit_wernicke(dataset, game, MapConfig(variant=variant),
                            listener_model=model).table


class TestModelSerialization:
    def test_broca_round_trip(self, noiseless_lewis_community, tmp_path):
        com = noiseless_lewis_community
        dataset = collect(com, 50, master_seed=3)
        model = fit_broca(dataset, com.game)
        doc = json.loads(json.dumps(model.to_json_dict()))
        back = BrocaModel.from_json_dict(doc, com.game)
        assert back.table == model.table
        assert back.backoff_table == model.backoff_table
        for tau in com.game.table.trajs:
            assert broca_emit(back, tau) == broca_emit(model, tau)

    def test_wernicke_round_trip(self, noiseless_lewis_community):
        com = noiseless_lewis_community
        dataset = collect(com, 50, master_seed=3)
        model = fit_wernicke(dataset, com.game, MapConfig(alpha=2.0))
        doc = json.loads(json.dumps(model.to_json_dict()))
        back = WernickeModel.from_json_dict(doc, com.game)
        assert back.table == model.table
        for canon in model.table:
            msg = Message.from_canonical(canon)
            assert wernicke_decode(back, msg) == wernicke_decode(model, msg)

    def test_wernicke_labels_must_be_trajectories(self,
                                                  noiseless_lewis_community):
        com = noiseless_lewis_community
        dataset = collect(com, 50, master_seed=3)
        doc = fit_wernicke(dataset, com.game, MapConfig()).to_json_dict()
        hist = next(iter(doc["table"].values()))
        hist["start::pick9"] = 1
        with pytest.raises(ConfigError, match="start::pick9"):
            WernickeModel.from_json_dict(doc, com.game)
        doc["table"] = {"a": ["start::pick0"]}
        with pytest.raises(ConfigError):
            WernickeModel.from_json_dict(doc, com.game)

    def test_fingerprint_mismatch_rejected(self, lewis3, sm_2x2,
                                           noiseless_lewis_community):
        dataset = collect(noiseless_lewis_community, 20, master_seed=0)
        model = fit_broca(dataset, lewis3)
        with pytest.raises(FingerprintMismatchError):
            BrocaModel.from_json_dict(model.to_json_dict(), sm_2x2)

    def test_format_version_gate(self, lewis3, noiseless_lewis_community):
        dataset = collect(noiseless_lewis_community, 20, master_seed=0)
        doc = fit_broca(dataset, lewis3).to_json_dict()
        doc["format_version"] = 99
        with pytest.raises(ConfigError):
            BrocaModel.from_json_dict(doc, lewis3)

    def test_empty_count_tables_rejected(self, lewis3,
                                         noiseless_lewis_community):
        # every decoder takes an argmax over a count table
        dataset = collect(noiseless_lewis_community, 20, master_seed=0)
        models = [(BrocaModel, fit_broca(dataset, lewis3), "backoff_table"),
                  (WernickeModel, fit_wernicke(dataset, lewis3, MapConfig()),
                   "table")]
        for cls, model, key in models:
            for empty in ({}, {k: {} for k in model.to_json_dict()[key]}):
                doc = {**model.to_json_dict(), key: empty}
                with pytest.raises(ConfigError, match="non-empty"):
                    cls.from_json_dict(doc, lewis3)
