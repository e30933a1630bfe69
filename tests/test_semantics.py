import itertools
import json

import numpy as np
import pytest

from cooplang import (
    CommunityConfig,
    DistanceConfig,
    GameSpec,
    ListenerPolicy,
    Message,
    NULL_MESSAGE,
    build_community,
    enumerate_messages,
    enumerate_trajectories,
    message_distance,
    optimal_message,
    positive_listening_test,
    positive_signalling_test,
    semantic_distance,
    trajectory_distance,
)
from cooplang.semantics import (distances, emission_distances,
                                positive_signalling_test_by_body)
from cooplang.errors import (
    ConfigError,
    DistributionError,
    DomainMismatchError,
    SupportMismatchError,
    TooFewEpisodesError,
)
from cooplang.tables import EDIT_BLOCK_ELEMENTS
from reference import behaviour, distribution_distance, planned_action
from test_artifacts import CONFIGS


def point_mass(trajs, index):
    return {t: 1.0 if i == index else 0.0 for i, t in enumerate(trajs)}


class TestMessageDistance:
    def test_identity(self):
        assert message_distance(Message(("a", "b")), Message(("a", "b"))) == 0.0

    def test_single_substitution(self):
        assert message_distance(Message(("a",)), Message(("b",))) == 1.0

    def test_deletion_over_max_length(self):
        assert message_distance(Message(("a", "b")), Message(("a",))) == 0.5

    def test_null_message_distance(self):
        assert message_distance(NULL_MESSAGE, Message(("a",))) == 1.0
        assert message_distance(NULL_MESSAGE, NULL_MESSAGE) == 0.0

    def test_metric_axioms_on_random_triples(self, sm_2x2):
        msgs = enumerate_messages(sm_2x2, include_null=True)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x, y, z = (msgs[i] for i in rng.integers(len(msgs), size=3))
            dxy = message_distance(x, y)
            assert dxy == message_distance(y, x)
            assert (dxy == 0.0) == (x.tokens == y.tokens)
            assert message_distance(x, z) <= dxy + message_distance(y, z) + 1e-12


class TestTrajectoryDistance:
    def test_identity(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        assert trajectory_distance(trajs[0], trajs[0]) == 0.0

    def test_unit_for_different_picks(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        assert trajectory_distance(trajs[0], trajs[1]) == 1.0

    def test_one_edit_over_two_actions(self, sm_2x2):
        from cooplang import make_trajectory
        t1 = make_trajectory(sm_2x2, ["N", "E"])
        t2 = make_trajectory(sm_2x2, ["N", "W"])
        assert trajectory_distance(t1, t2) == 0.5

    def test_cross_game_rejected(self, lewis3, sm_2x2):
        t1 = enumerate_trajectories(lewis3)[0]
        t2 = enumerate_trajectories(sm_2x2)[0]
        with pytest.raises(DomainMismatchError):
            trajectory_distance(t1, t2)

    def test_metric_axioms_on_random_triples(self, sm_3x3):
        trajs = enumerate_trajectories(sm_3x3)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y, z = (trajs[i] for i in rng.integers(len(trajs), size=3))
            dxy = trajectory_distance(x, y)
            assert dxy == trajectory_distance(y, x)
            assert (dxy == 0.0) == (x.canonical_key == y.canonical_key)
            assert trajectory_distance(x, z) <= dxy + trajectory_distance(y, z) + 1e-12


class TestDistributionDistance:
    def test_point_masses_reduce_to_ground_metric(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        cfg = DistanceConfig()
        d = distribution_distance(point_mass(trajs, 0), point_mass(trajs, 1), cfg)
        assert d == trajectory_distance(trajs[0], trajs[1]) == 1.0

    def test_identical_distributions_are_zero(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        p = {t: 1 / 3 for t in trajs}
        for lift in ("wasserstein1", "total_variation"):
            assert distribution_distance(p, dict(p),
                                         DistanceConfig(dist_lift=lift)) == 0.0

    def test_half_mass_moves_at_unit_cost(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        p = {trajs[0]: 0.5, trajs[1]: 0.5, trajs[2]: 0.0}
        q = point_mass(trajs, 0)
        d = distribution_distance(p, q, DistanceConfig())
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_support_mismatch_rejected(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        with pytest.raises(SupportMismatchError):
            distribution_distance(point_mass(trajs, 0),
                                  {trajs[0]: 1.0}, DistanceConfig())

    def test_non_normalized_rejected(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        bad = {t: 0.5 for t in trajs}
        with pytest.raises(DistributionError):
            distribution_distance(bad, bad, DistanceConfig())

    @pytest.mark.parametrize("lift", ["wasserstein1", "total_variation"])
    def test_negative_mass_rejected(self, lewis3, lift):
        from cooplang.semantics import _lift

        cfg = DistanceConfig(dist_lift=lift)
        pv, qv = np.array([0.5, 0.5]), np.array([-0.5, 1.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        for p, q in ((pv, qv), (qv, pv)):
            with pytest.raises(DistributionError, match="non-negative"):
                _lift(p, q, lambda i, j: cost[np.ix_(i, j)], cfg)
        trajs = enumerate_trajectories(lewis3)
        with pytest.raises(DistributionError, match="non-negative"):
            distribution_distance(dict(zip(trajs, [0.5, 0.5, 0.0])),
                                  dict(zip(trajs, [-0.5, 1.5, 0.0])), cfg)

    def test_support_cap_error_names_total_variation(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        cfg = DistanceConfig(wasserstein_support_cap=2)
        p = {t: 1 / 3 for t in trajs}
        q = {trajs[0]: 0.5, trajs[1]: 0.25, trajs[2]: 0.25}
        with pytest.raises(SupportMismatchError, match="total_variation"):
            distribution_distance(p, q, cfg)

    def test_zero_iff_equal_on_random_pairs(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            pd = dict(zip(trajs, p))
            qd = dict(zip(trajs, q))
            for lift in ("wasserstein1", "total_variation"):
                cfg = DistanceConfig(dist_lift=lift)
                assert distribution_distance(pd, dict(pd), cfg) == 0.0
                if not np.array_equal(p, q):
                    assert distribution_distance(pd, qd, cfg) > 0.0

    def test_wasserstein_symmetry_is_exact(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        rng = np.random.default_rng(3)
        cfg = DistanceConfig()
        for _ in range(50):
            pd = dict(zip(trajs, rng.dirichlet(np.ones(3))))
            qd = dict(zip(trajs, rng.dirichlet(np.ones(3))))
            assert (distribution_distance(pd, qd, cfg)
                    == distribution_distance(qd, pd, cfg))


class TestOptimalMessage:
    def test_codebook_lookup(self, lewis3, codebook_listener):
        trajs = enumerate_trajectories(lewis3)
        assert optimal_message(codebook_listener, lewis3,
                               trajs[1]).canonical() == "b"

    def test_message_blind_listener_returns_null(self, lewis3):
        blind = ListenerPolicy(codebook={}, epsilon=0.0)
        trajs = enumerate_trajectories(lewis3)
        assert optimal_message(blind, lewis3, trajs[0]).is_null()

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 1.0])
    def test_mstar_is_the_first_argmax_per_target(self, sm_2x2, sm_3x3,
                                                  epsilon):
        from cooplang import CommunityConfig, build_community, lewis_game
        from cooplang.tables import listener_table

        games = (lewis_game(max_msg_len=2),
                 lewis_game(n_candidates=4, vocab=tuple("abcd"),
                            max_msg_len=2), sm_2x2, sm_3x3)
        for game, k, seed in itertools.product(games, (1, 3, 8, 64),
                                               range(3)):
            com = build_community(CommunityConfig(
                game=game, epsilon=epsilon, codebook_k=k), seed)
            # "zz" is no message of the game; where no message has its plan
            # (trajectory 1's), its row must not win a target
            foreign = ListenerPolicy(
                codebook={**com.codebook, "zz": game.table.trajs[1].actions},
                epsilon=epsilon)
            for listener in (com.listeners[0], foreign):
                table = listener_table(listener, game)
                P = table.P[table.message_rows]  # M x T, as a reference may
                want = [int(np.argmax(P[:, t])) for t in range(P.shape[1])]
                assert table.mstar.tolist() == want
                if epsilon == 1.0:  # every row ties: the null message wins
                    assert not table.mstar.any()

    def test_mstar_makes_no_message_by_trajectory_array(self):
        import tracemalloc
        from cooplang import CommunityConfig, build_community, supermarket_game
        from cooplang.tables import listener_table

        vocab = tuple(f"w{i}" for i in range(60))
        game = supermarket_game(3, 3, {"milk": (0, 1), "bread": (2, 2)},
                                ["milk", "bread"], (0, 0), 3, vocab)
        com = build_community(CommunityConfig(game=game, epsilon=0.1), 0)
        table = listener_table(com.listeners[0], game)
        table.message_rows  # one entry per message, built beforehand
        M, T = len(table.game.messages), len(table.game.trajs)
        tracemalloc.start()
        try:
            table.mstar
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M * T  # bytes: less than a boolean M x T array

    def test_emission_slice_of_an_unenumerated_target(self, lewis3,
                                                      codebook_listener):
        from cooplang import lewis_game
        from cooplang.tables import listener_table

        table = listener_table(codebook_listener, lewis3)
        stranger = enumerate_trajectories(lewis_game(n_candidates=4))[3]
        assert stranger.canonical_key not in table.game.key_index
        assert table.optimal_id(stranger) == 0
        assert emission_distances(table, 0, DistanceConfig()).tolist() \
            == distances(table, table.row(NULL_MESSAGE),
                         table.message_rows[1:], DistanceConfig()).tolist()

    def test_supermarket_brute_force(self, sm_3x3):
        from cooplang import CommunityConfig, build_community, trajectory_return
        com = build_community(CommunityConfig(game=sm_3x3), 7)
        listener = com.listeners[0]
        best = max(
            com.game.table.trajs,
            key=lambda t: (trajectory_return(t, sm_3x3.gamma),
                           [-ord(c) for c in t.canonical_key]),
        )
        got = optimal_message(listener, sm_3x3, best)
        # brute force over every message incl. null
        scores = {}
        for msg in enumerate_messages(sm_3x3, include_null=True):
            scores[msg.canonical()] = behaviour(sm_3x3, listener, msg)[best]
        assert scores[got.canonical()] == max(scores.values())
        assert got.canonical() in com.codebook
        assert com.codebook[got.canonical()] == best.actions


class TestSemanticDistance:
    def test_self_distance_zero(self, lewis3, codebook_listener):
        cfg = DistanceConfig()
        m = Message(("a",))
        assert semantic_distance(codebook_listener, lewis3, m, m, cfg) == 0.0

    def test_distinct_plans_at_unit_distance(self, lewis3, codebook_listener):
        cfg = DistanceConfig()
        assert semantic_distance(codebook_listener, lewis3, Message(("a",)),
                                 Message(("b",)), cfg) == 1.0

    def test_message_blind_listener_all_zero(self, lewis3):
        blind = ListenerPolicy(codebook={}, epsilon=0.0)
        cfg = DistanceConfig()
        msgs = enumerate_messages(lewis3, include_null=True)
        for m1, m2 in itertools.combinations(msgs, 2):
            assert semantic_distance(blind, lewis3, m1, m2, cfg) == 0.0

    @pytest.mark.parametrize("lift", ["wasserstein1", "total_variation"])
    def test_pseudo_metric_on_random_triples(self, lewis3, lift):
        listener = ListenerPolicy(
            codebook={"a": ("pick0",), "b": ("pick1",), "c": ("pick2",)},
            epsilon=0.3)
        cfg = DistanceConfig(dist_lift=lift)
        msgs = enumerate_messages(lewis3, include_null=True)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y, z = (msgs[i] for i in rng.integers(len(msgs), size=3))
            dxy = semantic_distance(listener, lewis3, x, y, cfg)
            dyx = semantic_distance(listener, lewis3, y, x, cfg)
            assert dxy == dyx
            dxz = semantic_distance(listener, lewis3, x, z, cfg)
            dyz = semantic_distance(listener, lewis3, y, z, cfg)
            assert dxz <= dxy + dyz + 1e-12


class TestPositiveListening:
    def test_codebook_listener_detected(self, lewis3, codebook_listener):
        report = positive_listening_test(
            codebook_listener, lewis3, enumerate_messages(lewis3),
            DistanceConfig())
        assert report.detected
        assert report.statistic == 1.0
        assert report.witness is not None

    def test_message_blind_listener_statistic_exactly_zero(self, lewis3):
        blind = ListenerPolicy(codebook={}, epsilon=0.0)
        report = positive_listening_test(
            blind, lewis3, enumerate_messages(lewis3), DistanceConfig())
        assert not report.detected
        assert report.statistic == 0.0

    def test_half_noise_total_variation_statistic(self, lewis3):
        listener = ListenerPolicy(
            codebook={"a": ("pick0",), "b": ("pick1",), "c": ("pick2",)},
            epsilon=0.5)
        cfg = DistanceConfig(dist_lift="total_variation")
        report = positive_listening_test(
            listener, lewis3, enumerate_messages(lewis3), cfg)
        assert report.statistic == pytest.approx(0.5, abs=1e-12)


def _episodes_from_dataset(dataset):
    return [((), rec.trajectory.actions, (rec.message.canonical(),))
            for rec in dataset.records]


class TestPositiveSignalling:
    def test_codebook_speaker_detected(self, lewis_community):
        from cooplang import collect
        dataset = collect(lewis_community, 300, master_seed=5)
        report = positive_signalling_test(
            _episodes_from_dataset(dataset), DistanceConfig(permutations=1000))
        assert report.detected
        assert report.p_value <= 0.01

    def test_constant_message_speaker_not_detected(self):
        episodes = [((), ("pick0",), ("a",)) for _ in range(60)]
        report = positive_signalling_test(episodes, DistanceConfig())
        assert report.statistic == 0.0
        assert not report.detected

    def test_too_few_episodes_rejected(self):
        with pytest.raises(TooFewEpisodesError):
            positive_signalling_test([((), ("x",), ("a",))] * 10,
                                     DistanceConfig())

    def test_random_speaker_false_positive_rate(self, lewis3):
        # quick null calibration; the full 200-run version is in acceptance
        rng = np.random.default_rng(6)
        cfg = DistanceConfig(permutations=200)
        detections = 0
        runs = 40
        for run in range(runs):
            episodes = [
                ((), (f"pick{rng.integers(3)}",), (rng.choice(["a", "b", "c"]),))
                for _ in range(50)
            ]
            report = positive_signalling_test(episodes, cfg, seed=run)
            detections += report.detected
        assert detections / runs <= 0.15

    def test_deterministic_given_seed(self, lewis_community):
        from cooplang import collect
        dataset = collect(lewis_community, 60, master_seed=9)
        episodes = _episodes_from_dataset(dataset)
        cfg = DistanceConfig(permutations=200)
        a = positive_signalling_test(episodes, cfg, seed=3)
        b = positive_signalling_test(episodes, cfg, seed=3)
        assert (a.statistic, a.p_value) == (b.statistic, b.p_value)

    @pytest.mark.parametrize("n", [100, 400])
    def test_by_body_is_the_test_of_each_episode(self, lewis_community,
                                                 sm_2x2, n):
        """Each body encoded once gives the bits of each episode encoded
        alone, on the collected and the public view."""
        from cooplang import collect
        cfg = DistanceConfig(permutations=300)
        for community in (lewis_community, build_community(
                CommunityConfig(game=sm_2x2, codebook_k=8), 1)):
            dataset = collect(community, n, master_seed=4)
            assert len(dataset.bodies) < n
            for view in (dataset, dataset.public()):
                got = positive_signalling_test_by_body(
                    view.bodies, view.body_ids, cfg, seed=2)
                assert got == positive_signalling_test(
                    _episodes_from_dataset(view), cfg, seed=2)

    def test_by_body_counts_episodes_not_bodies(self, lewis_community):
        from cooplang import collect
        dataset = collect(lewis_community, 29, master_seed=0)
        with pytest.raises(TooFewEpisodesError, match="got 29"):
            positive_signalling_test_by_body(
                dataset.bodies, dataset.body_ids, DistanceConfig())

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True])
    def test_a_bad_seed_is_a_config_error(self, seed):
        episodes = [((), (f"pick{i % 3}",), ("abc"[i % 3],))
                    for i in range(30)]
        with pytest.raises(ConfigError, match="seed"):
            positive_signalling_test(episodes, DistanceConfig(), seed=seed)


def _edit(a, b):
    """Normalized Levenshtein distance, written apart from the library."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1] / max(len(a), len(b), 1)


@pytest.fixture(params=["lewis", "sm_2x2", "sm_3x3-eps0"])
def noisy_game(request, sm_2x2, sm_3x3):
    """A community per game; the noiseless 3x3 one has point-mass behaviours."""
    from cooplang import CommunityConfig, build_community, lewis_game
    game = {"lewis": lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"),
                                max_msg_len=2),
            "sm_2x2": sm_2x2, "sm_3x3-eps0": sm_3x3}[request.param]
    epsilon = 0.0 if request.param == "sm_3x3-eps0" else 0.1
    com = build_community(
        CommunityConfig(game=game, epsilon=epsilon, codebook_k=8), 0)
    return game, com


# a config name per distinct game of the pinned pipelines
_PINNED_GAMES = {json.dumps(c["game"], sort_keys=True): name
                 for name, c in CONFIGS.items()}


def _horizon_4():
    """A 3x3 supermarket of horizon 4 whose one item is two steps from
    the start, so its trajectories end after 2, 3 or 4 steps."""
    from cooplang import supermarket_game
    return supermarket_game(3, 3, {"milk": (0, 1)}, ["milk"], (0, 0), 4,
                            tuple("ab"))


def _count_blocks(monkeypatch) -> list:
    """Per call of the Wagner-Fischer kernel from now on, the indices of
    the rows of D it computes."""
    from cooplang.tables import GameTable
    blocks = []
    real = GameTable._edit_block

    def counting(self, queries, n):
        blocks.append([self.index[tuple(self.env_actions[a] for a in q[:k])]
                       for q, k in zip(queries.tolist(), n.tolist())])
        return real(self, queries, n)

    monkeypatch.setattr(GameTable, "_edit_block", counting)
    return blocks


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestTables:
    @pytest.mark.parametrize("name", ["lewis", "sm_2x2", "sm_3x3"])
    def test_every_edit_row_is_trajectory_distance(self, name, lewis3,
                                                   sm_2x2, sm_3x3):
        game = {"lewis": lewis3, "sm_2x2": sm_2x2, "sm_3x3": sm_3x3}[name]
        table = game.table
        for i, t in enumerate(table.trajs):
            want = [trajectory_distance(t, u) for u in table.trajs]
            assert (_bits(table.row(i)) == _bits(want)).all()

    def test_edit_rows_of_a_long_horizon(self):
        from cooplang import supermarket_game
        # no episode of 5 steps collects both items, so 5**5 trajectories
        game = supermarket_game(3, 3, {"milk": (0, 1), "bread": (2, 2)},
                                ["milk", "bread"], (0, 0), 5, tuple("ab"))
        table = game.table
        assert len(table.trajs) == 3125
        for i in range(0, 3125, 157):  # 20 rows
            want = [trajectory_distance(table.trajs[i], u) for u in table.trajs]
            assert (_bits(table.row(i)) == _bits(want)).all()

    def test_column_of_a_prefix_is_trajectory_distance(self, sm_3x3):
        from cooplang import make_trajectory
        table = sm_3x3.table
        for actions in [("S",), ("E", "E"), ("pick", "N")]:
            tau = make_trajectory(sm_3x3, actions)
            assert tau.actions not in table.index
            want = [trajectory_distance(u, tau) for u in table.trajs]
            assert (_bits(table.column(tau)) == _bits(want)).all()

    @pytest.mark.parametrize("name",
                             [*sorted(_PINNED_GAMES.values()), "horizon-4"])
    def test_rows_in_one_request_are_trajectory_distance(self, name):
        game = (_horizon_4() if name == "horizon-4"
                else GameSpec.from_json_dict(CONFIGS[name]["game"]))
        table = game.table  # a new table: every row is missing
        got = table.rows(np.arange(len(table.trajs)))
        stride = 7 if name == "horizon-4" else 1  # 585 trajectories
        for i in range(0, len(table.trajs), stride):
            want = [trajectory_distance(table.trajs[i], u)
                    for u in table.trajs]
            assert (_bits(got[i]) == _bits(want)).all()

    def test_the_horizon_4_game_has_mixed_lengths_and_many_blocks(self):
        table = _horizon_4().table
        assert set(table.lengths.tolist()) == {2, 3, 4}
        cells = table.ids.size + len(table.trajs)  # of one query's tables
        assert len(table.trajs) * cells > 4 * EDIT_BLOCK_ELEMENTS

    def test_one_block_of_queries_of_mixed_lengths(self, lewis3):
        """Lewis trajectories have one action; queries of 0 to 3 actions,
        an action of no game among them, share one block."""
        from cooplang.games import Trajectory
        table = lewis3.table
        taus = [Trajectory(steps=tuple(("", a, 0.0) for a in actions),
                           canonical_key=",".join(actions),
                           game_fingerprint=lewis3.fingerprint)
                for actions in [(), ("pick1",), ("pick2", "pick0"),
                                ("zz", "pick1", "pick1"), ("zz",), ("pick0",)]]
        ids = [[table._action_id.get(a, -1) for a in t.actions] for t in taus]
        queries = np.full((len(ids), 3), -1)
        for q, a in zip(queries, ids):
            q[:len(a)] = a
        n = np.array([len(a) for a in ids])
        got = table._edit_rows(queries, n)
        for tau, row in zip(taus, got):
            want = _bits([trajectory_distance(u, tau) for u in table.trajs])
            assert (_bits(row) == want).all()
            assert (_bits(table.column(tau)) == want).all()

    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_rows_across_block_boundaries(self, sm_3x3, monkeypatch,
                                          per_block):
        """Duplicate and unsorted indices; blocks of one query each, and of
        three, which split the request; only missing rows are computed."""
        from cooplang import tables
        table = sm_3x3.table
        cells = table.ids.size + len(table.trajs)  # of one query's tables
        if per_block is not None:
            monkeypatch.setattr(tables, "EDIT_BLOCK_ELEMENTS",
                                per_block * cells + cells // 2)
        blocks = _count_blocks(monkeypatch)
        idx = [90, 7, 3, 90, 124, 0, 7, 55, 3]
        got = table.rows(idx)
        assert got.shape == (len(idx), len(table.trajs))
        for i, row in zip(idx, got):
            want = [trajectory_distance(table.trajs[i], u)
                    for u in table.trajs]
            assert (_bits(row) == _bits(want)).all()
        # 6 distinct rows
        assert [len(b) for b in blocks] == {None: [6], 1: [1] * 6,
                                            3: [3, 3]}[per_block]
        # in order of first use
        assert sum(blocks, []) == [90, 7, 3, 124, 0, 55]
        known = len(blocks)
        again = table.rows([124, 6, 7, 6])
        assert blocks[known:] == [[6]]  # only the missing row
        assert (_bits(again[[0, 2]]) == _bits(got[[4, 1]])).all()
        assert (_bits(again[1]) == _bits(again[3])).all()
        assert table.rows([]).shape == (0, len(table.trajs))

    def test_a_literal_wernicke_fit_computes_every_row_in_one_block(
            self, tmp_path, monkeypatch, capsys):
        from cooplang.cli import EXIT_OK, main
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIGS["sm2x2-eps0.1"]))
        argv = ["--config", str(config), "--out", str(tmp_path), "--canonical"]
        assert main(["collect", *argv]) == EXIT_OK
        blocks = _count_blocks(monkeypatch)
        assert main(["fit-wernicke", *argv]) == EXIT_OK
        assert len(blocks) == 1
        rows = len(set(blocks[0]))
        table = GameSpec.from_json_dict(CONFIGS["sm2x2-eps0.1"]["game"]).table
        assert rows == len(blocks[0]) > 1
        # the one block holds every row
        assert (rows * (table.ids.size + len(table.trajs))
                <= EDIT_BLOCK_ELEMENTS)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("name", ["lewis", "sm_2x2", "sm_3x3"])
    def test_listener_table_is_indexed_by_message(self, name, epsilon, lewis3,
                                                  sm_2x2, sm_3x3):
        from cooplang import CommunityConfig, build_community
        from cooplang.tables import listener_table

        game = {"lewis": lewis3, "sm_2x2": sm_2x2, "sm_3x3": sm_3x3}[name]
        trajs, env_actions = game.table.trajs, game.env_actions
        com = build_community(CommunityConfig(game=game, codebook_k=8), 0)
        # "zz" is no message of the game; a one-step default plan is padded
        listener = ListenerPolicy(
            codebook={**com.codebook, "zz": trajs[1].actions},
            epsilon=epsilon, default_plan=trajs[-1].actions[:1])
        table = listener_table(listener, game)
        steps = range(table.game.ids.shape[1])
        assert table.actions.shape == (len(table.game.messages), len(steps))
        for m, actions in zip(table.game.messages, table.actions.tolist()):
            plan = listener.plan_for(m)
            assert actions == [
                env_actions.index(planned_action(game, plan, k))
                for k in steps]
            want = list(behaviour(game, listener, m).values())
            assert (_bits(table.P[table.row(m)]) == _bits(want)).all()

    def test_row_of_a_message_outside_the_game_is_a_config_error(self,
                                                                 lewis3):
        from cooplang.tables import listener_table

        listener = ListenerPolicy(codebook={"zz": ("pick1",)})
        table = listener_table(listener, lewis3)
        # not in the vocab, even as a codebook key; longer than L = 1
        for message in (Message(("zz",)), Message(("a", "b"))):
            with pytest.raises(ConfigError, match="not a message of the game"):
                table.row(message)

    def test_one_lp_per_distinct_plan_pair(self, sm_2x2, monkeypatch):
        from cooplang import CommunityConfig, build_community
        from cooplang.community import speaker_message_dist
        import cooplang.semantics

        solves = []
        real = cooplang.semantics.linprog

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cooplang.semantics, "linprog", counting)
        com = build_community(
            CommunityConfig(game=sm_2x2, epsilon=0.1, codebook_k=8), 0)
        plans = {(), *com.codebook.values()}
        for target in com.game.table.trajs:
            speaker_message_dist(com.speakers[0], sm_2x2, target)
        assert 0 < len(solves) <= len(plans) * (len(plans) - 1) // 2

    def test_optimal_message_matches_brute_force(self, noisy_game):
        game, com = noisy_game
        listener = com.listeners[0]
        msgs = enumerate_messages(game, include_null=True)
        behaviours = [behaviour(game, listener, m) for m in msgs]
        for target in com.game.table.trajs:
            scores = [b[target] for b in behaviours]
            want = msgs[scores.index(max(scores))]
            assert optimal_message(listener, game, target) == want

    def test_literal_map_matches_brute_force(self, noisy_game):
        from cooplang import MapConfig, map_target, trajectory_return
        from cooplang.data import InteractionRecord

        game, com = noisy_game
        trajs = enumerate_trajectories(game)
        rng = np.random.default_rng(8)
        for _ in range(30):
            observed = trajs[int(rng.integers(len(trajs)))]
            alpha = float(10 ** rng.uniform(-2, 2))
            rec = InteractionRecord(
                message=NULL_MESSAGE, trajectory=observed, hidden_target=None,
                episode_seed=0, speaker_id="s", listener_id="l")
            scored = [
                (sum(r * game.gamma ** k for k, r in enumerate(t.rewards))
                 - alpha * _edit(t.actions, observed.actions),
                 trajectory_return(t, game.gamma), t.canonical_key)
                for t in trajs
            ]
            want = min(scored, key=lambda s: (-s[0], -s[1], s[2]))[2]
            got = map_target(rec, game, MapConfig(alpha=alpha))
            assert got.canonical_key == want

    def test_semantic_distance_matches_dict_lift(self, noisy_game):
        game, com = noisy_game
        listener = com.listeners[0]
        msgs = enumerate_messages(game, include_null=True)[:12]
        for lift in ("wasserstein1", "total_variation"):
            cfg = DistanceConfig(dist_lift=lift)
            for m1, m2 in itertools.combinations(msgs, 2):
                want = distribution_distance(behaviour(game, listener, m1),
                                             behaviour(game, listener, m2),
                                             cfg)
                assert semantic_distance(listener, game, m1, m2, cfg) == want

    def test_support_cap_raises_on_every_call(self, lewis3):
        listener = ListenerPolicy(
            codebook={"a": ("pick0",), "b": ("pick1",)}, epsilon=0.3)
        a, b = Message(("a",)), Message(("b",))
        d = semantic_distance(listener, lewis3, a, b, DistanceConfig())
        assert d > 0.0
        capped = DistanceConfig(wasserstein_support_cap=2)
        for _ in range(2):
            with pytest.raises(SupportMismatchError, match="3 atoms"):
                semantic_distance(listener, lewis3, a, b, capped)
            with pytest.raises(SupportMismatchError):
                positive_listening_test(listener, lewis3, [b], capped)
        assert semantic_distance(listener, lewis3, a, b, DistanceConfig()) == d


def test_import_leaves_scipy_unloaded():
    """scipy is imported by the first LP, not by `import cooplang`."""
    import subprocess
    import sys

    code = ("import sys, cooplang, cooplang.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def _shuffle_loop(episodes, cfg, seed=0):
    """positive_signalling_test as one shuffle and one MI at a time."""
    from cooplang.semantics import _encode, _mutual_information

    x = _encode([(tuple(obs), tuple(act)) for obs, act, _ in episodes])
    y = _encode([tuple(msg) for _, _, msg in episodes])
    stat = _mutual_information(x, y)

    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(cfg.permutations):
        if _mutual_information(x, rng.permutation(y)) >= stat:
            exceed += 1
    p_value = (1 + exceed) / (1 + cfg.permutations)
    return stat, p_value


def _signalling_inputs(count):
    """Seeded episode lists: few classes, correlated or independent columns."""
    for i in range(count):
        rng = np.random.default_rng([7, i])
        big = i % 64 == 0
        n = int(rng.integers(1000, 3000) if big else rng.integers(30, 120))
        permutations = int(rng.integers(1000, 1501) if big
                           else rng.integers(100, 200))
        nx, ny = (int(k) for k in rng.integers(1, 5, size=2))
        x = rng.integers(nx, size=n)
        rho = rng.choice([0.0, 0.1, 0.3, 1.0])
        y = np.where(rng.random(n) < rho, x % ny, rng.integers(ny, size=n))
        episodes = [((), (f"pick{a}",), (f"m{b}",)) for a, b in zip(x, y)]
        yield episodes, DistanceConfig(permutations=permutations), i


class TestBatchedShuffles:
    def test_matches_the_shuffle_loop(self, monkeypatch):
        import cooplang.semantics

        mi_calls = []
        real = cooplang.semantics._mutual_information

        def counting(x, y):
            mi_calls.append(1)
            return real(x, y)

        p_values = set()
        rechecked = 0
        for episodes, cfg, seed in _signalling_inputs(320):
            want = _shuffle_loop(episodes, cfg, seed)
            mi_calls.clear()
            monkeypatch.setattr(cooplang.semantics, "_mutual_information",
                                counting)
            report = positive_signalling_test(episodes, cfg, seed=seed)
            monkeypatch.undo()
            assert (report.statistic, report.p_value) == want
            p_values.add(report.p_value)
            rechecked += len(mi_calls) > 1
        # ties against the observed statistic were decided by the MI
        assert len(p_values) > 50 and rechecked > 50

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 257])
    def test_permuted_rows_are_successive_permutations(self, n):
        y = np.arange(n) % 3
        for seed in range(4):
            for b in (1, 3, 8):
                ours = np.random.default_rng(seed)
                numpy = np.random.default_rng(seed)
                rows = ours.permuted(np.broadcast_to(y, (b, n)), axis=1)
                want = np.stack([numpy.permutation(y) for _ in range(b)])
                assert np.array_equal(rows, want)
                assert ours.random() == numpy.random()


class TestPointMassBlock:
    def test_no_lift_between_point_masses(self, sm_3x3, monkeypatch):
        from cooplang import CommunityConfig, build_community
        from cooplang.tables import listener_table
        import cooplang.semantics

        lifted = []
        real = cooplang.semantics._lift

        def counting(pv, qv, cost_of, cfg):
            lifted.append(((pv > 0).sum(), (qv > 0).sum(), cfg.dist_lift))
            return real(pv, qv, cost_of, cfg)

        monkeypatch.setattr(cooplang.semantics, "_lift", counting)
        com = build_community(
            CommunityConfig(game=sm_3x3, epsilon=0.0, codebook_k=64), 0)
        table = listener_table(com.listeners[0], sm_3x3)
        rows = np.arange(len(table.P))
        assert (table.nnz == 1).all() and len(rows) > 60
        lifts = ("wasserstein1", "total_variation")
        S = {lift: np.array([distances(table, a, rows,
                                       DistanceConfig(dist_lift=lift))
                             for a in rows]) for lift in lifts}
        assert len(lifted) == len(rows) * (len(rows) - 1) // 2
        assert all(lift == "total_variation" for _, _, lift in lifted)
        behaviours = [dict(zip(table.game.trajs, p)) for p in table.P]
        for lift in lifts:
            cfg = DistanceConfig(dist_lift=lift)
            for b, c in itertools.combinations(rows, 2):
                want = distribution_distance(behaviours[b], behaviours[c], cfg)
                assert S[lift][b, c] == S[lift][c, b] == want


class TestTransportConstraints:
    @staticmethod
    def kron_build(n, m):
        """The constraints by Kronecker products, in the CSC form HiGHS
        takes."""
        import scipy.sparse as sp

        row = sp.kron(sp.eye(n), np.ones((1, m)))
        col = sp.kron(np.ones((1, n)), sp.eye(m))
        return sp.vstack([row, col]).tocsr()[:-1].tocsc()

    def test_same_matrix_as_the_kron_build(self):
        from cooplang.semantics import _transport_constraints

        for n, m in [(1, 2), (2, 1), (2, 2), (3, 5), (25, 25)]:
            ours, want = _transport_constraints(n, m), self.kron_build(n, m)
            assert type(ours) is type(want) and ours.shape == want.shape
            assert ours.dtype == want.dtype
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(ours, field),
                                      getattr(want, field))

    def test_a_solve_leaves_the_cached_matrix_unchanged(self):
        from cooplang.semantics import _lift, _transport_constraints

        pv, qv = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.1, 0.8])
        cost = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d = _lift(pv, qv, lambda p, q: cost[np.ix_(p, q)], DistanceConfig())
        assert d > 0
        cached, want = _transport_constraints(3, 3), self.kron_build(3, 3)
        assert (cached != want).nnz == 0
        assert _lift(pv, qv, lambda p, q: cost[np.ix_(p, q)],
                     DistanceConfig()) == d
