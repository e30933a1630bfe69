import dataclasses
import json

import numpy as np
import pytest

from cooplang import (
    GameSpec,
    ListenerPolicy,
    Message,
    enumerate_trajectories,
    game_fingerprint,
    lewis_game,
    make_trajectory,
    step,
    supermarket_game,
    trajectory_return,
)
from cooplang.errors import (
    ConfigError,
    EnumerationCapError,
    InvalidActionError,
    TerminalStateError,
)
from cooplang.games import state_digest
from reference import rollout


class TestStep:
    def test_wall_clamp_keeps_agent_in_place(self, sm_2x2):
        out = step(sm_2x2, (0, 0, frozenset()), "W")
        assert out.next_state == (0, 0, frozenset())
        assert out.reward == -0.05

    def test_pick_on_listed_item_cell_collects(self, sm_2x2):
        out = step(sm_2x2, (1, 1, frozenset()), "pick")
        assert out.next_state == (1, 1, frozenset({"milk"}))
        assert out.reward == 1.0

    def test_pick_off_item_cell_is_a_penalty_step(self, sm_2x2):
        out = step(sm_2x2, (0, 1, frozenset()), "pick")
        assert out.next_state == (0, 1, frozenset())
        assert out.reward == -0.05

    def test_lewis_correct_pick_rewards(self, lewis3):
        out = step(lewis3, ("start",), "pick0")
        assert out.reward == 1.0
        assert out.next_state == ("picked", 0)

    def test_lewis_wrong_pick_rewards_zero(self, lewis3):
        assert step(lewis3, ("start",), "pick2").reward == 0.0

    def test_unknown_action_rejected(self, lewis3):
        with pytest.raises(InvalidActionError):
            step(lewis3, ("start",), "jump")

    def test_terminal_state_rejected(self, lewis3):
        with pytest.raises(TerminalStateError):
            step(lewis3, ("picked", 1), "pick0")


class TestEnumerate:
    def test_lewis_has_one_trajectory_per_candidate(self, lewis3):
        trajs = enumerate_trajectories(lewis3)
        assert [t.actions for t in trajs] == [("pick0",), ("pick1",), ("pick2",)]

    def test_horizon_one_supermarket_has_five(self, sm_2x2):
        game = supermarket_game(
            2, 2, {"milk": (1, 1)}, ["milk"], (0, 0), 1, tuple("abcd"))
        assert len(enumerate_trajectories(game)) == 5

    def test_horizon_two_no_early_termination_is_25(self, sm_2x2):
        assert len(enumerate_trajectories(sm_2x2)) == 25

    def test_early_termination_truncates_branches(self):
        game = supermarket_game(
            2, 2, {"milk": (0, 0)}, ["milk"], (0, 0), 2, tuple("abcd"))
        trajs = enumerate_trajectories(game)
        # "pick" at the start collects immediately and ends the episode
        assert any(t.actions == ("pick",) for t in trajs)
        assert len(trajs) < 25

    def test_cap_exceeded_names_the_bound(self, sm_2x2):
        with pytest.raises(EnumerationCapError, match="cap is 10"):
            enumerate_trajectories(sm_2x2, cap=10)

    def test_huge_horizon_hits_the_cap_at_once(self):
        game = supermarket_game(2, 2, {"milk": (1, 1)}, ["milk"], (0, 0),
                                10**6, ("a",))
        with pytest.raises(EnumerationCapError, match="cap is 100000"):
            game.table

    def test_long_messages_hit_the_cap_at_once(self):
        import time
        from cooplang import enumerate_messages
        # 1**L never passes the |vocab|^L check, so only the sum can
        game = lewis_game(vocab=("a",), max_msg_len=10**9)
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="messages"):
            enumerate_messages(game)
        assert time.perf_counter() - start < 2.0  # not 10**9 terms

    def test_deterministic_ordering(self, sm_2x2):
        a = enumerate_trajectories(sm_2x2)
        b = enumerate_trajectories(sm_2x2)
        assert a == b
        assert [t.canonical_key for t in a] == sorted(t.canonical_key for t in a)

    def test_actions_are_built_once(self, sm_2x2):
        """A read of `actions` keeps its tuple; equality, hash and repr of
        two equal trajectories stay as they were."""
        for t in enumerate_trajectories(sm_2x2):
            fresh = make_trajectory(sm_2x2, t.actions)
            assert t.actions is t.actions
            assert t == fresh and hash(t) == hash(fresh)
            assert repr(t) == repr(fresh)
            assert fresh.actions == t.actions  # now both have read it
            assert t == fresh and hash(t) == hash(fresh)


class TestReturns:
    def test_discounted_sum(self, lewis3):
        tau = make_trajectory(lewis3, ["pick0"])
        fake = tau.__class__(
            steps=(("s", "x", 1.0), ("s", "x", 1.0), ("s", "x", 1.0)),
            canonical_key="k", game_fingerprint="f")
        assert trajectory_return(fake, 0.5) == pytest.approx(1.75, abs=1e-15)

    def test_empty_trajectory_is_zero(self):
        from cooplang import Trajectory
        empty = Trajectory(steps=(), canonical_key="k", game_fingerprint="f")
        assert trajectory_return(empty, 0.9) == 0.0

    def test_gamma_zero_keeps_first_reward(self):
        from cooplang import Trajectory
        tau = Trajectory(steps=(("s", "x", 2.0), ("s", "x", 9.0)),
                         canonical_key="k", game_fingerprint="f")
        assert trajectory_return(tau, 0.0) == 2.0

    def test_linearity_in_rewards(self, sm_2x2):
        from cooplang import Trajectory
        rng = np.random.default_rng(7)
        for _ in range(50):
            rewards = rng.normal(size=4)
            c = rng.uniform(0.5, 3.0)
            steps = tuple(("s", "x", float(r)) for r in rewards)
            scaled = tuple(("s", "x", float(c * r)) for r in rewards)
            t1 = Trajectory(steps=steps, canonical_key="k", game_fingerprint="f")
            t2 = Trajectory(steps=scaled, canonical_key="k", game_fingerprint="f")
            g = float(rng.uniform(0, 1))
            assert abs(c * trajectory_return(t1, g)
                       - trajectory_return(t2, g)) < 1e-12

    def test_lewis_exactly_one_rewarding_trajectory(self, lewis3):
        returns = [trajectory_return(t, lewis3.gamma)
                   for t in enumerate_trajectories(lewis3)]
        assert sorted(returns) == [0.0, 0.0, 1.0]


class TestRollout:
    def test_codebook_listener_follows_plan(self, lewis3, codebook_listener):
        tau = rollout(lewis3, codebook_listener, Message(("b",)),
                      np.random.default_rng(0))
        assert tau.actions == ("pick1",)

    def test_horizon_zero_yields_empty_trajectory(self):
        game = supermarket_game(
            2, 2, {"milk": (1, 1)}, ["milk"], (0, 0), 0, tuple("abcd"))
        listener = ListenerPolicy(codebook={}, epsilon=0.0)
        tau = rollout(game, listener, Message(("a",)), np.random.default_rng(0))
        assert len(tau) == 0

    def test_rng_determinism(self, lewis3):
        listener = ListenerPolicy(
            codebook={"b": ("pick1",)}, epsilon=0.1)
        t1 = rollout(lewis3, listener, Message(("b",)), np.random.default_rng(3))
        t2 = rollout(lewis3, listener, Message(("b",)), np.random.default_rng(3))
        assert t1 == t2

    def test_rollouts_land_in_enumeration(self, sm_2x2):
        listener = ListenerPolicy(
            codebook={"a": ("E", "S")}, epsilon=0.3)
        keys = {t.canonical_key for t in enumerate_trajectories(sm_2x2)}
        rng = np.random.default_rng(11)
        for _ in range(1000):
            tau = rollout(sm_2x2, listener, Message(("a",)), rng)
            assert tau.canonical_key in keys


class TestGameJson:
    def test_round_trip(self, sm_3x3, lewis3):
        for game in (sm_3x3, lewis3):
            doc = json.loads(json.dumps(game.to_json_dict()))
            back = GameSpec.from_json_dict(doc)
            assert back.to_json_dict() == game.to_json_dict()
            assert game_fingerprint(back) == game_fingerprint(game)

    def test_unknown_fields_rejected(self, lewis3):
        doc = lewis3.to_json_dict()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            GameSpec.from_json_dict(doc)

    def test_missing_fields_rejected(self, lewis3):
        doc = lewis3.to_json_dict()
        del doc["gamma"]
        with pytest.raises(ConfigError, match="gamma"):
            GameSpec.from_json_dict(doc)

    def test_invalid_layout_rejected(self):
        with pytest.raises(ConfigError):
            supermarket_game(2, 2, {"milk": (5, 5)}, ["milk"], (0, 0), 2,
                             tuple("ab"))
        with pytest.raises(ConfigError):
            lewis_game(n_candidates=3, target=7)

    def test_digest_injective_over_reachable_states(self, sm_2x2):
        seen = {}
        for tau in enumerate_trajectories(sm_2x2):
            state = sm_2x2.initial_state()
            for digest, action, _ in tau.steps:
                assert state_digest(sm_2x2, state) == digest
                state = step(sm_2x2, state, action).next_state
            seen.setdefault(state_digest(sm_2x2, state), state)
        for digest, state in seen.items():
            assert state_digest(sm_2x2, state) == digest


class TestFrozenGame:
    # the benchmark's games, as their configs give them
    LEWIS_4 = {
        "kind": "lewis", "vocab": ["a", "b", "c", "d"], "max_msg_len": 2,
        "horizon": 1, "gamma": 1.0, "reward_params": {"pick_reward": 1.0},
        "layout": {"candidates": ["cand0", "cand1", "cand2", "cand3"],
                   "target": 0},
    }
    SUPERMARKET_2X2 = {
        "kind": "supermarket", "vocab": ["a", "b", "c"], "max_msg_len": 2,
        "horizon": 2, "gamma": 1.0,
        "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
        "layout": {"width": 2, "height": 2, "items": {"milk": [1, 1]},
                   "shopping_list": ["milk"], "start": [0, 0]},
    }
    SUPERMARKET_3X3 = {
        "kind": "supermarket",
        "vocab": ["a", "b", "c", "d", "e", "f", "g", "h"],
        "max_msg_len": 2, "horizon": 3, "gamma": 1.0,
        "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
        "layout": {"width": 3, "height": 3,
                   "items": {"milk": [0, 1], "bread": [2, 2]},
                   "shopping_list": ["milk", "bread"], "start": [0, 0]},
    }

    def test_fields_cannot_be_assigned(self, lewis3):
        with pytest.raises(dataclasses.FrozenInstanceError):
            lewis3.horizon = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            lewis3.fingerprint = "0" * 16

    def test_layout_and_rewards_are_read_only(self, lewis3, sm_3x3):
        with pytest.raises(TypeError):
            lewis3.layout["target"] = 1
        with pytest.raises(TypeError):
            lewis3.reward_params["pick_reward"] = 2.0
        with pytest.raises(TypeError):
            sm_3x3.layout["items"]["milk"] = (1, 1)
        assert isinstance(sm_3x3.layout["shopping_list"], tuple)

    def test_input_mappings_are_copied(self):
        layout = {"candidates": ["x", "y"], "target": 0}
        game = GameSpec(kind="lewis", vocab=("a",), max_msg_len=1, horizon=1,
                        gamma=1.0, reward_params={"pick_reward": 1.0},
                        layout=layout)
        fp = game_fingerprint(game)
        layout["candidates"].append("z")
        assert game.layout["candidates"] == ("x", "y")
        assert game_fingerprint(game) == fp

    def test_json_round_trip_is_equal(self, lewis3, sm_3x3):
        for game in (lewis3, sm_3x3):
            doc = json.loads(json.dumps(game.to_json_dict()))
            assert GameSpec.from_json_dict(doc) == game

    def test_replace_recomputes_the_fingerprint(self, lewis3):
        changed = dataclasses.replace(lewis3, gamma=0.5)
        assert game_fingerprint(changed) != game_fingerprint(lewis3)
        assert game_fingerprint(changed) == game_fingerprint(
            lewis_game(gamma=0.5))

    def test_table_is_built_once(self, lewis3):
        assert lewis3.table is lewis3.table
        assert lewis3.table.game is lewis3

    def test_replace_gets_a_fresh_table(self, lewis3):
        table = lewis3.table
        changed = dataclasses.replace(
            lewis3, layout={"candidates": ["x", "y"], "target": 1})
        assert changed.table is not table
        assert changed.table.game is changed
        assert [t.canonical_key for t in changed.table.trajs] == [
            "start::pick0", "start::pick1"]
        assert lewis3.table is table

    def test_fingerprints_are_pinned(self):
        assert game_fingerprint(lewis_game()) == "82959ab911cb0bbf"
        for doc, fp in ((self.LEWIS_4, "190c33550a6ccfeb"),
                        (self.SUPERMARKET_2X2, "25e6ce2699d86358"),
                        (self.SUPERMARKET_3X3, "10eeb57d5dadbadb")):
            assert game_fingerprint(GameSpec.from_json_dict(doc)) == fp
