"""All episodes at once: the batch runs equal one-episode references.

`collect`, `eval_speaker` and `eval_listener` draw every episode together
on a `PCG64Array`. Each test here replays the same episodes one at a time
on fresh `default_rng` generators through the references
`target_prior_sample`, `speaker_sample` and `rollout` (tests/reference.py,
which draw categories with numpy's own `Generator.choice`), summing reports
in episode order, and requires the same records and the same report bits.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from cooplang import (
    CommunityConfig,
    ListenerPolicy,
    MapConfig,
    broca_emit,
    build_community,
    collect,
    enumerate_messages,
    eval_listener,
    eval_speaker,
    fit_broca,
    fit_wernicke,
    lewis_game,
    optimal_message,
    supermarket_game,
    wernicke_decode,
)
import cooplang
from cooplang import community as community_module
from cooplang.data import InteractionRecord
from cooplang.errors import InvalidActionError
from cooplang.evaluation import ListenerReport, SpeakerReport
from reference import rollout, speaker_sample, target_prior_sample

GAMES = {
    # four actions and 20 messages
    "lewis": (lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"),
                         max_msg_len=2), {}),
    # two noised steps per episode
    "sm2x2": (supermarket_game(
        width=2, height=2, items={"milk": (1, 1)}, shopping_list=["milk"],
        start=(0, 0), horizon=2, vocab=tuple("abcdefgh"), max_msg_len=2),
        {"codebook_k": 8}),
    # up to three noised steps, and episodes that end early
    "sm3x3": (supermarket_game(
        width=3, height=3, items={"milk": (0, 1), "bread": (2, 2)},
        shopping_list=["milk", "bread"], start=(0, 0), horizon=3,
        vocab=tuple("abcdefgh"), max_msg_len=2), {"codebook_k": 3}),
}
CASES = [(game, eps, False) for game in GAMES for eps in (0.0, 0.1, 0.5)]
CASES += [("lewis", 0.5, True), ("sm2x2", 0.1, True)]


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{g}-eps{e}" + "-greedy" * greedy
                     for g, e, greedy in CASES])
def run(request):
    name, epsilon, greedy = request.param
    game, extra = GAMES[name]
    community = build_community(CommunityConfig(
        game=game, epsilon=epsilon, temp_msg=1.0, n_speakers=3,
        n_listeners=2, greedy_msg=greedy, greedy_target=greedy, **extra),
        seed=4)
    dataset = collect(community, 150, 8)
    return (community, fit_broca(dataset, game),
            fit_wernicke(dataset, game, MapConfig(alpha=1.0)))


def streams(seed, n, suffix=()):
    """Episode i's generator, default_rng([seed, i, *suffix]), for i < n."""
    return (np.random.default_rng([seed, i, *suffix]) for i in range(n))


def episode_draws(community, rng):
    """An episode's target, speaker, listener and message, as collect draws."""
    target = target_prior_sample(community, rng)
    s = int(rng.integers(len(community.speakers)))
    j = int(rng.integers(len(community.listeners)))
    message = speaker_sample(community.speakers[s], community.game, target,
                             rng)
    return target, s, j, message


def loop_collect(community, n, seed):
    records = []
    for i, rng in enumerate(streams(seed, n)):
        target, s, j, message = episode_draws(community, rng)
        tau = rollout(community.game, community.listeners[j], message, rng)
        records.append(InteractionRecord(message, tau, target, i,
                                         f"speaker{s}", f"listener{j}"))
    return records


def loop_eval_speaker(broca, community, n, seed):
    game, table = community.game, community.game.table
    msgs = enumerate_messages(game)
    hits = {"model": 0, "oracle": 0, "random": 0}
    returns = dict.fromkeys(hits, 0.0)
    for i, rng in enumerate(streams(seed, n)):
        target = target_prior_sample(community, rng)
        listener = community.listeners[int(rng.integers(
            len(community.listeners)))]
        arms = {"model": broca_emit(broca, target),
                "oracle": optimal_message(community.listeners[0], game,
                                          target),
                "random": msgs[int(rng.integers(len(msgs)))]}
        for arm, message in arms.items():
            # every arm rolls out from the same fresh arm stream
            arm_rng = np.random.default_rng([seed, i, 1])
            tau = rollout(game, listener, message, arm_rng)
            hits[arm] += tau == target
            returns[arm] += table.values[table.key_index[tau.canonical_key]]
    arm = {a: {"success_rate": hits[a] / n, "mean_return": returns[a] / n}
           for a in hits}
    return SpeakerReport(**arm["model"], n=n, baselines={
        "oracle": arm["oracle"], "random": arm["random"]})


def loop_eval_listener(wernicke, community, n, seed):
    game, table = community.game, community.game.table
    hits = {"model": 0, "literal": 0}
    dists = dict.fromkeys(hits, 0.0)
    values = dict.fromkeys(hits, 0.0)
    for rng, rollout_rng in zip(streams(seed, n), streams(seed, n, (1,))):
        target, _, j, message = episode_draws(community, rng)
        observed = rollout(game, community.listeners[j], message, rollout_rng)
        t = table.key_index[target.canonical_key]
        for arm, est in (("model", wernicke_decode(wernicke, message)),
                         ("literal", observed)):
            e = table.key_index[est.canonical_key]
            hits[arm] += e == t
            dists[arm] += float(table.row(e)[t])
            values[arm] += float(table.values[e])
    arm = {a: {"recovery_rate": hits[a] / n, "mean_distance": dists[a] / n,
               "mean_target_value": values[a] / n} for a in hits}
    return ListenerReport(**arm["model"], literal_baseline=arm["literal"],
                          n=n)


def report_bytes(report) -> str:
    return json.dumps(asdict(report), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 13])
def test_collect_equals_the_episode_loop(run, seed):
    community, _, _ = run
    assert collect(community, 300, seed).records == loop_collect(
        community, 300, seed)


def assert_eval_speaker_equals_the_episode_loop(broca, community, n, seed):
    assert report_bytes(eval_speaker(broca, community, n, seed)) == \
        report_bytes(loop_eval_speaker(broca, community, n, seed))


@pytest.mark.parametrize("seed", [0, 13])
def test_eval_speaker_equals_the_episode_loop(run, seed):
    community, broca, _ = run
    assert_eval_speaker_equals_the_episode_loop(broca, community, 300, seed)


def test_eval_speaker_equals_the_episode_loop_on_default_lewis():
    # the 3-candidate Lewis game at epsilon 0, one speaker and one listener
    community = build_community(CommunityConfig(game=lewis_game()), 0)
    broca = fit_broca(collect(community, 300, 0), community.game)
    assert_eval_speaker_equals_the_episode_loop(broca, community, 400, 7)


@pytest.mark.parametrize("seed", [0, 13])
def test_eval_listener_equals_the_episode_loop(run, seed):
    community, _, wernicke = run
    assert report_bytes(eval_listener(wernicke, community, 300, seed)) == \
        report_bytes(loop_eval_listener(wernicke, community, 300, seed))


def test_trie_leaves_are_the_trajectories():
    for game, _ in GAMES.values():
        table = game.table
        child, leaf = table._trie
        assert sorted(leaf[leaf >= 0].tolist()) == list(range(len(table.trajs)))
        for i, n in enumerate(table.lengths.tolist()):
            node = 0
            for a in table.ids[i, :n].tolist():
                assert leaf[node] < 0
                node = child[node, a]
            assert leaf[node] == i
        # every inner node has every child
        assert (child[leaf < 0] >= 0).all() and (child[leaf >= 0] < 0).all()


@pytest.mark.parametrize("plan", ["codebook", "default"])
def test_a_plan_action_the_game_lacks_is_invalid(plan):
    game, _ = GAMES["lewis"]
    community = build_community(CommunityConfig(game=game, epsilon=0.1), 0)
    codebook = dict(community.codebook)
    if plan == "codebook":
        codebook[next(iter(codebook))] = ("fly",)
    community.listeners = [ListenerPolicy(
        codebook=codebook, epsilon=0.1,
        default_plan=("fly",) if plan == "default" else ())]
    with pytest.raises(InvalidActionError, match="'fly'"):
        collect(community, 50, 0)


@pytest.mark.parametrize("step", ["collect", "eval_speaker", "eval_listener"])
def test_no_per_episode_calls_or_generators(run, monkeypatch, step):
    community, broca, wernicke = run
    built = []
    for name in ("PCG64", "Generator", "default_rng"):
        real = getattr(np.random, name)
        monkeypatch.setattr(np.random, name,
                            lambda *a, _real=real, **k: built.append(_real)
                            or _real(*a, **k))
    {"collect": lambda: collect(community, 200, 5),
     "eval_speaker": lambda: eval_speaker(broca, community, 200, 5),
     "eval_listener": lambda: eval_listener(wernicke, community, 200, 5),
     }[step]()
    assert built == []


def test_the_batch_kernels_are_the_only_episode_simulator():
    # the one-episode draws live on only as tests/reference.py's references
    removed = ("rollout", "speaker_sample", "target_prior_sample", "_draw")
    assert [n for n in removed if hasattr(cooplang, n)
            or hasattr(community_module, n)] == []
