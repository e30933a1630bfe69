"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line on success. Brute-force scorers here
are written independently of the library internals: their own edit
distance, their own discounted returns, their own plan-execution
probabilities.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import cooplang as cl
from cooplang import (
    CommunityConfig,
    DistanceConfig,
    ListenerPolicy,
    MapConfig,
    Message,
)
from cooplang.community import speaker_message_dist
from cooplang.data import InteractionRecord
from cooplang.errors import DatasetParseError, FingerprintMismatchError
from cooplang.tables import listener_table


# --- independent oracle helpers (no library internals) ----------------------

def _lev(a, b):
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _dist(a, b):
    return 0.0 if a == b else _lev(a, b) / max(len(a), len(b), 1)


def _ret(rewards, gamma):
    return sum(r * gamma ** k for k, r in enumerate(rewards))


def _plan_prob(game, plan, actions, epsilon):
    pad = "pick" if game.kind == "supermarket" else game.env_actions[0]
    p = 1.0
    for k, a in enumerate(actions):
        planned = plan[k] if k < len(plan) else pad
        p *= (1 - epsilon) * (a == planned) + epsilon / len(game.env_actions)
    return p


def _fake_record(message, trajectory):
    return InteractionRecord(message=message, trajectory=trajectory,
                             hidden_target=None, episode_seed=0,
                             speaker_id="s", listener_id="l")


@pytest.fixture(scope="module")
def games():
    lewis4 = cl.lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"))
    sm = cl.supermarket_game(2, 2, {"milk": (1, 1)}, ["milk"], (0, 0), 2,
                             tuple("abcdefgh"), 2)
    return lewis4, sm


def test_criterion_1_map_oracle_equivalence(games):
    start = time.monotonic()
    lewis4, sm = games
    rng = np.random.default_rng(0)
    checked = 0
    for game in (lewis4, sm):
        trajs = cl.enumerate_trajectories(game)
        assert len(trajs) <= 64
        msgs = cl.enumerate_messages(game)
        com = cl.build_community(
            CommunityConfig(game=game, epsilon=0.2, codebook_k=8), 0)
        listener = com.listeners[0]
        model = listener_table(listener, game)
        for _ in range(25):
            observed = trajs[int(rng.integers(len(trajs)))]
            message = msgs[int(rng.integers(len(msgs)))]
            alpha = float(10 ** rng.uniform(-3, 3))
            rec = _fake_record(message, observed)
            for variant in ("literal", "expected"):
                got = cl.map_target(rec, game,
                                    MapConfig(alpha=alpha, variant=variant),
                                    listener_model=model)
                # independent exhaustive scoring
                plan = listener.plan_for(message)
                scored = []
                for cand in trajs:
                    if variant == "literal":
                        d = _dist(cand.actions, observed.actions)
                    else:
                        d = sum(
                            _plan_prob(game, plan, t.actions, listener.epsilon)
                            * _dist(cand.actions, t.actions)
                            for t in trajs)
                    v = _ret(cand.rewards, game.gamma)
                    scored.append((v - alpha * d, v, cand.canonical_key))
                want = min(scored, key=lambda s: (-s[0], -s[1], s[2]))[2]
                assert got.canonical_key == want
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 100 and elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS - MAP matches brute force on {checked} cases "
          f"({elapsed:.1f}s)")


def test_criterion_2_alpha_limits(games):
    start = time.monotonic()
    lewis4, _ = games
    # a supermarket with a unique return-maximal trajectory (S then pick)
    sm = cl.supermarket_game(2, 2, {"milk": (0, 1)}, ["milk"], (0, 0), 2,
                             tuple("abcd"))
    for game in (lewis4, sm):
        trajs = cl.enumerate_trajectories(game)
        values = [cl.trajectory_return(t, game.gamma) for t in trajs]
        best = trajs[int(np.argmax(values))]
        assert values.count(max(values)) == 1
        for observed in trajs:
            rec = _fake_record(Message(()), observed)
            big = cl.map_target(rec, game, MapConfig(alpha=1e3))
            assert big == observed
            small = cl.map_target(rec, game, MapConfig(alpha=1e-6))
            assert small == best
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2: PASS - alpha limits exact ({elapsed:.1f}s)")


def test_criterion_3_boltzmann_normalization(games):
    lewis4, sm = games
    cfg = DistanceConfig()
    for game in (lewis4, sm):
        com = cl.build_community(CommunityConfig(game=game, codebook_k=8), 1)
        listener = com.listeners[0]
        speaker = com.speakers[0]
        msgs = cl.enumerate_messages(game)
        for target in com.game.table.trajs:
            _, probs = speaker_message_dist(speaker, game, target)
            assert abs(probs.sum() - 1.0) < 1e-9
            total = sum(
                cl.boltzmann_message_likelihood(listener, game, m, target, cfg)
                for m in msgs)
            assert abs(total - 1.0) < 1e-9
    print("ACCEPTANCE 3: PASS - speaker and likelihood distributions "
          "normalize to 1 +/- 1e-9")


def test_criterion_4_semantic_pseudo_metric(games):
    lewis4, sm = games
    rng = np.random.default_rng(2)
    for game, epsilon in ((lewis4, 0.3), (sm, 0.0)):
        com = cl.build_community(
            CommunityConfig(game=game, epsilon=epsilon, codebook_k=8), 3)
        listener = com.listeners[0]
        cfg = DistanceConfig()
        msgs = cl.enumerate_messages(game, include_null=True)
        for m in msgs:
            assert cl.semantic_distance(listener, game, m, m, cfg) == 0.0
        for _ in range(1000):
            x, y, z = (msgs[i] for i in rng.integers(len(msgs), size=3))
            dxy = cl.semantic_distance(listener, game, x, y, cfg)
            assert dxy == cl.semantic_distance(listener, game, y, x, cfg)
            dxz = cl.semantic_distance(listener, game, x, z, cfg)
            dyz = cl.semantic_distance(listener, game, y, z, cfg)
            assert dxz <= dxy + dyz + 1e-12
    print("ACCEPTANCE 4: PASS - semantic distance is a pseudo-metric "
          "(identity/symmetry exact, triangle within 1e-12)")


def test_criterion_5_detector_calibration(lewis3):
    start = time.monotonic()
    # codebook community: strong detection
    com = cl.build_community(CommunityConfig(game=lewis3), 0)
    dataset = cl.collect(com, 300, master_seed=4)
    episodes = [((), r.trajectory.actions, (r.message.canonical(),))
                for r in dataset.records]
    report = cl.positive_signalling_test(
        episodes, DistanceConfig(permutations=1000))
    assert report.detected and report.p_value <= 0.01

    # null calibration: uniformly random speakers
    rng = np.random.default_rng(5)
    cfg = DistanceConfig(permutations=300)
    p_values = []
    for run in range(200):
        null_eps = [((), (f"pick{rng.integers(3)}",),
                     (str(rng.choice(["a", "b", "c"])),)) for _ in range(50)]
        p_values.append(
            cl.positive_signalling_test(null_eps, cfg, seed=run).p_value)
    false_rate = np.mean([p < 0.05 for p in p_values])
    assert false_rate <= 0.07
    # p-values approximately uniform under the null
    ks = max(abs(np.mean([p <= t for p in p_values]) - t)
             for t in np.linspace(0.01, 0.99, 99))
    assert ks < 0.15

    # message-blind listener: statistic exactly zero
    blind = ListenerPolicy(codebook={}, epsilon=0.0)
    listening = cl.positive_listening_test(
        blind, lewis3, cl.enumerate_messages(lewis3), DistanceConfig())
    assert listening.statistic == 0.0 and not listening.detected

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5: PASS - detection p={report.p_value:.4f}, null "
          f"false-rate {false_rate:.3f}, KS {ks:.3f}, blind statistic 0 "
          f"({elapsed:.1f}s)")


def test_criterion_6_noiseless_round_trip():
    # value gap (0.9) strictly below the minimum trajectory distance (1.0),
    # so alpha = 1 already separates the observed trajectory without ties
    game = cl.lewis_game(pick_reward=0.9)
    com = cl.build_community(
        CommunityConfig(game=game, epsilon=0.0, greedy_msg=True), 0)
    dataset = cl.collect(com, 300, master_seed=6)
    broca = cl.fit_broca(dataset, game)
    speaker_report = cl.eval_speaker(broca, com, n=300, seed=7)
    assert speaker_report.success_rate == 1.0
    for alpha in (1.0, 2.0, 10.0, 1000.0):
        wernicke = cl.fit_wernicke(dataset, game, MapConfig(alpha=alpha))
        listener_report = cl.eval_listener(wernicke, com, n=300, seed=7)
        assert listener_report.recovery_rate == 1.0
    print("ACCEPTANCE 6: PASS - noiseless round trip perfect in both roles "
          "for every alpha >= 1 tested")


# margins recorded from the oracle run at seed 42, n=2000 (regression constants)
DENOISING_MARGINS = {"lewis": 0.0090, "supermarket": 0.0110}


def test_criterion_7_denoising_beats_literal():
    start = time.monotonic()
    lewis = cl.lewis_game()
    sm = cl.supermarket_game(3, 3, {"milk": (0, 1), "bread": (2, 2)},
                             ["milk", "bread"], (0, 0), 3,
                             tuple("abcdefgh"), 2)
    margins = {}
    for name, game in (("lewis", lewis), ("supermarket", sm)):
        com = cl.build_community(CommunityConfig(game=game, temp_msg=1.0), 42)
        dataset = cl.collect(com, 2000, master_seed=42)
        wernicke = cl.fit_wernicke(dataset, game, MapConfig(alpha=1.0))
        report = cl.eval_listener(wernicke, com, n=2000, seed=42)
        assert report.recovery_rate >= report.literal_baseline["recovery_rate"]
        margins[name] = (report.recovery_rate
                         - report.literal_baseline["recovery_rate"])
        assert margins[name] == pytest.approx(DENOISING_MARGINS[name],
                                              abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    print(f"ACCEPTANCE 7: PASS - denoising margins {margins} ({elapsed:.1f}s)")


def test_criterion_8_dataset_persistence(lewis3, tmp_path):
    com = cl.build_community(CommunityConfig(game=lewis3, temp_msg=1.0), 0)
    for seed in range(100):
        dataset = cl.collect(com, 10, master_seed=seed)
        path = tmp_path / f"d{seed}.jsonl"
        cl.save(dataset, path)
        back = cl.load(path, game=lewis3)
        assert back.records == dataset.records
        assert back.meta == dataset.meta

    path = tmp_path / "d0.jsonl"
    other = cl.lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"))
    with pytest.raises(FingerprintMismatchError):
        cl.load(path, game=other)
    text = path.read_text()
    path.write_text(text[:-30])
    with pytest.raises(DatasetParseError, match="line 11"):
        cl.load(path)
    print("ACCEPTANCE 8: PASS - 100 round trips structural, error contracts "
          "honored")


def test_criterion_9_artifact_determinism(tmp_path):
    config = {
        "game": cl.lewis_game().to_json_dict(),
        "community": {"temp_msg": 1.0},
        "inference": {"alpha": 2.0},
        "run": {"n_episodes": 100, "seed": 11},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    artifacts = ["community.json", "dataset.jsonl", "broca.json",
                 "wernicke.json", "report.json", "report.csv"]

    def pipeline(out):
        for cmd in ("gen-community", "collect", "fit-broca", "fit-wernicke",
                    "eval-listener"):
            code = subprocess.run(
                [sys.executable, "-m", "cooplang.cli", cmd,
                 "--config", str(cfg_path), "--out", str(out), "--canonical"],
                capture_output=True).returncode
            assert code == 0
        return {a: (out / a).read_bytes() for a in artifacts}

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first == second
    print("ACCEPTANCE 9: PASS - all artifacts byte-identical across runs")
