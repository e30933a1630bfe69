"""Scoring the observer in both roles against a community, with baselines.

All evaluations use a paired-seed design: the model and its baselines
consume identical per-episode rng streams, so reported differences are
not sampling artifacts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .community import (
    Community,
    Message,
    enumerate_messages,
    rollout,
    speaker_sample,
    target_prior_sample,
)
from .games import Trajectory
from .inference import BrocaModel, WernickeModel, broca_emit, wernicke_decode
from .rng import pcg64_states, streams
from .schema import RUN, check
from .semantics import optimal_message


@dataclass
class SpeakerReport:
    success_rate: float
    mean_return: float
    baselines: dict
    n: int


@dataclass
class ListenerReport:
    recovery_rate: float
    mean_distance: float
    mean_target_value: float
    literal_baseline: dict
    n: int


SPEAKER_CSV_COLUMNS = [
    "n", "success_rate", "mean_return",
    "oracle_success_rate", "oracle_mean_return",
    "random_success_rate", "random_mean_return",
]

LISTENER_CSV_COLUMNS = [
    "n", "recovery_rate", "mean_distance", "mean_target_value",
    "literal_recovery_rate", "literal_mean_distance",
    "literal_mean_target_value",
]


def report_csv(report) -> str:
    """One header line plus one flat data row, stable column order."""
    if isinstance(report, SpeakerReport):
        columns = SPEAKER_CSV_COLUMNS
        row = [report.n, report.success_rate, report.mean_return,
               report.baselines["oracle"]["success_rate"],
               report.baselines["oracle"]["mean_return"],
               report.baselines["random"]["success_rate"],
               report.baselines["random"]["mean_return"]]
    else:
        columns = LISTENER_CSV_COLUMNS
        row = [report.n, report.recovery_rate, report.mean_distance,
               report.mean_target_value,
               report.literal_baseline["recovery_rate"],
               report.literal_baseline["mean_distance"],
               report.literal_baseline["mean_target_value"]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerow(row)
    return buf.getvalue()


def eval_speaker(broca: BrocaModel, community: Community, n: int,
                 seed: int) -> SpeakerReport:
    """Monte Carlo forward-problem evaluation with oracle/random baselines."""
    check("run", RUN, {"n_episodes": n})
    game = community.game
    table = game.table
    values = table.values.tolist()
    msgs = enumerate_messages(game)
    listener0 = community.listeners[0]

    hits = {"model": 0, "oracle": 0, "random": 0}
    returns = {"model": 0.0, "oracle": 0.0, "random": 0.0}
    emitted: dict[str, Message] = {}
    # every arm replays the same stream: default_rng([seed, i, 1])
    arm_rng = np.random.Generator(np.random.PCG64())
    arm_states = pcg64_states((seed,), n, (1,))
    for rng, arm_state in zip(streams((seed,), n), arm_states):
        target = target_prior_sample(community, rng)
        listener = community.listeners[int(rng.integers(len(community.listeners)))]
        random_msg = msgs[int(rng.integers(len(msgs)))]
        key = target.canonical_key
        if key not in emitted:
            emitted[key] = broca_emit(broca, target)
        arms = {
            "model": emitted[key],
            "oracle": optimal_message(listener0, game, target),
            "random": random_msg,
        }
        # a rollout depends only on the listener, the message and the stream
        rolled: dict[Message, Trajectory] = {}
        for arm, message in arms.items():
            tau = rolled.get(message)
            if tau is None:
                arm_rng.bit_generator.state = arm_state
                tau = rolled[message] = rollout(game, listener, message, arm_rng)
            hits[arm] += tau.canonical_key == key
            returns[arm] += values[table.key_index[tau.canonical_key]]

    def metrics(arm):
        return {"success_rate": hits[arm] / n, "mean_return": returns[arm] / n}

    model = metrics("model")
    return SpeakerReport(
        success_rate=model["success_rate"],
        mean_return=model["mean_return"],
        baselines={"oracle": metrics("oracle"), "random": metrics("random")},
        n=n,
    )


def eval_listener(wernicke: WernickeModel, community: Community, n: int,
                  seed: int) -> ListenerReport:
    """Monte Carlo backward-problem evaluation against ground-truth targets."""
    check("run", RUN, {"n_episodes": n})
    game = community.game
    table = game.table
    values = table.values.tolist()

    hits = {"model": 0, "literal": 0}
    dists = {"model": 0.0, "literal": 0.0}
    target_values = {"model": 0.0, "literal": 0.0}
    episodes = zip(streams((seed,), n), streams((seed,), n, (1,)))
    for rng, rollout_rng in episodes:
        target = target_prior_sample(community, rng)
        speaker = community.speakers[int(rng.integers(len(community.speakers)))]
        listener = community.listeners[int(rng.integers(len(community.listeners)))]
        message = speaker_sample(speaker, game, target, rng)
        observed = rollout(game, listener, message, rollout_rng)
        estimates = {
            "model": wernicke_decode(wernicke, message),
            "literal": observed,
        }
        # estimates and targets are table trajectories: read D and V
        t = table.key_index[target.canonical_key]
        for arm, est in estimates.items():
            e = table.key_index[est.canonical_key]
            hits[arm] += e == t
            dists[arm] += float(table.row(e)[t])
            target_values[arm] += values[e]

    def metrics(arm):
        return {
            "recovery_rate": hits[arm] / n,
            "mean_distance": dists[arm] / n,
            "mean_target_value": target_values[arm] / n,
        }

    model = metrics("model")
    return ListenerReport(
        recovery_rate=model["recovery_rate"],
        mean_distance=model["mean_distance"],
        mean_target_value=model["mean_target_value"],
        literal_baseline=metrics("literal"),
        n=n,
    )
