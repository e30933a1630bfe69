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

from .community import Community, _rollouts, _sample_messages, _sample_targets
from .games import validate_message
from .inference import BrocaModel, WernickeModel, broca_emit, wernicke_decode
from .rng import PCG64Array
from .schema import RUN, check
from .tables import listener_table


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


def _ordered_sum(values) -> float:
    """0.0 + values[0] + values[1] + ..., left to right, as a loop adds them."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def eval_speaker(broca: BrocaModel, community: Community, n: int,
                 seed: int) -> SpeakerReport:
    """Monte Carlo forward-problem evaluation with oracle/random baselines.

    Episode i draws its target, listener and random message from
    default_rng([seed, i]); each arm's message is rolled out from the same
    default_rng([seed, i, 1]). All episodes are drawn at once.
    """
    check("run", RUN, {"n_episodes": n})
    game = community.game
    table = game.table
    rng = PCG64Array((seed,), n)
    targets = _sample_targets(community, rng)
    listeners = rng.integers(len(community.listeners))
    random_msgs = 1 + rng.integers(len(table.messages) - 1)

    # each distinct target's model message, in episode order
    distinct, first, where = np.unique(targets, return_index=True,
                                       return_inverse=True)
    model = np.empty(len(distinct), np.int64)
    for g in np.argsort(first).tolist():
        message = broca_emit(broca, table.trajs[distinct[g]])
        validate_message(game, message)
        model[g] = table.message_ids[message.canonical()]

    arm_rng = PCG64Array((seed,), n, (1,))
    oracle = listener_table(community.listeners[0], game).mstar[targets]
    arms = {"model": model[where], "oracle": oracle, "random": random_msgs}
    metrics = {}
    for arm, messages in arms.items():
        taus = _rollouts(community, listeners, messages, arm_rng.copy())
        metrics[arm] = {
            "success_rate": int(np.count_nonzero(taus == targets)) / n,
            "mean_return": _ordered_sum(table.values[taus]) / n,
        }
    return SpeakerReport(
        success_rate=metrics["model"]["success_rate"],
        mean_return=metrics["model"]["mean_return"],
        baselines={"oracle": metrics["oracle"], "random": metrics["random"]},
        n=n,
    )


def eval_listener(wernicke: WernickeModel, community: Community, n: int,
                  seed: int) -> ListenerReport:
    """Monte Carlo backward-problem evaluation against ground-truth targets.

    Episode i draws its target, speaker, listener and message from
    default_rng([seed, i]), and the listener's trajectory from
    default_rng([seed, i, 1]). All episodes are drawn at once.
    """
    check("run", RUN, {"n_episodes": n})
    game = community.game
    table = game.table
    rng = PCG64Array((seed,), n)
    targets = _sample_targets(community, rng)
    speakers = rng.integers(len(community.speakers))
    listeners = rng.integers(len(community.listeners))
    messages = _sample_messages(community, speakers, targets, rng)
    observed = _rollouts(community, listeners, messages,
                         PCG64Array((seed,), n, (1,)))

    # each distinct message decoded once
    distinct, where = np.unique(messages, return_inverse=True)
    decoded = np.array([
        table.key_index[wernicke_decode(wernicke, table.messages[m])
                        .canonical_key] for m in distinct.tolist()])
    estimates = {"model": decoded[where], "literal": observed}

    # estimates and targets are table trajectories: read V, and D in one
    # request for both arms
    rows, row = np.unique(np.stack(list(estimates.values())),
                          return_inverse=True)
    dists = table.rows(rows)[row.reshape(len(estimates), n), targets]
    metrics = {}
    for (arm, est), dist in zip(estimates.items(), dists):
        metrics[arm] = {
            "recovery_rate": int(np.count_nonzero(est == targets)) / n,
            "mean_distance": _ordered_sum(dist) / n,
            "mean_target_value": _ordered_sum(table.values[est]) / n,
        }
    model = metrics["model"]
    return ListenerReport(
        recovery_rate=model["recovery_rate"],
        mean_distance=model["mean_distance"],
        mean_target_value=model["mean_target_value"],
        literal_baseline=metrics["literal"],
        n=n,
    )
