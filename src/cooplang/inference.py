"""Tabular estimators for the forward (signalling) and backward (listening)
problems.

The forward fit maps observed trajectories to the messages that caused
them. The backward fit first pseudo-labels each observed (message,
trajectory) pair with a MAP estimate of the intended trajectory under a
Boltzmann-rational speaker model, then maps messages to pseudo-labels.
Both models are count tables with explicit backoff rules, so their argmax
decoders can be checked exactly against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .community import ListenerPolicy
from .errors import (
    ConfigError,
    EmptyDatasetError,
    FingerprintMismatchError,
    ForeignGameRecordError,
)
from .games import (GameSpec, Message, Trajectory, final_state,
                    game_fingerprint, validate_message)
from .schema import INFERENCE, INTEGER, check
from .semantics import DistanceConfig, emission_distances, message_distance
from .tables import GameTable, listener_table

MODEL_FORMAT_VERSION = 1


@dataclass
class MapConfig:
    """Hyperparameters of the MAP intended-trajectory estimator."""

    alpha: float = 1.0
    variant: str = "literal"

    def __post_init__(self):
        check("inference", INFERENCE,
              {"alpha": self.alpha, "variant": self.variant})


def boltzmann_message_likelihood(
    listener: ListenerPolicy, game: GameSpec, message: Message,
    target: Trajectory, cfg: DistanceConfig,
) -> float:
    """exp(-S(m*, m)) normalized over all messages of length 1..L."""
    table = listener_table(listener, game)
    # index 0 is the null message, which is not emitted
    index = table.game.message_ids.get(message.canonical(), 0)
    if index == 0:
        raise ConfigError(
            f"message {message.canonical()!r} not in the emission space")
    weights = np.exp(-emission_distances(table, target, cfg))
    return float(weights[index - 1] / weights.sum())


def map_target(record, game: GameSpec, cfg: MapConfig,
               listener_model=None) -> Trajectory:
    """MAP estimate of the intended trajectory for one interaction.

    Scores every feasible candidate as V minus alpha times its distance
    from the observed trajectory (literal) or its expected distance under
    the listener model given the message (expected). Ties go to higher V,
    then canonical-key order.
    """
    _require_listener_model(cfg, listener_model)
    table = game.table
    return table.trajs[_map_index(table, record.message, record.trajectory,
                                  cfg, listener_model)]


def _require_listener_model(cfg: MapConfig, listener_model) -> None:
    if cfg.variant == "expected" and listener_model is None:
        raise ConfigError("variant=expected requires a listener_model")


def _map_index(table: GameTable, message: Message, trajectory: Trajectory,
               cfg: MapConfig, listener_model) -> int:
    """Index of the MAP candidate: max score, then max V, then first key."""
    if cfg.variant == "literal":
        dist = table.column(trajectory)
    else:
        validate_message(table.game, message)
        p = listener_model.P[listener_model.row(message)]
        dist = np.zeros(len(p))
        for j in np.flatnonzero(p):  # term by term, in trajectory order
            dist = dist + p[j] * table.column(listener_model.game.trajs[j])
    scores = table.values - cfg.alpha * dist
    best = np.flatnonzero(scores == scores.max())
    best = best[table.values[best] == table.values[best].max()]
    return int(best[0])


def coarse_feature(game: GameSpec, tau: Trajectory) -> str:
    """Backoff feature: picked candidate (lewis) or collected item set."""
    state = final_state(game, tau)
    if game.kind == "lewis":
        return "none" if state[0] == "start" else f"picked:{state[1]}"
    return "+".join(sorted(state[2]))


def _msg_sort_key(canonical: str):
    tokens = tuple(canonical.split())
    return (len(tokens), tokens)


def _argmax_message(hist: dict[str, float]) -> str:
    """Highest count, ties to the shortest then lexicographic message."""
    return min(hist, key=lambda m: (-hist[m], _msg_sort_key(m)))


@dataclass(eq=False)
class BrocaModel:
    """Trajectory -> message count tables with a coarse-feature backoff."""

    game: GameSpec
    table: dict[str, dict[str, int]]
    backoff_table: dict[str, dict[str, int]]

    def to_json_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "broca",
            "game_fingerprint": game_fingerprint(self.game),
            # a constant of the v1 format: the pinned artifact digests and
            # older loaders expect the key; the loader ignores it
            "smoothing": 0.0,
            "table": self.table,
            "backoff_table": self.backoff_table,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, game: GameSpec) -> "BrocaModel":
        _check_model_doc(doc, "broca", game, ("table", "backoff_table"))
        return cls(game=game, table=doc["table"],
                   backoff_table=doc["backoff_table"])


def _check_model_doc(doc, kind: str, game: GameSpec, tables) -> None:
    """Reject a model document that is not a v1 `kind` model of this game.

    tables names the keys that must map strings to non-empty dicts of
    integer counts >= 1, as a fit on at least one record writes them: the
    decoders take an argmax over a count table.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"a {kind} model must be a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format {doc.get('format_version')}")
    if doc.get("kind") != kind:
        raise ConfigError(f"expected a {kind} model, got {doc.get('kind')!r}")
    if doc.get("game_fingerprint") != game_fingerprint(game):
        raise FingerprintMismatchError(
            f"model was fitted on game {doc.get('game_fingerprint')}, "
            f"got {game_fingerprint(game)}"
        )
    for key in tables:
        table = doc.get(key)
        if not (isinstance(table, dict) and table
                and all(isinstance(h, dict) and h
                        and all(INTEGER[0](c) and c >= 1 for c in h.values())
                        for h in table.values())):
            raise ConfigError(f"{kind} {key} must map keys to non-empty "
                              "tables of counts >= 1")


def _observed_pairs(dataset, game: GameSpec) -> list[tuple]:
    """The (message, trajectory) pairs an estimator may see: no record, so
    no hidden target, reaches it."""
    fp = game_fingerprint(game)
    if not dataset.records:
        raise EmptyDatasetError("cannot fit on an empty dataset")
    if dataset.game_fingerprint != fp:
        raise ForeignGameRecordError(
            f"dataset game {dataset.game_fingerprint} does not match {fp}"
        )
    for rec in dataset.records:
        if rec.trajectory.game_fingerprint != fp:
            raise ForeignGameRecordError(
                f"record trajectory from game {rec.trajectory.game_fingerprint}"
            )
    return [(rec.message, rec.trajectory) for rec in dataset.records]


def fit_broca(dataset, game: GameSpec) -> BrocaModel:
    """Count messages per observed trajectory, exact key plus backoff.

    The coarse feature replays a trajectory, so it is computed once per
    distinct observed trajectory.
    """
    table: dict[str, dict[str, int]] = {}
    backoff: dict[str, dict[str, int]] = {}
    feats: dict[str, str] = {}
    for message, tau in _observed_pairs(dataset, game):
        msg = message.canonical()
        key = tau.canonical_key
        table.setdefault(key, {})
        table[key][msg] = table[key].get(msg, 0) + 1
        feat = feats.get(key)
        if feat is None:
            feat = feats[key] = coarse_feature(game, tau)
        backoff.setdefault(feat, {})
        backoff[feat][msg] = backoff[feat].get(msg, 0) + 1
    return BrocaModel(game=game, table=table, backoff_table=backoff)


def broca_emit(model: BrocaModel, target: Trajectory) -> Message:
    """Exact-key argmax, else backoff-feature argmax, else global majority."""
    hist = model.table.get(target.canonical_key)
    if hist is None:
        hist = model.backoff_table.get(coarse_feature(model.game, target))
    if hist is None:
        merged: dict[str, int] = {}
        for h in model.table.values():
            for msg, count in h.items():
                merged[msg] = merged.get(msg, 0) + count
        hist = merged
    return Message.from_canonical(_argmax_message(hist))


@dataclass(eq=False)
class WernickeModel:
    """Message -> pseudo-label count tables with nearest-message backoff."""

    game: GameSpec
    table: dict[str, dict[str, int]]
    alpha: float
    backoff: float = 0.5

    def __post_init__(self):
        check("wernicke", INFERENCE,
              {"alpha": self.alpha, "backoff": self.backoff})

    def value_of(self, key: str) -> float:
        table = self.game.table
        return float(table.values[table.key_index[key]])

    def to_json_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "wernicke",
            "game_fingerprint": game_fingerprint(self.game),
            "alpha": self.alpha,
            "backoff": self.backoff,
            "table": self.table,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, game: GameSpec) -> "WernickeModel":
        """Load a model; every label must be a trajectory of the game."""
        _check_model_doc(doc, "wernicke", game, ("table",))
        table = doc["table"]
        unknown = sorted({key for hist in table.values() for key in hist}
                         - game.table.key_index.keys())
        if unknown:
            raise ConfigError(
                f"wernicke labels are not trajectories of the game: {unknown}")
        return cls(game=game, table=table, alpha=doc.get("alpha"),
                   backoff=doc.get("backoff"))


def fit_wernicke(dataset, game: GameSpec, cfg: MapConfig,
                 backoff: float = 0.5, listener_model=None) -> WernickeModel:
    """Pseudo-label every record via MAP, then count labels per message.

    A literal label depends only on the observed trajectory and an
    expected one only on the message, so each is computed once per fit.
    """
    pairs = _observed_pairs(dataset, game)
    _require_listener_model(cfg, listener_model)
    game_table = game.table
    table: dict[str, dict[str, int]] = {}
    labels: dict = {}
    for message, tau in pairs:
        msg = message.canonical()
        key = tau.actions if cfg.variant == "literal" else msg
        label = labels.get(key)
        if label is None:
            index = _map_index(game_table, message, tau, cfg, listener_model)
            label = labels[key] = game_table.trajs[index].canonical_key
        table.setdefault(msg, {})
        table[msg][label] = table[msg].get(label, 0) + 1
    return WernickeModel(game=game, table=table, alpha=cfg.alpha,
                         backoff=backoff)


def _argmax_label(model: WernickeModel, hist: dict[str, int]) -> str:
    """Highest count; ties to higher return, then canonical-key order."""
    return min(hist, key=lambda k: (-hist[k], -model.value_of(k), k))


def wernicke_decode(model: WernickeModel, message: Message) -> Trajectory:
    """Decode a message to its most plausible intended trajectory."""
    canon = message.canonical()
    hist = model.table.get(canon)
    if hist is None and model.table:
        # _msg_sort_key differs between messages, so min never compares m
        dist, _, nearest = min(
            (message_distance(message, Message.from_canonical(m)),
             _msg_sort_key(m), m) for m in model.table)
        if dist <= model.backoff:
            hist = model.table[nearest]
    if hist is None:
        # beyond the backoff threshold: the highest-return label, counts aside
        labels = {key for h in model.table.values() for key in h}
        key = min(labels, key=lambda k: (-model.value_of(k), k))
    else:
        key = _argmax_label(model, hist)
    table = model.game.table
    return table.trajs[table.key_index[key]]
