"""Generation and JSONL persistence of interaction datasets.

Each record stores the observable pair (message, trajectory) plus the
harness-only ground-truth intended trajectory. Inference code only ever
sees the public view, with ground truth stripped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .community import (
    Community,
    Message,
    rollout,
    speaker_sample,
    target_prior_sample,
    validate_message,
)
from .errors import (
    ConfigError,
    DatasetParseError,
    FingerprintMismatchError,
)
from .games import GameSpec, Trajectory, game_fingerprint
from .rng import streams
from .schema import RUN, check

DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class InteractionRecord:
    message: Message
    trajectory: Trajectory
    hidden_target: Trajectory | None
    episode_seed: int
    speaker_id: str
    listener_id: str


@dataclass
class InteractionDataset:
    game_fingerprint: str
    records: list[InteractionRecord]
    meta: dict

    def public(self) -> "InteractionDataset":
        """The observer's view: ground-truth intended trajectories removed."""
        return InteractionDataset(
            game_fingerprint=self.game_fingerprint,
            records=[replace(r, hidden_target=None) for r in self.records],
            meta=dict(self.meta),
        )


def collect(community: Community, n_episodes: int, master_seed: int,
            timestamp: str = "") -> InteractionDataset:
    """Generate n_episodes interactions; deterministic given master_seed.

    Per episode the rng stream is derived from (master_seed, index), so
    episodes are independent and reproducible individually.
    """
    check("run", RUN, {"n_episodes": n_episodes})
    game = community.game
    records = []
    for i, rng in enumerate(streams((master_seed,), n_episodes)):
        target = target_prior_sample(community, rng)
        s_idx = int(rng.integers(len(community.speakers)))
        l_idx = int(rng.integers(len(community.listeners)))
        message = speaker_sample(community.speakers[s_idx], game, target, rng)
        tau = rollout(game, community.listeners[l_idx], message, rng)
        records.append(InteractionRecord(
            message=message,
            trajectory=tau,
            hidden_target=target,
            episode_seed=i,
            speaker_id=f"speaker{s_idx}",
            listener_id=f"listener{l_idx}",
        ))
    meta = {
        "community_seed": community.seed,
        "epsilon": community.config.epsilon,
        "temp_msg": community.config.temp_msg,
        "temp_target": community.config.temp_target,
        "master_seed": master_seed,
        "created": timestamp,
    }
    return InteractionDataset(
        game_fingerprint=game_fingerprint(game), records=records, meta=meta,
    )


def _traj_to_json(tau: Trajectory | None):
    if tau is None:
        return None
    return {
        "steps": [[s, a, r] for s, a, r in tau.steps],
        "canonical_key": tau.canonical_key,
    }


def _traj_from_json(doc, fp: str, game: GameSpec | None) -> Trajectory | None:
    """The stored trajectory; given a game, the game table's own one."""
    if doc is None:
        return None
    steps = tuple((s, a, r) for s, a, r in doc["steps"])
    key = doc["canonical_key"]
    if game is None:
        return Trajectory(steps=steps, canonical_key=key, game_fingerprint=fp)
    table = game.table
    i = table.key_index.get(key)
    if i is None or table.trajs[i].steps != steps:
        raise ValueError(f"{key!r} is not a trajectory of the game")
    return table.trajs[i]


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save(dataset: InteractionDataset, path) -> None:
    """JSONL: one header line, then one record per line."""
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "game_fingerprint": dataset.game_fingerprint,
        "meta": dataset.meta,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        for rec in dataset.records:
            fh.write(_dumps({
                "message": list(rec.message.tokens),
                "trajectory": _traj_to_json(rec.trajectory),
                "hidden_target": _traj_to_json(rec.hidden_target),
                "episode_seed": rec.episode_seed,
                "speaker_id": rec.speaker_id,
                "listener_id": rec.listener_id,
            }) + "\n")


def _check_fields(doc: dict) -> None:
    """ValueError unless a record's plain fields have their JSON types."""
    message, seed = doc["message"], doc["episode_seed"]
    if type(message) is not list or any(type(t) is not str for t in message):
        raise ValueError(f"message must be a list of strings, got {message!r}")
    if type(seed) is not int or seed < 0:  # a bool is not an int here
        raise ValueError(f"episode_seed must be an integer >= 0, got {seed!r}")
    for key in ("speaker_id", "listener_id"):
        if type(doc[key]) is not str:
            raise ValueError(f"{key} must be a string, got {doc[key]!r}")


def load(path, game: GameSpec | None = None) -> InteractionDataset:
    """Parse a JSONL dataset; optionally check it against a game.

    Given a game, every message must be a message of the game and every
    trajectory one of its table, steps included.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DatasetParseError(raw.count(b"\n", 0, exc.start) + 1,
                                f"not UTF-8: {exc.reason}") from None
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetParseError(1, "empty file, header line missing")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetParseError(1, f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise DatasetParseError(1, "header is not a JSON object")
    if header.get("format_version") != DATASET_FORMAT_VERSION:
        raise DatasetParseError(
            1, f"unsupported format_version {header.get('format_version')}"
        )
    fp = header.get("game_fingerprint")
    if not isinstance(fp, str):
        raise DatasetParseError(1, "header has no game_fingerprint string")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise DatasetParseError(1, "header meta is not a JSON object")
    if game is not None and fp != game_fingerprint(game):
        raise FingerprintMismatchError(
            f"dataset game {fp} does not match provided game "
            f"{game_fingerprint(game)}"
        )

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            doc = json.loads(line)
            _check_fields(doc)
            message = Message(tuple(doc["message"]))
            if game is not None:
                validate_message(game, message)
            records.append(InteractionRecord(
                message=message,
                trajectory=_traj_from_json(doc["trajectory"], fp, game),
                hidden_target=_traj_from_json(doc["hidden_target"], fp, game),
                episode_seed=doc["episode_seed"],
                speaker_id=doc["speaker_id"],
                listener_id=doc["listener_id"],
            ))
        # JSONDecodeError is a ValueError; validate_message raises ConfigError
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DatasetParseError(lineno, str(exc)) from exc
    return InteractionDataset(game_fingerprint=fp, records=records, meta=meta)
