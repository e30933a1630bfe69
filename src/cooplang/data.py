"""Generation and JSONL persistence of interaction datasets.

Each record stores the observable pair (message, trajectory) plus the
harness-only ground-truth intended trajectory. Inference code only ever
sees the public view, with ground truth stripped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

from .community import Community, _rollouts, _sample_messages, _sample_targets
from .errors import (
    ConfigError,
    DatasetParseError,
    FingerprintMismatchError,
)
from .games import (GameSpec, Message, Trajectory, game_fingerprint,
                    validate_message)
from .rng import PCG64Array
from .schema import RUN, check

DATASET_FORMAT_VERSION = 1
# a record line: its seed, a JSON integer >= 0 (`[0-9]`: `\d` also
# matches digits that JSON rejects), and its body
_SEEDED = re.compile(r'\{"episode_seed":(0|[1-9][0-9]*),(.*)', re.DOTALL)
# the meta keys `collect` copies from the harness, which `public` drops
HARNESS_META = ("community_seed", "epsilon", "temp_msg", "temp_target",
                "master_seed")


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
        """The observer's view: ground-truth intended trajectories and the
        meta keys `collect` copies from the harness removed."""
        return InteractionDataset(
            game_fingerprint=self.game_fingerprint,
            records=[replace(r, hidden_target=None) for r in self.records],
            meta={k: v for k, v in self.meta.items() if k not in HARNESS_META},
        )


def collect(community: Community, n_episodes: int, master_seed: int,
            timestamp: str = "") -> InteractionDataset:
    """Generate n_episodes interactions; deterministic given master_seed.

    Episode i draws from default_rng([master_seed, i]), so episodes are
    independent and reproducible individually: its target from the prior,
    its speaker and listener (integers), its message from the speaker's
    distribution and its trajectory from the listener's walk. All
    episodes are drawn at once (`community._sample_*`, `_rollouts`).
    """
    check("run", RUN, {"n_episodes": n_episodes})
    game = community.game
    table = game.table
    rng = PCG64Array((master_seed,), n_episodes)
    targets = _sample_targets(community, rng)
    speakers = rng.integers(len(community.speakers))
    listeners = rng.integers(len(community.listeners))
    messages = _sample_messages(community, speakers, targets, rng)
    taus = _rollouts(community, listeners, messages, rng)
    records = [
        InteractionRecord(
            message=table.messages[m],
            trajectory=table.trajs[tau],
            hidden_target=table.trajs[target],
            episode_seed=i,
            speaker_id=f"speaker{s}",
            listener_id=f"listener{j}",
        )
        for i, (m, tau, target, s, j) in enumerate(zip(
            messages.tolist(), taus.tolist(), targets.tolist(),
            speakers.tolist(), listeners.tolist()))
    ]
    meta = dict(zip(HARNESS_META, (
        community.seed, community.config.epsilon, community.config.temp_msg,
        community.config.temp_target, master_seed)), created=timestamp)
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
    """The stored trajectory; given a game, the game table's own one.

    Given a game, the steps must be that trajectory's steps. Without one,
    the steps must be [state, action, reward] arrays and the key the one
    `canonical_key_for` builds from them.
    """
    if doc is None:
        return None
    steps, key = doc["steps"], doc["canonical_key"]
    if game is not None:
        table = game.table
        i = table.key_index.get(key)
        if i is None or table.trajs[i].steps != tuple(map(tuple, steps)):
            raise ValueError(f"{key!r} is not a trajectory of the game")
        return table.trajs[i]
    if type(steps) is not list or any(
            type(step) is not list or len(step) != 3 for step in steps):
        raise ValueError(f"steps must be [state, action, reward] arrays, "
                         f"got {steps!r}")
    if type(key) is not str:
        raise ValueError(f"canonical_key must be a string, got {key!r}")
    # the initial digest (the key's own for an empty trajectory), the actions
    start = steps[0][0] if steps else key.partition("::")[0]
    if key != start + "::" + ",".join(a for _, a, _ in steps):
        raise ValueError(f"canonical_key {key!r} does not match its steps")
    return Trajectory(steps=tuple(map(tuple, steps)), canonical_key=key,
                      game_fingerprint=fp)


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save(dataset: InteractionDataset, path) -> None:
    """JSONL: one header line, then one record per line.

    A record line is `_dumps` of its fields. Each distinct trajectory,
    message and id is dumped once, and a line is built from those texts
    in sorted-key order, which gives the same bytes.
    """
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "game_fingerprint": dataset.game_fingerprint,
        "meta": dataset.meta,
    }
    # keyed by identity: records that share a trajectory object share its text
    trajs: dict[int, str] = {}
    texts: dict = {}

    def traj(tau) -> str:
        text = trajs.get(id(tau))
        if text is None:
            text = trajs[id(tau)] = _dumps(_traj_to_json(tau))
        return text

    def value(v) -> str:
        if type(v) is int:  # json.dumps writes an int as its repr
            return repr(v)
        key = (type(v), v)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _dumps(v)
        return text

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dumps(header) + "\n")
        fh.writelines(
            f'{{"episode_seed":{value(rec.episode_seed)},'
            f'"hidden_target":{traj(rec.hidden_target)},'
            f'"listener_id":{value(rec.listener_id)},'
            f'"message":{value(rec.message.tokens)},'
            f'"speaker_id":{value(rec.speaker_id)},'
            f'"trajectory":{traj(rec.trajectory)}}}\n'
            for rec in dataset.records)


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
    if type(doc["trajectory"]) is not dict:  # only hidden_target may be null
        raise ValueError(
            f"trajectory must be an object, got {doc['trajectory']!r}")
    hidden = doc.get("hidden_target")
    if hidden is not None and type(hidden) is not dict:
        raise ValueError(
            f"hidden_target must be an object or null, got {hidden!r}")


def _fields(doc: dict, fp: str, game: GameSpec | None) -> tuple:
    """A record's checked (message, trajectory, hidden_target, speaker_id,
    listener_id)."""
    _check_fields(doc)
    message = Message(tuple(doc["message"]))
    if game is not None:
        validate_message(game, message)
    return (message, _traj_from_json(doc["trajectory"], fp, game),
            _traj_from_json(doc["hidden_target"], fp, game),
            doc["speaker_id"], doc["listener_id"])


def _seeded(line: str, bodies: dict, fp: str, game: GameSpec | None):
    """(episode_seed, fields) of a line `{"episode_seed":N,` + body, or None.

    Such a line is the object `"{" + body` plus its seed, so each distinct
    body is parsed and checked once and its fields kept in `bodies`. None
    (the line is then parsed alone) for any other line, for a body whose
    object holds an `episode_seed` key, and on any error, such as the
    missing fields of the empty body of `{"episode_seed":1,}`.
    """
    seeded = _SEEDED.match(line)
    if seeded is None:
        return None
    seed, body = seeded.groups()
    try:
        seed = int(seed)
        fields = bodies.get(body)
        if fields is None:
            doc = json.loads("{" + body)
            if "episode_seed" in doc:  # the line's later key would win
                return None
            doc["episode_seed"] = seed
            fields = bodies[body] = _fields(doc, fp, game)
        return seed, fields
    except Exception:  # the line's own parse gives the exact result or error
        return None


def load(path, game: GameSpec | None = None) -> InteractionDataset:
    """Parse a JSONL dataset; optionally check it against a game.

    Given a game, every message must be a message of the game and every
    trajectory one of its table, steps included. Each distinct record body
    (a line after its leading `{"episode_seed":N,`) is parsed and checked
    once per call, and its records share their message and trajectories.
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
    bodies: dict[str, tuple] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        seeded = _seeded(line, bodies, fp, game)
        if seeded is None:
            try:
                doc = json.loads(line)
                fields = _fields(doc, fp, game)
                seeded = doc["episode_seed"], fields
            # JSONDecodeError is a ValueError; validate_message raises
            # ConfigError
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise DatasetParseError(lineno, str(exc)) from exc
        seed, (message, trajectory, hidden_target, speaker, listener) = seeded
        records.append(InteractionRecord(message, trajectory, hidden_target,
                                         seed, speaker, listener))
    return InteractionDataset(game_fingerprint=fp, records=records, meta=meta)
