"""Generation and JSONL persistence of interaction datasets.

Each record stores the observable pair (message, trajectory) plus the
harness-only ground-truth intended trajectory. Inference code only ever
sees the public view, with ground truth stripped.

A dataset stores each distinct record body (all but the seed) once, and
per episode a body id and a seed, so the work is done once per body.
`load` reads the lines in one pass, then cuts the distinct bodies into
five field columns and parses each distinct field text once.

The JSONL file is the definition of a dataset. Beside a dataset that
`collect` made, `save_index` writes its columns as ids into the game's
table, keyed by the sha256 of the file's bytes (which `save` returns),
and `load_index` builds the dataset `load` would give from them, with no
work per line; an index that does not match, or is malformed in any way,
is ignored whole.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import getitem, is_not

import numpy as np

from .community import Community, _rollouts, _sample_messages, _sample_targets
from .errors import (
    ConfigError,
    CoopLangError,
    DatasetParseError,
    FingerprintMismatchError,
)
from .games import (GameSpec, Message, Trajectory, game_fingerprint,
                    validate_message)
from .rng import PCG64Array
from .schema import RUN, check
from .semantics import _write_replacing

DATASET_FORMAT_VERSION = 1
# a record line: its seed, a JSON integer >= 0 of at most 20 digits
# (`[0-9]`: `\d` also matches digits that JSON rejects; `int` may refuse
# thousands of them), and its body
_SEEDED = re.compile(r'\{"episode_seed":(0|[1-9][0-9]{0,19}),(.*)',
                     re.DOTALL)
# a record body's keys in save's (sorted) layout, each with its text's kind
_SAVED = (("hidden_target", "trajectory"), ("listener_id", "id"),
          ("message", "message"), ("speaker_id", "id"),
          ("trajectory", "trajectory"))
# per kind of field text, the field whose check and parse it gets: a
# trajectory text may be null
_KINDS = {"trajectory": "hidden_target", "message": "message",
          "id": "speaker_id"}
# what a field text that fails its parse or check maps to
_FAILED = object()
# a record body's keys in the order of its fields' tuple
_BODY = ("message", "trajectory", "hidden_target", "speaker_id",
         "listener_id")
# what a record's parse and checks raise: JSONDecodeError is a ValueError,
# validate_message raises ConfigError, and a text nested too deep to
# decode raises RecursionError
_PARSE_ERRORS = (KeyError, TypeError, ValueError, ConfigError,
                 RecursionError)
# the lines `save` encodes, hashes and writes at a time
_CHUNK_LINES = 256
# the version of the file `save_index` writes; a change to the numbering
# of a game table's messages or trajectories must bump it
INDEX_FORMAT_VERSION = 1
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


class InteractionDataset:
    """Episodes as tuple columns: `bodies` holds each (message, trajectory,
    hidden_target, speaker_id, listener_id) once, in order of first
    appearance; episode i is body `body_ids[i]` with seed `episode_seeds[i]`.
    Records' bodies are keyed by their objects' identity, so distinct but
    equal objects (rewards 0.0 and -0.0) keep their own text."""

    def __init__(self, game_fingerprint: str, records, meta: dict):
        self.game_fingerprint, self.meta = game_fingerprint, meta
        index: dict[tuple, int] = {}
        bodies, ids, seeds = [], [], []
        for r in records:
            body = (r.message, r.trajectory, r.hidden_target, r.speaker_id,
                    r.listener_id)
            ids.append(index.setdefault(tuple(map(id, body)), len(bodies)))
            if ids[-1] == len(bodies):
                bodies.append(body)
            seeds.append(r.episode_seed)
        self.bodies, self.body_ids = tuple(bodies), tuple(ids)
        self.episode_seeds = tuple(seeds)

    def __len__(self) -> int:
        return len(self.body_ids)

    @property
    def records(self) -> list[InteractionRecord]:
        """The episodes as records, built on each read."""
        rows = map(self.bodies.__getitem__, self.body_ids)
        return [InteractionRecord(m, tau, target, seed, s, j) for
                (m, tau, target, s, j), seed in zip(rows, self.episode_seeds)]

    def public(self) -> "InteractionDataset":
        """The observer's view, sharing the id and seed columns: ground-truth
        intended trajectories and the meta keys `collect` copies from the
        harness removed."""
        return _dataset(self.game_fingerprint, [
            (m, tau, None, s, j) for m, tau, _, s, j in self.bodies],
            self.body_ids, self.episode_seeds,
            {k: v for k, v in self.meta.items() if k not in HARNESS_META})


def _dataset(game_fingerprint: str, bodies, body_ids, episode_seeds,
             meta: dict) -> InteractionDataset:
    """The dataset of these columns."""
    dataset = InteractionDataset(game_fingerprint, (), meta)
    dataset.bodies, dataset.body_ids, dataset.episode_seeds = (
        tuple(bodies), tuple(body_ids), tuple(episode_seeds))
    return dataset


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
    # one body per distinct id combination, in order of first appearance
    columns = (messages, taus, targets, speakers, listeners)
    _, first, inverse = np.unique(np.ravel_multi_index(columns, (
        len(table.messages), len(table.trajs), len(table.trajs),
        len(community.speakers), len(community.listeners))),
        return_index=True, return_inverse=True)
    order = np.argsort(first)
    bodies = [(table.messages[m], table.trajs[tau], table.trajs[target],
               f"speaker{s}", f"listener{j}") for m, tau, target, s, j in
              zip(*(column[first[order]].tolist() for column in columns))]
    meta = dict(zip(HARNESS_META, (
        community.seed, community.config.epsilon, community.config.temp_msg,
        community.config.temp_target, master_seed)), created=timestamp)
    return _dataset(game_fingerprint(game), bodies,
                    np.argsort(order)[inverse].tolist(), range(n_episodes),
                    meta)


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


def save(dataset: InteractionDataset, path) -> str:
    """JSONL: one header line, then one record per line; returns the
    sha256 of the bytes written.

    A record line is `_dumps` of its fields. Each distinct trajectory,
    message and id is dumped once, each body's text is built once from
    those texts in sorted-key order, and a line is `{"episode_seed":N,`
    plus its body's text, which gives the same bytes. The lines are
    encoded, hashed and written _CHUNK_LINES at a time, so the file is
    never read back to hash it.
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

    bodies = [
        f'"hidden_target":{traj(target)},"listener_id":{value(listener)},'
        f'"message":{value(message.tokens)},'
        f'"speaker_id":{value(speaker)},"trajectory":{traj(tau)}}}\n'
        for message, tau, target, speaker, listener in dataset.bodies]
    lines = chain((_dumps(header) + "\n",), (
        f'{{"episode_seed":{value(seed)},{bodies[i]}'
        for i, seed in zip(dataset.body_ids, dataset.episode_seeds)))
    sha256 = hashlib.sha256()
    with open(path, "wb") as fh:
        while chunk := "".join(islice(lines, _CHUNK_LINES)).encode("utf-8"):
            sha256.update(chunk)
            fh.write(chunk)
    return sha256.hexdigest()


def _packed(column) -> str:
    """An int column as base64 of its little-endian int64 bytes."""
    return base64.b64encode(
        np.fromiter(column, "<i8", len(column)).tobytes()).decode("ascii")


def _unpacked(text) -> np.ndarray | None:
    """The int column `_packed` wrote, or None if text is not one."""
    if type(text) is not str:
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII str
        return None
    return np.frombuffer(raw, "<i8") if len(raw) % 8 == 0 else None


def save_index(dataset: InteractionDataset, game: GameSpec, sha256: str,
               path) -> None:
    """Write the index of a dataset that `save` wrote with this sha256.

    The dataset must be one `collect` made: at least one episode, and
    bodies of the game table's own messages and trajectories. Per body the index holds the
    message's id into `game.table.messages`, the trajectory's and the
    hidden target's ids into `game.table.trajs` (null for no target), and
    the speaker and listener ids; per episode, packed (`_packed`), the body
    id and the seed. It is keyed by its format version, the dataset file's
    sha256 and the game's fingerprint, and written through
    `_write_replacing`.
    """
    table = game.table
    # by identity: an object that is not the table's own raises KeyError
    message_id = {id(m): i for i, m in enumerate(table.messages)}
    traj_id = {id(t): i for i, t in enumerate(table.trajs)}
    traj_id[id(None)] = None  # no hidden target
    messages, taus, targets, speakers, listeners = zip(*dataset.bodies)
    doc = {"format_version": INDEX_FORMAT_VERSION,
           "dataset_sha256": sha256, "game": game.fingerprint,
           "message": list(map(message_id.__getitem__, map(id, messages))),
           "trajectory": list(map(traj_id.__getitem__, map(id, taus))),
           "hidden_target": list(map(traj_id.__getitem__, map(id, targets))),
           "speaker_id": list(speakers), "listener_id": list(listeners),
           "body_ids": _packed(dataset.body_ids),
           "episode_seeds": _packed(dataset.episode_seeds)}
    _write_replacing(path, json.dumps(doc, sort_keys=True) + "\n")


def _check(key: str, value) -> None:
    """ValueError unless a record field's value has its JSON type."""
    if key == "message":
        ok, want = type(value) is list and all(
            type(t) is str for t in value), "a list of strings"
    elif key == "episode_seed":  # a bool is not an int here
        ok, want = type(value) is int and value >= 0, "an integer >= 0"
    elif key == "trajectory":  # only hidden_target may be null
        ok, want = type(value) is dict, "an object"
    elif key == "hidden_target":
        ok, want = value is None or type(value) is dict, "an object or null"
    else:
        ok, want = type(value) is str, "a string"
    if not ok:
        raise ValueError(f"{key} must be {want}, got {value!r}")


def _value(key: str, value, fp: str, game: GameSpec | None):
    """A checked field's object: a Message of the game, a trajectory, or
    the id string itself."""
    if key == "message":
        message = Message(tuple(value))
        if game is not None:
            validate_message(game, message)
        return message
    if key in ("trajectory", "hidden_target"):
        return _traj_from_json(value, fp, game)
    return value


def _fields(doc: dict, fp: str, game: GameSpec | None) -> tuple:
    """A record's checked (message, trajectory, hidden_target, speaker_id,
    listener_id)."""
    message, seed = doc["message"], doc["episode_seed"]
    _check("message", message)
    _check("episode_seed", seed)
    for key in ("speaker_id", "listener_id", "trajectory"):
        _check(key, doc[key])
    _check("hidden_target", doc.get("hidden_target"))
    return tuple(_value(key, doc[key], fp, game) for key in _BODY)


def _split_bodies(texts: list[str], fp: str,
                  game: GameSpec | None) -> tuple[list, np.ndarray]:
    """Each body text's checked fields, and whether they are its fields.

    Every body is cut after its `"hidden_target":` prefix at the first
    `,"<key>":` of each later key in sorted order and before its closing
    `}`, which gives five field columns, each held as the numbers of its
    texts. Each distinct trajectory, message or id text of the bodies cut
    whole is parsed and checked once, and each column maps to its objects
    through those numbers; the two trajectory columns share theirs, and so
    do the two id columns. A separator inside a field can only be a key of an
    object in it, so a cut there leaves a text that is not one JSON value,
    and it fails. A body fails on a failed cut, parse or check, or on a null
    trajectory; its flag is then False (the line is parsed alone).
    """
    n, prefix = len(texts), '"hidden_target":'
    ok = np.fromiter(map(str.startswith, texts, repeat(prefix)), bool, n)
    ok &= np.fromiter(map(str.endswith, texts, repeat("}")), bool, n)
    # per kind, each distinct field text -> its number
    fresh, numbers = count(), {kind: {} for kind in _KINDS}

    def cut(starts, ends, kind) -> list[int]:
        """A column as its texts' numbers: a text equal to one cut before
        is dropped at once, so no column of texts is kept."""
        return list(map(numbers[kind].setdefault, map(getitem, texts, map(
            slice, starts, ends)), fresh))

    columns, starts = [], [len(prefix)] * n
    for (_, kind), (key, _) in zip(_SAVED, _SAVED[1:]):
        sep = f',"{key}":'
        ends = np.fromiter(map(str.find, texts, repeat(sep), starts), int, n)
        ok &= ends >= 0
        columns.append(cut(starts, ends.tolist(), kind))
        starts = (ends + len(sep)).tolist()
    columns.append(cut(starts, repeat(-1), _SAVED[-1][1]))
    for kind, key in _KINDS.items():
        cols = [i for i, (_, of) in enumerate(_SAVED) if of == kind]
        # only the texts of bodies not failed so far are parsed
        wanted = set(chain.from_iterable(compress(columns[i], ok)
                                         for i in cols))
        objects = {}
        for text, i in numbers[kind].items():
            if i not in wanted:
                continue
            try:
                value = json.loads(text)
                _check(key, value)
                objects[i] = _value(key, value, fp, game)
            # a body too deep to decode fails here too: its line, parsed
            # alone in line order, raises after any earlier bad line
            except _PARSE_ERRORS:
                objects[i] = _FAILED
        for i in cols:  # the texts of failed bodies map to None
            columns[i] = list(map(objects.get, columns[i]))
            ok &= np.fromiter(map(is_not, columns[i], repeat(_FAILED)),
                              bool, n)
    # only hidden_target may be null
    ok &= np.fromiter(map(is_not, columns[-1], repeat(None)), bool, n)
    fields = dict(zip((key for key, _ in _SAVED), columns))
    return list(zip(*map(fields.get, _BODY))), ok


def _header(line: str, game: GameSpec | None) -> tuple[str, dict]:
    """The checked header line's game fingerprint and meta."""
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
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
    return fp, meta


def load(path, game: GameSpec | None = None) -> InteractionDataset:
    """Parse a JSONL dataset; optionally check it against a game.

    Given a game, every message must be a message of the game and every
    trajectory one of its table, steps included. One pass over the lines
    keys each line by its body text (the line after its leading
    `{"episode_seed":N,`) and keeps its seed text. Then the distinct body
    texts are cut into field columns (`_split_bodies`), which parses and
    checks each distinct trajectory, message and id text once per call.
    Each body cut whole is stored once, and each line adds a body id and a
    seed. A line off save's layout, or whose body fails the cut, is a body
    of its own, parsed alone in line order, so the first bad line raises
    its exact `DatasetParseError`. `load_index` gives the same dataset
    from a matching index; this is the path for every other file.
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

    fp, meta = _header(lines[0], game)
    texts: dict[str, int] = {}  # body text -> its id
    # per line, its body text's id (-1 off save's layout) and its seed text
    # (a line parsed alone takes its seed from that parse)
    keys, seeds = [], []
    for seeded in map(_SEEDED.match, islice(lines, 1, None)):
        if seeded is None:
            keys.append(-1)
            seeds.append("0")
        else:
            seed, body = seeded.groups()
            keys.append(texts.setdefault(body, len(texts)))
            seeds.append(seed)
    fields, ok = _split_bodies(list(texts), fp, game)
    # a line whose body is not cut whole (key -1 reads the appended False)
    # is a body of its own, keyed by len(fields) plus its index
    keys = np.array(keys, dtype=np.intp)
    alone = ~np.append(ok, False)[keys]
    keys[alone] = len(fields) + np.flatnonzero(alone)
    keys = keys.tolist()
    firsts = dict.fromkeys(keys)  # in order of first appearance
    ids = list(map(dict(zip(firsts, range(len(firsts)))).__getitem__, keys))
    seeds = list(map(int, seeds))
    bodies = []
    for key in firsts:  # so the lines parsed alone come in line order
        if key < len(fields):
            bodies.append(fields[key])
            continue
        index = key - len(fields)
        try:
            doc = json.loads(lines[index + 1])
            bodies.append(_fields(doc, fp, game))
        except _PARSE_ERRORS as exc:
            raise DatasetParseError(index + 2, str(exc)) from exc
        seeds[index] = doc["episode_seed"]
    return _dataset(fp, bodies, ids, seeds, meta)


def load_index(path, index_path, game: GameSpec) -> InteractionDataset | None:
    """The dataset at `path` (`load(path, game)`), built from the columns
    of the `save_index` file at index_path; None if that file cannot serve.

    The dataset file's bytes are hashed on every call. A missing,
    unreadable or malformed index, one whose key does not match the file
    and the game, and one with any bad entry (an id out of range, columns
    of unequal length, a repeated body, bodies out of first-appearance
    order, a negative seed) is ignored whole and never raises; so is a
    header line that `load` would reject, and `load` then raises on it.
    The bodies are made of the game table's objects, one per distinct
    message, trajectory and id, as `load` makes them.
    """
    try:
        with open(index_path, "rb") as fh:
            doc = json.loads(fh.read())
        with open(path, "rb") as fh:
            raw = fh.read()
        # the header line (none if the file has no newline)
        fp, meta = _header(raw[:max(raw.find(b"\n"), 0)].decode("utf-8"),
                           game)
    # ValueError: JSON or UTF-8; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError, CoopLangError):
        return None
    table = game.table
    if not (isinstance(doc, dict)
            and doc.get("format_version") == INDEX_FORMAT_VERSION
            and type(doc["format_version"]) is int
            and doc.get("game") == game.fingerprint
            and doc.get("dataset_sha256") == hashlib.sha256(raw).hexdigest()
            and all(type(doc.get(key)) is list for key in _BODY)):
        return None
    messages, taus, targets, speakers, listeners = map(doc.get, _BODY)
    n = len(messages)
    ids, seeds = _unpacked(doc.get("body_ids")), _unpacked(
        doc.get("episode_seeds"))
    if not (all(len(column) == n for column in (taus, targets, speakers,
                                                listeners))
            and _id_column(messages, len(table.messages))
            and _id_column(taus, len(table.trajs))
            and _id_column([t for t in targets if t is not None],
                           len(table.trajs))
            and set(map(type, chain(speakers, listeners))) <= {str}
            and len(set(zip(messages, taus, targets, speakers,
                            listeners))) == n
            and ids is not None and seeds is not None
            and len(ids) == len(seeds) and (seeds >= 0).all()
            and _first_appearance_order(ids, n)):
        return None
    names: dict[str, str] = {}  # one object per distinct id, as in `load`
    bodies = zip(map(table.messages.__getitem__, messages),
                 map(table.trajs.__getitem__, taus),
                 [None if t is None else table.trajs[t] for t in targets],
                 map(names.setdefault, speakers, speakers),
                 map(names.setdefault, listeners, listeners))
    return _dataset(fp, bodies, ids.tolist(), seeds.tolist(), meta)


def _id_column(column: list, size: int) -> bool:
    """Whether every entry is an int id into a table of `size` entries."""
    return set(map(type, column)) <= {int} and (
        not column or (min(column) >= 0 and max(column) < size))


def _first_appearance_order(ids: np.ndarray, n: int) -> bool:
    """Whether ids numbers n bodies, each first appearing after the one
    before it: each id is at most one past every id before it."""
    if len(ids) == 0:
        return n == 0
    top = np.maximum.accumulate(ids)
    return bool(ids[0] == 0 and ids.min() >= 0 and top[-1] == n - 1
                and (np.diff(top) <= 1).all())
