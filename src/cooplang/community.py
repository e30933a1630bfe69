"""Synthetic communities of speakers and listeners sharing a seeded codebook.

The harness builds agents whose language is known by construction: a
codebook maps distinct messages to action plans covering the useful
trajectories of a game. Listeners execute plans with optional uniform
action noise; speakers emit messages Boltzmann-distributed around the
optimal message for their intended trajectory.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigError,
    InvalidActionError,
    SupportMismatchError,
    VocabularyTooSmallError,
)
from .games import (  # step is not called here; perfbench tests patch it
    GameSpec, Message, Trajectory, step, validate_message)
from .rng import check_seed
from .schema import (COMMUNITY, INDEX, INTEGER, LIST, OBJECT, Rule, check,
                     values_of)
from .semantics import DistanceConfig, emission_distances
from .tables import listener_table


def pad_action(game: GameSpec) -> str:
    # "pick" off an item cell is a stay-in-place step in the supermarket
    return "pick" if game.kind == "supermarket" else game.env_actions[0]


@dataclass(frozen=True, eq=False)
class ListenerPolicy:
    """Executes the plan assigned to a message, with uniform action noise.

    Unknown and null messages fall back to default_plan. Plans shorter
    than the realized episode are padded with the game's pad action.
    The policy is immutable and keeps a read-only copy of its codebook,
    so its cached tables cannot go stale.
    """

    codebook: Mapping[str, tuple[str, ...]]
    epsilon: float = 0.0
    default_plan: tuple[str, ...] = ()
    # game fingerprint -> ListenerTable; init=False, so replace() starts empty
    _dist_cache: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        check("community", COMMUNITY, {"epsilon": self.epsilon})
        object.__setattr__(self, "codebook", MappingProxyType(
            {m: tuple(plan) for m, plan in self.codebook.items()}))
        object.__setattr__(self, "default_plan", tuple(self.default_plan))

    def plan_for(self, message: Message) -> tuple[str, ...]:
        return self.codebook.get(message.canonical(), self.default_plan)

    def planned_action(self, game: GameSpec, plan: tuple[str, ...], k: int) -> str:
        return plan[k] if k < len(plan) else pad_action(game)


@dataclass(frozen=True, eq=False)
class SpeakerPolicy:
    """Boltzmann message emitter calibrated to a reference listener; its
    distances are the emission slice of that listener's table."""

    listener_ref: ListenerPolicy
    temp_msg: float = 1.0
    greedy_msg: bool = False

    def __post_init__(self):
        check("community", COMMUNITY, {"temp_msg": self.temp_msg,
                                       "greedy_msg": self.greedy_msg})


def rollout(game: GameSpec, listener: ListenerPolicy, message: Message,
            rng: np.random.Generator) -> Trajectory:
    """Sample one listener trajectory given a message."""
    validate_message(game, message)
    table = game.table
    plan = listener.plan_for(message)
    actions = table.env_actions
    path: tuple[str, ...] = ()
    # the enumeration is prefix-free, so a path is a whole trajectory
    # exactly when the episode ends there (terminal state or horizon)
    while (i := table.index.get(path)) is None:
        if listener.epsilon > 0 and rng.random() < listener.epsilon:
            a = actions[rng.integers(len(actions))]
        else:
            a = listener.planned_action(game, plan, len(path))
            if a not in actions:
                raise InvalidActionError(f"action {a!r} not in {actions}")
        path += (a,)
    return table.trajs[i]


@dataclass
class CommunityConfig:
    """Knobs for building a synthetic community around one game."""

    game: GameSpec
    n_speakers: int = 1
    n_listeners: int = 1
    epsilon: float = 0.0
    temp_msg: float = 1.0
    temp_target: float = 1.0
    greedy_msg: bool = False
    greedy_target: bool = False
    codebook_k: int = 64

    def __post_init__(self):
        check("community", COMMUNITY, values_of(self, COMMUNITY))

    def to_dict(self) -> dict:
        return {"game": self.game.to_json_dict(), **values_of(self, COMMUNITY)}

    @classmethod
    def from_dict(cls, doc: dict) -> "CommunityConfig":
        check("config", {**COMMUNITY, "game": Rule(OBJECT)}, doc)
        return cls(**{**doc, "game": GameSpec.from_json_dict(doc.get("game"))})


@dataclass(eq=False)
class Community:
    game: GameSpec
    speakers: list[SpeakerPolicy]
    listeners: list[ListenerPolicy]
    seed: int
    config: CommunityConfig
    # Boltzmann prior over `game.table.trajs`, exp(V / temp_target)
    prior: np.ndarray = field(init=False, repr=False)
    _prior_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.prior = _boltzmann(self.game.table.values,
                                self.config.temp_target)
        self._prior_cdf = _cdf(self.prior)

    @property
    def codebook(self) -> Mapping[str, tuple[str, ...]]:
        return self.listeners[0].codebook


def build_community(config: CommunityConfig, seed: int) -> Community:
    """Deterministically instantiate a community from (config, seed).

    A covering set of trajectories (all for lewis, top-K by return for the
    supermarket) gets distinct messages assigned by a seeded permutation.
    """
    seed = check_seed(seed)
    game = config.game
    table = game.table
    trajs = table.trajs
    if game.kind == "lewis":
        cover = list(trajs)
    else:
        # a stable sort keeps canonical-key order among equal returns
        ranked = [trajs[i] for i in np.argsort(-table.values, kind="stable")]
        cover = ranked[: min(config.codebook_k, len(ranked))]

    messages = table.messages[1:]
    if len(messages) < len(cover):
        raise VocabularyTooSmallError(
            f"{len(messages)} messages available but {len(cover)} plans need "
            f"distinct messages"
        )

    rng = np.random.default_rng([seed])
    perm = rng.permutation(len(messages))
    codebook = {
        messages[perm[i]].canonical(): cover[i].actions
        for i in range(len(cover))
    }

    listeners = [
        ListenerPolicy(codebook=dict(codebook), epsilon=config.epsilon)
        for _ in range(config.n_listeners)
    ]
    speakers = [
        SpeakerPolicy(
            listener_ref=listeners[0],
            temp_msg=config.temp_msg,
            greedy_msg=config.greedy_msg,
        )
        for _ in range(config.n_speakers)
    ]
    return Community(game=game, speakers=speakers, listeners=listeners,
                     seed=seed, config=config)


def target_prior_sample(community: Community,
                        rng: np.random.Generator) -> Trajectory:
    """Sample an intended trajectory from the Boltzmann prior over returns."""
    table = community.game.table
    if community.config.greedy_target:
        return table.trajs[int(np.argmax(table.values))]
    return table.trajs[_draw(community._prior_cdf, rng)]


def _boltzmann(scores: np.ndarray, temp: float) -> np.ndarray:
    """exp(scores / temp), normalized."""
    scaled = scores / temp
    w = np.exp(scaled - scaled.max())
    return w / w.sum()


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF that Generator.choice(len(probs), p=probs) searches."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Generator.choice(len(p), p=p) given the CDF of p.

    The same arithmetic as numpy's: the same index, drawn from the same
    single uniform, so the stream is left at the same position.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


def _speaker_table(
    speaker: SpeakerPolicy, game: GameSpec, target: Trajectory,
) -> tuple[list[Message], np.ndarray, np.ndarray]:
    """S(m*(target), m) over the emission space (length 1..L), always under the
    default DistanceConfig, and the CDF of the speaker's message distribution."""
    table = listener_table(speaker.listener_ref, game)
    try:
        dists = emission_distances(table, target, DistanceConfig())
    except SupportMismatchError as exc:  # not the config's to fix
        raise SupportMismatchError(
            f"{str(exc).partition(';')[0]}, and the speakers' lift (wasserstein1) and "
            "cap are fixed: the distances settings configure the detectors") from None
    return table.game.messages[1:], dists, _cdf(_boltzmann(-dists, speaker.temp_msg))


def speaker_message_dist(
    speaker: SpeakerPolicy, game: GameSpec, target: Trajectory,
) -> tuple[list[Message], np.ndarray]:
    """Message distribution exp(-S(m*, m)/temp) over messages of length 1..L."""
    msgs, dists, _ = _speaker_table(speaker, game, target)
    return msgs, _boltzmann(-dists, speaker.temp_msg)


def speaker_sample(speaker: SpeakerPolicy, game: GameSpec, target: Trajectory,
                   rng: np.random.Generator) -> Message:
    """Sample a message for a target trajectory from the Boltzmann emitter.

    The zero-temperature flag takes the Boltzmann limit over the emission
    space: the first message (shortest, then lexicographic) at minimal
    semantic distance from the optimal message, which is the optimal
    message itself whenever that message is emittable.
    """
    msgs, dists, cdf = _speaker_table(speaker, game, target)
    if speaker.greedy_msg:
        return msgs[int(np.argmin(dists))]
    return msgs[_draw(cdf, rng)]


# Every episode of a run at once: rng is a PCG64Array with one stream per
# episode, and each function makes the draws of its one-episode counterpart
# on every stream, in the same order, so stream i's results are that
# function's on default_rng stream i.

def _sample_targets(community: Community, rng) -> np.ndarray:
    """target_prior_sample per stream, as trajectory ids."""
    if community.config.greedy_target:
        return np.full(len(rng), int(np.argmax(community.game.table.values)))
    return community._prior_cdf.searchsorted(rng.random(), side="right")


def _sample_messages(community: Community, speaker_ids: np.ndarray,
                     targets: np.ndarray, rng) -> np.ndarray:
    """speaker_sample per stream, as ids into `game.table.messages`; one
    table read per distinct (speaker, target)."""
    speakers, trajs = community.speakers, community.game.table.trajs
    draws = ~np.array([s.greedy_msg for s in speakers])[speaker_ids]
    u = np.zeros(len(rng))
    u[draws] = rng.random(draws)
    pairs, group = np.unique(speaker_ids * len(trajs) + targets,
                             return_inverse=True)
    out = np.empty(len(rng), np.int64)
    for g, pair in enumerate(pairs.tolist()):
        s, t = divmod(pair, len(trajs))
        mine = group == g
        _, dists, cdf = _speaker_table(speakers[s], community.game, trajs[t])
        out[mine] = 1 + (np.argmin(dists) if speakers[s].greedy_msg
                         else cdf.searchsorted(u[mine], side="right"))
    return out


def _rollouts(community: Community, listener_ids: np.ndarray,
              message_ids: np.ndarray, rng) -> np.ndarray:
    """rollout per stream, as trajectory ids; messages are ids into
    `game.table.messages`."""
    table = community.game.table
    planned = np.empty((len(rng), table.ids.shape[1]), np.int64)
    epsilon = np.empty(len(rng))
    for j in np.unique(listener_ids).tolist():
        mine = listener_ids == j
        behaviour = listener_table(community.listeners[j], community.game)
        planned[mine] = behaviour.actions[message_ids[mine]]
        epsilon[mine] = community.listeners[j].epsilon
    return table.walk(planned, epsilon, rng)


COMMUNITY_FORMAT_VERSION = 1
# the keys of a saved community: the config and seed rebuild it
COMMUNITY_FILE = {
    "format_version": Rule(INTEGER, lambda v: v == COMMUNITY_FORMAT_VERSION,
                           str(COMMUNITY_FORMAT_VERSION)),
    "seed": INDEX,
    "config": Rule(OBJECT),
    "codebook": Rule(OBJECT, lambda v: all(map(LIST[0], v.values())),
                     "messages mapped to action lists"),
}


def save_community(community: Community, path) -> None:
    doc = {
        "format_version": COMMUNITY_FORMAT_VERSION,
        "seed": community.seed,
        "config": community.config.to_dict(),
        "codebook": {m: list(plan) for m, plan in community.codebook.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_community(path) -> Community:
    """Rebuild from (config, seed); the stored codebook is an integrity check.

    A file that is not JSON, or not a community document, is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, not UTF-8
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from None
    check("community file", COMMUNITY_FILE, doc, required=True)
    config = CommunityConfig.from_dict(doc["config"])
    community = build_community(config, doc["seed"])
    stored = {m: tuple(plan) for m, plan in doc["codebook"].items()}
    if stored != community.codebook:
        raise ConfigError("stored codebook does not match rebuilt community")
    return community
