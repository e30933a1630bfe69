"""Referential-game environments: Lewis signalling and a gridworld supermarket,
and the message space that a game's vocab and message length L span.

Both games are deterministic finite-horizon environments with a single
acting listener. The speaker only communicates; its message is delivered
before the first environment step. State digests are injective strings so
that a trajectory is fully identified by its initial digest plus the
action-id sequence.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import (
    ConfigError,
    EnumerationCapError,
    InvalidActionError,
    TerminalStateError,
)
from .schema import GAME, LAYOUT, REWARD_PARAMS, check, values_of

DEFAULT_ENUMERATION_CAP = 100_000

SUPERMARKET_ACTIONS = ("N", "E", "S", "W", "pick")


@dataclass(frozen=True)
class GameSpec:
    """A finite referential game, immutable once built.

    The fields are the keys of a config's game section, with the rules of
    `schema.GAME`, `schema.LAYOUT` and `schema.REWARD_PARAMS`.

    reward_params and layout are stored read-only (mappings as mapping
    proxies, lists as tuples), so the fingerprint, computed once from the
    canonical JSON form, and the table, built on first use, cannot go
    stale.
    """

    kind: str
    vocab: tuple[str, ...]
    max_msg_len: int
    horizon: int
    gamma: float
    reward_params: Mapping
    layout: Mapping
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("vocab", "reward_params", "layout"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        self.validate()
        blob = json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))
        object.__setattr__(self, "fingerprint",
                           hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16])

    @cached_property
    def table(self):
        """The game's GameTable: trajectory ids, returns and edit distances."""
        from .tables import GameTable  # tables imports this module
        return GameTable(self)

    def validate(self) -> None:
        """The schema's rules, then the checks that relate keys."""
        doc = self.to_json_dict()
        check("game", GAME, doc, required=True)
        check("game.layout", LAYOUT[self.kind], doc["layout"], required=True)
        check("game.reward_params", REWARD_PARAMS[self.kind],
              doc["reward_params"], required=True)
        # n ** L > cap for n >= 2 once L >= cap.bit_length(): clip a huge L
        cap = DEFAULT_ENUMERATION_CAP
        if len(self.vocab) ** min(self.max_msg_len, cap.bit_length()) > cap:
            raise ConfigError(f"|vocab|^max_msg_len exceeds the cap {cap}, got "
                              f"{self.max_msg_len} (game.max_msg_len)")
        layout = self.layout
        if self.kind == "lewis":
            if self.horizon != 1:
                raise ConfigError(
                    "lewis games must have horizon 1 (game.horizon)")
            if layout["target"] >= len(layout["candidates"]):
                raise ConfigError("target must index the candidates, got "
                                  f"{layout['target']} (game.layout.target)")
            return
        w, h, items = layout["width"], layout["height"], layout["items"]
        for name, (x, y) in (*items.items(), ("start", layout["start"])):
            if not (0 <= x < w and 0 <= y < h):
                raise ConfigError(f"{name!r} cell [{x}, {y}] is off the "
                                  f"{w}x{h} grid (game.layout)")
        if len(set(items.values())) != len(items):
            raise ConfigError(
                "items must occupy distinct cells (game.layout.items)")
        off_map = [n for n in layout["shopping_list"] if n not in items]
        if off_map:
            raise ConfigError(f"shopping list items {off_map} are not on the "
                              "map (game.layout.shopping_list)")

    @property
    def env_actions(self) -> tuple[str, ...]:
        if self.kind == "lewis":
            return tuple(f"pick{k}" for k in range(len(self.layout["candidates"])))
        return SUPERMARKET_ACTIONS

    def initial_state(self):
        if self.kind == "lewis":
            return ("start",)
        sx, sy = self.layout["start"]
        return (sx, sy, frozenset())

    def to_json_dict(self) -> dict:
        return {key: _thaw(v) for key, v in values_of(self, GAME).items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GameSpec":
        check("game", GAME, doc, required=True)
        return cls(**doc)


def _freeze(value):
    """A read-only copy: mappings become mapping proxies, lists tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """The JSON form of a frozen value: dicts and lists."""
    if isinstance(value, Mapping):
        return {k: _thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def game_fingerprint(game: GameSpec) -> str:
    """Stable digest of a game's canonical JSON form, computed at construction."""
    return game.fingerprint


@dataclass(frozen=True)
class Message:
    """A bounded token sequence; the empty sequence is the null message."""

    tokens: tuple[str, ...]

    def canonical(self) -> str:
        return " ".join(self.tokens)

    def is_null(self) -> bool:
        return not self.tokens

    @classmethod
    def from_canonical(cls, text: str) -> "Message":
        return cls(tuple(text.split())) if text else NULL_MESSAGE


NULL_MESSAGE = Message(())


def validate_message(game: GameSpec, message: Message) -> None:
    if len(message.tokens) > game.max_msg_len:
        raise ConfigError(
            f"message length {len(message.tokens)} exceeds L={game.max_msg_len}"
        )
    bad = [t for t in message.tokens if t not in game.vocab]
    if bad:
        raise ConfigError(f"tokens {bad} not in vocab")


def enumerate_messages(game: GameSpec,
                       include_null: bool = False) -> list[Message]:
    """All messages of length 1..L in (length, lexicographic) order."""
    toks = sorted(game.vocab)
    total = 0
    for n in range(1, game.max_msg_len + 1):
        total += len(toks) ** n
        if total > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(total, DEFAULT_ENUMERATION_CAP,
                                      what="messages")
    msgs: list[Message] = [NULL_MESSAGE] if include_null else []
    for length in range(1, game.max_msg_len + 1):
        msgs.extend(Message(combo) for combo in itertools.product(toks, repeat=length))
    return msgs


def lewis_game(
    n_candidates: int = 3,
    target: int = 0,
    vocab: tuple[str, ...] = ("a", "b", "c"),
    max_msg_len: int = 1,
    pick_reward: float = 1.0,
    gamma: float = 1.0,
) -> GameSpec:
    """A one-shot signalling game: pick the right candidate."""
    return GameSpec(
        kind="lewis",
        vocab=vocab,
        max_msg_len=max_msg_len,
        horizon=1,
        gamma=gamma,
        reward_params={"pick_reward": pick_reward},
        layout={
            "candidates": [f"cand{k}" for k in range(n_candidates)],
            "target": target,
        },
    )


def supermarket_game(
    width: int,
    height: int,
    items: dict[str, tuple[int, int]],
    shopping_list: list[str],
    start: tuple[int, int],
    horizon: int,
    vocab: tuple[str, ...],
    max_msg_len: int = 2,
    step_penalty: float = -0.05,
    item_reward: float = 1.0,
    gamma: float = 1.0,
) -> GameSpec:
    """A gridworld where the listener collects listed items as fast as possible."""
    return GameSpec(
        kind="supermarket",
        vocab=vocab,
        max_msg_len=max_msg_len,
        horizon=horizon,
        gamma=gamma,
        reward_params={"step_penalty": step_penalty, "item_reward": item_reward},
        layout={
            "width": width,
            "height": height,
            "items": {name: tuple(cell) for name, cell in items.items()},
            "shopping_list": list(shopping_list),
            "start": tuple(start),
        },
    )


def state_digest(game: GameSpec, state) -> str:
    if game.kind == "lewis":
        return state[0] if state[0] == "start" else f"picked:{state[1]}"
    x, y, collected = state
    return f"{x},{y}|" + "+".join(sorted(collected))


def is_terminal(game: GameSpec, state) -> bool:
    if game.kind == "lewis":
        return state[0] != "start"
    _, _, collected = state
    return set(game.layout["shopping_list"]) <= collected


@dataclass(frozen=True)
class StepOutcome:
    next_state: tuple
    reward: float


_MOVES = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}


def step(game: GameSpec, state, action: str) -> StepOutcome:
    """Apply one deterministic environment step."""
    if action not in game.env_actions:
        raise InvalidActionError(f"action {action!r} not in {game.env_actions}")
    if is_terminal(game, state):
        raise TerminalStateError("cannot step a terminal state")

    if game.kind == "lewis":
        k = int(action[len("pick"):])
        reward = game.reward_params["pick_reward"] if k == game.layout["target"] else 0.0
        return StepOutcome(("picked", k), reward)

    x, y, collected = state
    if action in _MOVES:
        dx, dy = _MOVES[action]
        nx = min(max(x + dx, 0), game.layout["width"] - 1)
        ny = min(max(y + dy, 0), game.layout["height"] - 1)
        return StepOutcome((nx, ny, collected), game.reward_params["step_penalty"])

    # pick: collects an uncollected listed item on this cell, else a no-op step
    listed = set(game.layout["shopping_list"])
    here = [name for name, cell in game.layout["items"].items()
            if cell == (x, y) and name in listed and name not in collected]
    if here:
        return StepOutcome((x, y, collected | {min(here)}),
                           game.reward_params["item_reward"])
    return StepOutcome(state, game.reward_params["step_penalty"])


@dataclass(frozen=True)
class Trajectory:
    """A finite state-action-reward sequence for the listener.

    steps hold (pre-action state digest, action id, reward) triples. The
    canonical key combines the initial digest with the action-id sequence,
    which identifies the trajectory under deterministic dynamics.
    """

    steps: tuple[tuple[str, str, float], ...]
    canonical_key: str
    game_fingerprint: str

    @cached_property
    def actions(self) -> tuple[str, ...]:
        """The action ids, built on the first read; the cache sits in the
        instance dict, which equality, hash and repr do not read."""
        return tuple(a for _, a, _ in self.steps)

    @property
    def rewards(self) -> tuple[float, ...]:
        return tuple(r for _, _, r in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def canonical_key_for(game: GameSpec, actions) -> str:
    return state_digest(game, game.initial_state()) + "::" + ",".join(actions)


def make_trajectory(game: GameSpec, actions) -> Trajectory:
    """Replay an action sequence from the initial state into a Trajectory."""
    state = game.initial_state()
    steps = []
    for a in actions:
        out = step(game, state, a)
        steps.append((state_digest(game, state), a, out.reward))
        state = out.next_state
    return Trajectory(
        steps=tuple(steps),
        canonical_key=canonical_key_for(game, actions),
        game_fingerprint=game_fingerprint(game),
    )


def coarse_digest(game: GameSpec, state) -> str:
    """A state's coarse feature: the picked candidate (lewis) or the
    collected item set."""
    if game.kind == "lewis":
        return "none" if state[0] == "start" else f"picked:{state[1]}"
    return "+".join(sorted(state[2]))


def final_state(game: GameSpec, tau: Trajectory):
    state = game.initial_state()
    for a in tau.actions:
        state = step(game, state, a).next_state
    return state


def trajectory_return(tau: Trajectory, gamma: float) -> float:
    """Discounted sum of rewards along a trajectory."""
    check("game", GAME, {"gamma": gamma})
    return discounted_return(tau, gamma)


def discounted_return(tau: Trajectory, gamma: float) -> float:
    """`trajectory_return` of a gamma already checked, as a game's is."""
    total = 0.0
    weight = 1.0
    for _, _, r in tau.steps:
        total += weight * r
        weight *= gamma
    return total


def enumerate_trajectories(game: GameSpec,
                           cap: int = DEFAULT_ENUMERATION_CAP,
                           return_final_states: bool = False):
    """Every feasible trajectory up to the horizon, sorted by canonical key,
    and, if return_final_states, the state each one ends in, in the same
    order.

    Early termination truncates branches, so the trajectory set is
    prefix-free over action sequences.
    """
    # n ** horizon > cap for n >= 2 once horizon >= cap.bit_length()
    needed = len(game.env_actions) ** min(game.horizon, cap.bit_length())
    if needed > cap:
        raise EnumerationCapError(needed, cap)

    fp = game_fingerprint(game)
    out: dict[str, tuple[Trajectory, tuple]] = {}  # key -> (leaf, state)

    def expand(state, steps):
        if len(steps) >= game.horizon or is_terminal(game, state):
            actions = [a for _, a, _ in steps]
            key = canonical_key_for(game, actions)
            out.setdefault(key, (Trajectory(
                steps=tuple(steps), canonical_key=key, game_fingerprint=fp),
                state))
            return
        for a in game.env_actions:
            res = step(game, state, a)
            expand(res.next_state,
                   steps + [(state_digest(game, state), a, res.reward)])

    expand(game.initial_state(), [])
    trajs, states = zip(*map(out.get, sorted(out)))
    return (list(trajs), list(states)) if return_final_states else list(trajs)
