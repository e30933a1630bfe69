"""Referential-game environments: Lewis signalling and a gridworld supermarket.

Both games are deterministic finite-horizon environments with a single
acting listener. The speaker only communicates; its message is delivered
before the first environment step. State digests are injective strings so
that a trajectory is fully identified by its initial digest plus the
action-id sequence.
"""

from __future__ import annotations

import hashlib
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

DEFAULT_ENUMERATION_CAP = 100_000

SUPERMARKET_ACTIONS = ("N", "E", "S", "W", "pick")

_GAME_JSON_FIELDS = {
    "kind",
    "vocab",
    "max_msg_len",
    "horizon",
    "gamma",
    "reward_params",
    "layout",
}


@dataclass(frozen=True)
class GameSpec:
    """A finite referential game, immutable once built.

    kind: "lewis" or "supermarket".
    vocab: token alphabet for messages.
    max_msg_len: maximum message length L.
    horizon: maximum number of environment steps H.
    gamma: discount factor.
    reward_params: per-kind reward constants.
    layout: per-kind structure (candidates/target, or grid/items/list/start).

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
        object.__setattr__(self, "vocab", tuple(self.vocab))
        object.__setattr__(self, "reward_params", _freeze(self.reward_params))
        object.__setattr__(self, "layout", _freeze(self.layout))
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
        if self.kind not in ("lewis", "supermarket"):
            raise ConfigError(f"unknown game kind {self.kind!r}")
        if not self.vocab:
            raise ConfigError("vocab must be non-empty")
        if len(set(self.vocab)) != len(self.vocab):
            raise ConfigError("vocab tokens must be distinct")
        if self.max_msg_len < 1:
            raise ConfigError("max_msg_len must be >= 1")
        if len(self.vocab) ** self.max_msg_len > DEFAULT_ENUMERATION_CAP:
            raise ConfigError(
                f"|vocab|^L = {len(self.vocab) ** self.max_msg_len} exceeds "
                f"enumeration cap {DEFAULT_ENUMERATION_CAP}"
            )
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if self.kind == "lewis":
            if self.horizon != 1:
                raise ConfigError("lewis games must have horizon 1")
            cands = self.layout.get("candidates")
            if not cands:
                raise ConfigError("lewis layout needs a candidate list")
            target = self.layout.get("target")
            if not isinstance(target, int) or not 0 <= target < len(cands):
                raise ConfigError("lewis target index out of range")
            if "pick_reward" not in self.reward_params:
                raise ConfigError("lewis reward_params needs pick_reward")
        else:
            w, h = self.layout.get("width"), self.layout.get("height")
            if not (isinstance(w, int) and isinstance(h, int) and w > 0 and h > 0):
                raise ConfigError("supermarket layout needs positive width/height")
            for key in ("items", "shopping_list"):
                if key not in self.layout:
                    raise ConfigError(f"supermarket layout needs {key}")
            items = self.layout["items"]
            if not isinstance(items, Mapping):
                raise ConfigError("supermarket items must map names to cells")
            for name, cell in items.items():
                if not _in_grid(cell, w, h):
                    raise ConfigError(f"item {name!r} is not on an [x, y] grid cell")
            if len(set(items.values())) != len(items):
                raise ConfigError("supermarket items must occupy distinct cells")
            for name in self.layout["shopping_list"]:
                if name not in items:
                    raise ConfigError(f"shopping list item {name!r} not on the map")
            if not _in_grid(self.layout.get("start"), w, h):
                raise ConfigError("supermarket start is not an [x, y] grid cell")
            for key in ("step_penalty", "item_reward"):
                if key not in self.reward_params:
                    raise ConfigError(f"supermarket reward_params needs {key}")

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
        return {
            "kind": self.kind,
            "vocab": list(self.vocab),
            "max_msg_len": self.max_msg_len,
            "horizon": self.horizon,
            "gamma": self.gamma,
            "reward_params": _thaw(self.reward_params),
            "layout": _thaw(self.layout),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GameSpec":
        unknown = set(doc) - _GAME_JSON_FIELDS
        if unknown:
            raise ConfigError(f"unknown GameSpec fields: {sorted(unknown)}")
        missing = _GAME_JSON_FIELDS - set(doc)
        if missing:
            raise ConfigError(f"missing GameSpec fields: {sorted(missing)}")
        return cls(
            kind=doc["kind"],
            vocab=tuple(doc["vocab"]),
            max_msg_len=doc["max_msg_len"],
            horizon=doc["horizon"],
            gamma=doc["gamma"],
            reward_params=dict(doc["reward_params"]),
            layout=dict(doc["layout"]),
        )


def _in_grid(cell, width: int, height: int) -> bool:
    """Is cell a pair of ints (x, y) inside a width x height grid?"""
    return (isinstance(cell, tuple) and len(cell) == 2
            and all(isinstance(v, int) for v in cell)
            and 0 <= cell[0] < width and 0 <= cell[1] < height)


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

    @property
    def actions(self) -> tuple[str, ...]:
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


def final_state(game: GameSpec, tau: Trajectory):
    state = game.initial_state()
    for a in tau.actions:
        state = step(game, state, a).next_state
    return state


def trajectory_return(tau: Trajectory, gamma: float) -> float:
    """Discounted sum of rewards along a trajectory."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("gamma must lie in [0, 1]")
    total = 0.0
    weight = 1.0
    for _, _, r in tau.steps:
        total += weight * r
        weight *= gamma
    return total


def enumerate_trajectories(
    game: GameSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Trajectory]:
    """Every feasible trajectory up to the horizon, sorted by canonical key.

    Early termination truncates branches, so the trajectory set is
    prefix-free over action sequences.
    """
    n_actions = len(game.env_actions)
    if game.horizon > 0 and n_actions ** game.horizon > cap:
        raise EnumerationCapError(n_actions ** game.horizon, cap)

    fp = game_fingerprint(game)
    out: dict[str, Trajectory] = {}

    def expand(state, steps):
        if len(steps) >= game.horizon or is_terminal(game, state):
            actions = [a for _, a, _ in steps]
            key = canonical_key_for(game, actions)
            out.setdefault(
                key, Trajectory(steps=tuple(steps), canonical_key=key,
                                game_fingerprint=fp)
            )
            return
        for a in game.env_actions:
            res = step(game, state, a)
            expand(res.next_state,
                   steps + [(state_digest(game, state), a, res.reward)])

    expand(game.initial_state(), [])
    return [out[k] for k in sorted(out)]
