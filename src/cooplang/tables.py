"""Index tables compiled once per game and once per (game, listener).

A GameTable numbers the enumerated trajectories of a game in canonical-key
order and holds their returns V, a padded action-id matrix, the edit
distance matrix D, a row at a time on first use, each row one vectorized
Wagner-Fischer pass over the action-id matrix, the game's messages, and a
prefix trie of the trajectories that `walk` rolls out many episodes down
at once. A ListenerTable adds one listener's behaviour, indexed by the
game's message ids: a matrix P with one row per distinct behaviour of its
plans (the default plan included); per message, its planned action ids
(`actions`) and its row of P (`message_rows`); and the optimal message
per target (`mstar`). It also keeps, per lift, the semantic
matrix S over its behaviour rows as plain data, which
`semantics.distances` builds whole on first read. Entries have the bits
of the dict-based brute force.

Tables hang off the objects that own their inputs: `GameSpec.table` builds
a game's on first use, and a listener keeps its ListenerTables, which its
speakers read, in `_dist_cache`, keyed by game fingerprint.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainMismatchError, InvalidActionError
from .games import (
    GameSpec,
    Trajectory,
    enumerate_messages,
    enumerate_trajectories,
    trajectory_return,
)


class GameTable:
    """Trajectories as integer ids, their returns, and edit distances.

    Build it through `game.table`, so that a game is enumerated once.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self.trajs = enumerate_trajectories(game)
        self.index = {t.actions: i for i, t in enumerate(self.trajs)}
        self.key_index = {t.canonical_key: i for i, t in enumerate(self.trajs)}
        self.values = np.array([trajectory_return(t, game.gamma)
                                for t in self.trajs])
        self.env_actions = game.env_actions
        self._action_id = {a: k for k, a in enumerate(self.env_actions)}
        # ids[i, k] is the id of trajectory i's k-th action, -1 past its end
        self.lengths = np.array([len(t) for t in self.trajs], dtype=np.int64)
        self.ids = np.full((len(self.trajs), self.lengths.max(initial=0)), -1)
        for i, t in enumerate(self.trajs):
            self.ids[i, :len(t)] = [self._action_id[a] for a in t.actions]
        self._rows: dict[int, np.ndarray] = {}

    @cached_property
    def messages(self) -> list:
        """Every message, the null message first, in enumeration order."""
        return enumerate_messages(self.game, include_null=True)

    @cached_property
    def message_ids(self) -> dict[str, int]:
        """Canonical form -> index in `messages`."""
        return {m.canonical(): i for i, m in enumerate(self.messages)}

    @cached_property
    def _trie(self) -> tuple[np.ndarray, np.ndarray]:
        """child[node, action] and, per node, the trajectory that ends there
        (-1 inside); node 0 is the empty prefix. The enumeration expands
        every action of a non-terminal state and is prefix-free, so every
        inner node has every child and the leaves are the trajectories."""
        child, leaf = [[-1] * len(self.env_actions)], [-1]
        for i, (ids, n) in enumerate(zip(self.ids.tolist(),
                                         self.lengths.tolist())):
            node = 0
            for a in ids[:n]:
                if child[node][a] < 0:
                    child[node][a] = len(leaf)
                    child.append([-1] * len(self.env_actions))
                    leaf.append(-1)
                node = child[node][a]
            leaf[node] = i
        return np.array(child), np.array(leaf)

    def walk(self, planned: np.ndarray, epsilon: np.ndarray, rng) -> np.ndarray:
        """Trajectory ids of one walk per stream of rng (a PCG64Array).

        At step k, walk i draws u = random() if epsilon[i] > 0 and takes
        action integers(len(env_actions)) when u < epsilon[i], else action
        id planned[i, k]: `community.rollout`'s draws, in its order.
        """
        child, leaf = self._trie
        node = np.zeros(len(planned), np.int64)
        for k in range(planned.shape[1]):
            live = leaf[node] < 0
            action = planned[:, k].copy()
            noisy = live & (epsilon > 0)
            noisy[noisy] = rng.random(noisy) < epsilon[noisy]
            action[noisy] = rng.integers(len(self.env_actions), noisy)
            node[live] = child[node[live], action[live]]
        return leaf[node]

    def _edit_row(self, a) -> np.ndarray:
        """Normalized edit distances from action ids a to every trajectory,
        by one Wagner-Fischer table per trajectory, all advanced together;
        insertions are a running minimum: c + min over c' <= c of best - c'."""
        cols = np.arange(self.ids.shape[1] + 1)
        prev = np.broadcast_to(cols, (len(self.trajs), len(cols)))
        for i, x in enumerate(a, start=1):
            best = np.empty_like(prev)
            best[:, 0] = i
            np.minimum(prev[:, :-1] + (self.ids != x), prev[:, 1:] + 1,
                       out=best[:, 1:])
            prev = np.minimum.accumulate(best - cols, axis=1) + cols
        edits = prev[np.arange(len(self.trajs)), self.lengths]
        return edits / np.maximum(np.maximum(self.lengths, len(a)), 1)

    def row(self, i: int) -> np.ndarray:
        """D[i, :], computed on first use; D is symmetric."""
        r = self._rows.get(i)
        if r is None:
            r = self._rows[i] = self._edit_row(self.ids[i, :self.lengths[i]])
        return r

    def cost(self, p_idx, q_idx) -> np.ndarray:
        """The transport cost submatrix D[p_idx][:, q_idx]."""
        return np.array([self.row(i)[q_idx] for i in p_idx])

    def column(self, tau: Trajectory) -> np.ndarray:
        """Distances from every trajectory to tau, which need not be enumerated."""
        if tau.game_fingerprint != self.game.fingerprint:
            raise DomainMismatchError("trajectories belong to different games")
        i = self.index.get(tau.actions)
        if i is not None:
            return self.row(i)
        # -1 matches no action of an enumerated trajectory
        return self._edit_row([self._action_id.get(a, -1) for a in tau.actions])


class ListenerTable:
    """One listener's behaviour on one game, indexed by message id."""

    def __init__(self, game: GameTable, listener):
        self.game = game
        plans = list(dict.fromkeys(
            (listener.default_plan, *listener.codebook.values())))
        plan_actions = _plan_actions(game, plans, listener)
        # plans with equal behaviour share a row, so a != b means P[a] != P[b]
        self.P, rows = np.unique(
            _plan_probs(game, plan_actions, listener.epsilon), axis=0,
            return_inverse=True)
        self.nnz = (self.P > 0).sum(axis=1)
        plan_id = {plan: p for p, plan in enumerate(plans)}
        message_plan = [plan_id[listener.plan_for(m)] for m in game.messages]
        # per message of `messages`: its planned action ids and its row of P
        self.actions = plan_actions[message_plan]
        self.message_rows = rows.ravel()[message_plan]
        self.S: dict[str, np.ndarray] = {}  # lift -> S (semantics.distances)

    def row(self, message) -> int:
        """The row of P of a game message; any other is a ConfigError."""
        i = self.game.message_ids.get(message.canonical())
        if i is None:
            raise ConfigError(
                f"{message.canonical()!r} is not a message of the game")
        return int(self.message_rows[i])

    @cached_property
    def mstar(self) -> np.ndarray:
        """Per trajectory, the index in `messages` of the first message
        maximizing P(trajectory | message), from the rows messages reach."""
        rows, first = np.unique(self.message_rows, return_index=True)
        P = self.P[rows]
        return np.where(P == P.max(0), first[:, None],
                        len(self.game.messages)).min(0)

    def optimal_message(self, target: Trajectory):
        """`mstar`'s message, or the null one for an unenumerated target."""
        t = self.game.key_index.get(target.canonical_key)
        return self.game.messages[0 if t is None else int(self.mstar[t])]


def _plan_actions(game: GameTable, plans, listener) -> np.ndarray:
    """A[p, k]: the id of the action plan p takes at step k, over the steps
    some trajectory reaches. A plan may only use the game's actions."""
    ids = np.empty((len(plans), game.ids.shape[1]), np.int64)
    for p, plan in enumerate(plans):
        for k in range(game.ids.shape[1]):
            planned = listener.planned_action(game.game, plan, k)
            if planned not in game.env_actions:
                raise InvalidActionError(
                    f"action {planned!r} not in {game.env_actions}")
            ids[p, k] = game._action_id[planned]
    return ids


def _plan_probs(game: GameTable, plan_actions: np.ndarray,
                epsilon: float) -> np.ndarray:
    """P[p, t]: the left-to-right product over steps k of the chance,
    (1 - epsilon) * planned + epsilon / n, of trajectory t's k-th action.

    The k-th factors of all plans and trajectories are one array, from
    column k of both action-id matrices; a trajectory that has ended
    before step k keeps its product unchanged.
    """
    n = len(game.env_actions)
    probs = np.ones((len(plan_actions), len(game.trajs)))
    for k in range(game.ids.shape[1]):
        step = ((1.0 - epsilon) * (plan_actions[:, k, None] == game.ids[:, k])
                + epsilon / n)
        probs = np.where(k < game.lengths, probs * step, probs)
    return probs


def listener_table(listener, game: GameSpec) -> ListenerTable:
    """The listener's table for this game, built on first use."""
    table = listener._dist_cache.get(game.fingerprint)
    if table is None:
        table = listener._dist_cache[game.fingerprint] = ListenerTable(
            game.table, listener)
    return table
