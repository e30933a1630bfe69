"""Index tables compiled once per game and once per (game, listener).

A GameTable numbers the enumerated trajectories of a game in canonical-key
order and holds their returns V, a padded action-id matrix, the edit
distance matrix D, rows in bounded blocks on first use, each block one
vectorized Wagner-Fischer pass over the action-id matrix for many queries
at once (`rows`), each trajectory's coarse feature, kept from the
enumeration (`features`), the game's messages, and a
prefix trie of the trajectories that `walk` rolls out many episodes down
at once. A ListenerTable adds one listener's behaviour, indexed by the
game's message ids: a matrix P with one row per distinct behaviour of its
plans (the default plan included); per message, its planned action ids
(`actions`) and its row of P (`message_rows`); and the optimal message
per target (`mstar`). It also keeps, per lift, the semantic
matrix S over its behaviour rows as plain data, which
`semantics.distances` fills entry by entry as reads touch them (NaN
until then), and `semantics.load_semantics` from the LP entries another
process saved. Entries have the bits of the dict-based brute force.

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
    coarse_digest,
    discounted_return,
    enumerate_messages,
    enumerate_trajectories,
)

# cells of the largest Wagner-Fischer table block `GameTable._edit_rows` makes
EDIT_BLOCK_ELEMENTS = 2 ** 15


class GameTable:
    """Trajectories as integer ids, their returns, and edit distances.

    Build it through `game.table`, so that a game is enumerated once.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self.trajs, self._final_states = enumerate_trajectories(
            game, return_final_states=True)
        self.index = {t.actions: i for i, t in enumerate(self.trajs)}
        self.key_index = {t.canonical_key: i for i, t in enumerate(self.trajs)}
        # GameSpec.validate has checked gamma
        self.values = np.array([discounted_return(t, game.gamma)
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
    def features(self) -> list[str]:
        """Per trajectory, the coarse feature of the state it ends in, kept
        from the enumeration, so no trajectory is replayed for it."""
        return [coarse_digest(self.game, s) for s in self._final_states]

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
        id planned[i, k]; a walk ends at a leaf and then draws no more.
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

    def _edit_rows(self, queries: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Normalized edit distances from each query, the action ids
        queries[q, :n[q]], to every trajectory, in blocks of at most
        EDIT_BLOCK_ELEMENTS table cells."""
        size = max(EDIT_BLOCK_ELEMENTS // (self.ids.size + len(self.trajs)), 1)
        out = np.empty((len(queries), len(self.trajs)))
        for s in range(0, len(queries), size):
            out[s:s + size] = self._edit_block(queries[s:s + size],
                                               n[s:s + size])
        return out

    def _edit_block(self, queries: np.ndarray, n: np.ndarray) -> np.ndarray:
        """`_edit_rows` of one block: one Wagner-Fischer table per (query,
        trajectory) pair, all advanced together, a query's edit counts read
        at its last action. Insertions are a running minimum:
        c + min over c' <= c of best - c'."""
        ts = np.arange(len(self.trajs))
        dtype = np.int16 if max(self.ids.shape[1], n.max()) < 2 ** 14 else int
        cols = np.arange(self.ids.shape[1] + 1, dtype=dtype)
        prev = np.broadcast_to(cols, (len(queries), len(ts), len(cols)))
        edits = prev[:, ts, self.lengths]  # from the empty prefix
        for i in range(1, n.max() + 1):
            best = np.empty(prev.shape, dtype)
            best[..., 0] = i
            np.minimum(prev[..., :-1]
                       + (self.ids != queries[:, i - 1, None, None]),
                       prev[..., 1:] + 1, out=best[..., 1:])
            prev = np.minimum.accumulate(best - cols, axis=2) + cols
            ends = np.flatnonzero(n == i)
            edits[ends] = prev[ends[:, None], ts, self.lengths]
        return edits / np.maximum(np.maximum(self.lengths, n[:, None]), 1)

    def rows(self, idx) -> np.ndarray:
        """D[idx, :]; the rows not yet known are computed in one
        `_edit_rows` call and kept. D is symmetric."""
        idx = np.asarray(idx, dtype=np.int64).tolist()
        missing = list(dict.fromkeys(i for i in idx if i not in self._rows))
        if missing:
            self._rows.update(zip(missing, self._edit_rows(
                self.ids[missing], self.lengths[missing])))
        return np.array([self._rows[i] for i in idx]).reshape(
            len(idx), len(self.trajs))

    def row(self, i: int) -> np.ndarray:
        """D[i, :]."""
        return self.rows([i])[0]

    def cost(self, p_idx, q_idx) -> np.ndarray:
        """The transport cost submatrix D[p_idx][:, q_idx]."""
        return self.rows(p_idx)[:, q_idx]

    def column(self, tau: Trajectory) -> np.ndarray:
        """Distances from every trajectory to tau, which need not be enumerated."""
        if tau.game_fingerprint != self.game.fingerprint:
            raise DomainMismatchError("trajectories belong to different games")
        i = self.index.get(tau.actions)
        if i is not None:
            return self.row(i)
        # -1 matches no action of an enumerated trajectory
        a = [self._action_id.get(a, -1) for a in tau.actions]
        return self._edit_rows(np.array([a], np.int64), np.array([len(a)]))[0]


class ListenerTable:
    """One listener's behaviour on one game, indexed by message id."""

    def __init__(self, game: GameTable, listener):
        self.game = game
        plans = list(dict.fromkeys(
            (listener.default_plan, *listener.codebook.values())))
        plan_actions = _plan_actions(game, plans)
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
        # lift -> S, NaN where not yet read (semantics.distances)
        self.S: dict[str, np.ndarray] = {}

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

    def optimal_id(self, target: Trajectory) -> int:
        """A target's entry of `mstar`, or 0 (the null message) for an
        unenumerated target."""
        t = self.game.key_index.get(target.canonical_key)
        return 0 if t is None else int(self.mstar[t])


def _plan_actions(game: GameTable, plans) -> np.ndarray:
    """A[p, k]: the id of the action plan p takes at step k, over the steps
    some trajectory reaches. A plan shorter than that takes the pad action
    after its end: "pick" in the supermarket (off an item cell, a step in
    place), else the game's first action. A plan may only use the game's
    actions."""
    pad = "pick" if game.game.kind == "supermarket" else game.env_actions[0]
    ids = np.empty((len(plans), game.ids.shape[1]), np.int64)
    for p, plan in enumerate(plans):
        for k in range(game.ids.shape[1]):
            planned = plan[k] if k < len(plan) else pad
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
