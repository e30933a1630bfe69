"""Index tables compiled once per game and once per (game, listener).

A GameTable numbers the enumerated trajectories of a game in canonical-key
order and holds their returns V, a padded action-id matrix, the edit
distance matrix D, a row at a time on first use, each row one vectorized
Wagner-Fischer pass over the action-id matrix, the game's messages, and a
prefix trie of the trajectories that `walk` rolls out many episodes down
at once. A ListenerTable adds one listener's behaviour: a plan x step
action-id matrix, a matrix P with one row per distinct behaviour of its
plans (the default plan included), a message -> plan map, the optimal
message per target (`mstar`) and, per lift, the plan x plan semantic matrix
S, built whole on first read by `semantics._lift`; under Wasserstein-1 the
block between point-mass rows is read from D instead. Entries have the bits
of the dict-based brute force.

Tables hang off the objects that own their inputs: `GameSpec.table` builds
a game's on first use, and a listener keeps its ListenerTables, which its
speakers read, in `_dist_cache`, keyed by game fingerprint.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import cached_property

import numpy as np

from .errors import DomainMismatchError, InvalidActionError
from .games import (
    GameSpec,
    Trajectory,
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
        from .community import enumerate_messages  # community imports this module
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
    """One listener's behaviour on one game, and its semantic matrices."""

    def __init__(self, game: GameTable, listener):
        self.game = game
        # plan 0 is the default plan, which unknown messages fall back to
        plans = list(dict.fromkeys(
            (listener.default_plan, *listener.codebook.values())))
        self.plan_actions = _plan_actions(game, plans, listener)
        # plans with equal behaviour share a row, so a != b means P[a] != P[b]
        self.P, rows = np.unique(_plan_probs(game, plans, listener), axis=0,
                                 return_inverse=True)
        self.plan_rows = rows.ravel()
        self.nnz = (self.P > 0).sum(axis=1)
        plan_id = {plan: p for p, plan in enumerate(plans)}
        self.plan_of = {canon: plan_id[plan]
                        for canon, plan in listener.codebook.items()}
        self._S: dict[str, np.ndarray] = {}

    def row(self, message) -> int:
        return int(self.plan_rows[self.plan_of.get(message.canonical(), 0)])

    @cached_property
    def message_plans(self) -> np.ndarray:
        """The plan of each of the game's messages, in `messages` order."""
        return np.array([self.plan_of.get(m.canonical(), 0)
                         for m in self.game.messages])

    @cached_property
    def message_rows(self) -> np.ndarray:
        return self.plan_rows[self.message_plans]

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

    def emission_distances(self, target: Trajectory, cfg) -> np.ndarray:
        """S(m*(target), m) for every m of the emission space `messages[1:]`."""
        return self.distances(self.row(self.optimal_message(target)),
                              self.message_rows[1:], cfg)

    def distances(self, a: int, rows, cfg) -> np.ndarray:
        """S[a, rows]: lifted distances from behaviour row a to rows.

        rows is a row or an array of rows. The Wasserstein support cap is
        checked on every call, on the rows read; S holds only values.
        """
        from . import semantics  # semantics imports this module
        if cfg.dist_lift == "wasserstein1" and np.any(rows != a):
            semantics._check_support_cap(
                max(self.nnz[a], self.nnz[rows].max()), cfg)
        S = self._S.get(cfg.dist_lift)
        if S is None:
            for p in self.P:
                semantics._check_normalized(p.tolist(), "p")
            # values do not depend on the cap, which the check above applied
            whole = replace(cfg, wasserstein_support_cap=len(self.game.trajs))
            S = np.zeros((len(self.P),) * 2)
            pairs = itertools.combinations(range(len(self.P)), 2)
            if cfg.dist_lift == "wasserstein1":
                # W1 between point masses is the distance of their atoms
                point = np.flatnonzero(self.nnz == 1)
                atoms = self.P[point].argmax(axis=1)
                S[np.ix_(point, point)] = self.game.cost(atoms, atoms)
                pairs = [(b, c) for b, c in pairs
                         if self.nnz[b] > 1 or self.nnz[c] > 1]
            for b, c in pairs:
                S[b, c] = S[c, b] = semantics._lift(
                    self.P[b], self.P[c], self.game.cost, whole)
            self._S[cfg.dist_lift] = S  # whole, or not at all
        return S[a, rows]


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


def _plan_probs(game: GameTable, plans, listener) -> np.ndarray:
    """P[p, t]: the left-to-right product of listener.step_action_prob.

    The k-th factor is computed for every trajectory at once from column k
    of the action-id matrix; a trajectory that has ended before step k
    keeps its product unchanged.
    """
    actions = np.array(game.env_actions)
    probs = np.ones((len(plans), len(game.trajs)))
    for p, plan in enumerate(plans):
        for k in range(game.ids.shape[1]):
            step = listener.step_action_prob(game.game, plan, k,
                                             actions[game.ids[:, k]])
            probs[p] = np.where(k < game.lengths, probs[p] * step, probs[p])
    return probs


def listener_table(listener, game: GameSpec) -> ListenerTable:
    """The listener's table for this game, built on first use."""
    table = listener._dist_cache.get(game.fingerprint)
    if table is None:
        table = listener._dist_cache[game.fingerprint] = ListenerTable(
            game.table, listener)
    return table
