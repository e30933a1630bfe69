"""Index tables compiled once per game and once per (game, listener).

A GameTable numbers the enumerated trajectories of a game in canonical-key
order and holds their returns V and the trajectory edit-distance matrix D,
filled row by row on demand. A ListenerTable adds one listener's
behaviour: a matrix P with one row per distinct behaviour of its plans
(the default plan included), a message -> row map, the optimal message
per target and, per distance lift, a plan x plan semantic matrix S filled
lazily. Every entry is computed by the same function the dict-based public
API uses, so lookups return the same bits.

Tables hang off the objects that own their inputs: a game builds its
GameTable on first use (`GameSpec.table`), and a listener keeps its
ListenerTables in `_dist_cache`, keyed by game fingerprint.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainMismatchError
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
        self._rows: dict[int, np.ndarray] = {}

    def row(self, i: int) -> np.ndarray:
        """D[i, :], computed on first use; D is symmetric."""
        r = self._rows.get(i)
        if r is None:
            from .semantics import trajectory_distance  # semantics imports this module
            t = self.trajs[i]
            r = np.array([
                self._rows[j][i] if j in self._rows
                else trajectory_distance(t, u)
                for j, u in enumerate(self.trajs)
            ])
            self._rows[i] = r
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
        from .semantics import trajectory_distance
        return np.array([trajectory_distance(t, tau) for t in self.trajs])


class ListenerTable:
    """One listener's behaviour on one game, with lazily filled distances."""

    def __init__(self, game: GameTable, listener):
        self.game = game
        plans = list(dict.fromkeys(
            (listener.default_plan, *listener.codebook.values())))
        # plans with equal behaviour share a row, so a != b means P[a] != P[b]
        rows: dict[bytes, int] = {}
        kept, row_of_plan = [], {}
        for plan, prob in zip(plans, _plan_probs(game, plans, listener)):
            row = rows.setdefault(prob.tobytes(), len(kept))
            if row == len(kept):
                kept.append(prob)
            row_of_plan[plan] = row
        self.P = np.array(kept)
        self.nnz = (self.P > 0).sum(axis=1)
        self.default_row = row_of_plan[listener.default_plan]
        self.row_of = {canon: row_of_plan[plan]
                       for canon, plan in listener.codebook.items()}
        self._mstar: dict[int, object] = {}
        self._S: dict[str, np.ndarray] = {}

    def row(self, message) -> int:
        return self.row_of.get(message.canonical(), self.default_row)

    def dist(self, row: int) -> dict[Trajectory, float]:
        return dict(zip(self.game.trajs, self.P[row].tolist()))

    @cached_property
    def messages(self) -> list:
        """Every message, the null message first, in enumeration order."""
        from .community import enumerate_messages  # community imports this module
        return enumerate_messages(self.game.game, include_null=True)

    @cached_property
    def message_rows(self) -> np.ndarray:
        return np.array([self.row(m) for m in self.messages])

    def optimal_message(self, target: Trajectory):
        """First message in enumeration order maximizing P(target | message)."""
        t = self.game.key_index.get(target.canonical_key)
        if t is None:  # P(target | m) = 0 for every m
            return self.messages[0]
        m = self._mstar.get(t)
        if m is None:
            m = self._mstar[t] = self.messages[
                int(np.argmax(self.P[self.message_rows, t]))]
        return m

    def distance(self, a: int, b: int, cfg) -> float:
        """The lifted distance between behaviour rows a and b.

        The support cap is checked on every call; only values are stored.
        """
        if a == b:
            return 0.0
        from . import semantics
        if cfg.dist_lift == "wasserstein1":
            semantics._check_support_cap(max(self.nnz[a], self.nnz[b]), cfg)
        S = self._S.get(cfg.dist_lift)
        if S is None:
            S = self._S[cfg.dist_lift] = np.full((len(self.P),) * 2, np.nan)
        d = S[a, b]
        if np.isnan(d):
            semantics._check_normalized(self.P[a].tolist(), "p")
            semantics._check_normalized(self.P[b].tolist(), "q")
            d = S[a, b] = S[b, a] = semantics._lift(
                self.P[a], self.P[b], self.game.cost, cfg)
        return float(d)

    def distances(self, a: int, rows: np.ndarray, cfg) -> np.ndarray:
        """[distance(a, b) for b in rows], one evaluation per distinct row."""
        lut = np.zeros(len(self.P))
        for b in dict.fromkeys(rows.tolist()):
            lut[b] = self.distance(a, b, cfg)
        return lut[rows]


def _plan_probs(game: GameTable, plans, listener) -> np.ndarray:
    """P[p, t]: the left-to-right product of listener.step_action_prob.

    The k-th factor is computed for every trajectory at once; a trajectory
    that has ended before step k keeps its product unchanged.
    """
    horizon = max((len(t) for t in game.trajs), default=0)
    taken = np.array([t.actions + ("",) * (horizon - len(t))
                      for t in game.trajs]).reshape(len(game.trajs), horizon)
    probs = np.ones((len(plans), len(game.trajs)))
    for p, plan in enumerate(plans):
        for k in range(horizon):
            step = listener.step_action_prob(game.game, plan, k, taken[:, k])
            probs[p] = np.where(taken[:, k] != "", probs[p] * step, probs[p])
    return probs


def listener_table(listener, game: GameSpec) -> ListenerTable:
    """The listener's table for this game, built on first use."""
    table = listener._dist_cache.get(game.fingerprint)
    if table is None:
        table = listener._dist_cache[game.fingerprint] = ListenerTable(
            game.table, listener)
    return table
