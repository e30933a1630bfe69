"""Brute-force references that the tests hold the index tables to.

Each one computes its value the dict way, one trajectory at a time, from
the game's enumeration and the trajectory metric, apart from the tables
in `cooplang.tables`. `linprog_fun` is scipy's own LP wrapper, the
reference for the direct HiGHS call in `cooplang.semantics.linprog`.
"""

import numpy as np

from cooplang import enumerate_trajectories, trajectory_distance
from cooplang.errors import SupportMismatchError
from cooplang.semantics import _check_normalized, _lift


def behaviour(game, listener, message):
    """The listener's exact trajectory distribution given a message: per
    enumerated trajectory, the product of its noised plan-step
    probabilities, in enumeration order."""
    plan = listener.codebook.get(message.canonical(), listener.default_plan)
    pad = "pick" if game.kind == "supermarket" else game.env_actions[0]
    n = len(game.env_actions)
    out = {}
    for t in enumerate_trajectories(game):
        p = 1.0
        for k, a in enumerate(t.actions):
            planned = plan[k] if k < len(plan) else pad
            p *= (1.0 - listener.epsilon) * (a == planned) + listener.epsilon / n
        out[t] = p
    return out


def distribution_distance(p, q, cfg):
    """Lift the trajectory metric to two distributions on a shared finite
    support, each a dict from trajectory to probability; transport costs
    come from `trajectory_distance`, pair by pair."""
    if set(t.canonical_key for t in p) != set(t.canonical_key for t in q):
        raise SupportMismatchError("distributions have different supports")
    _check_normalized(p.values(), "p")
    _check_normalized(q.values(), "q")

    support = sorted(p, key=lambda t: t.canonical_key)
    pv = np.array([p[t] for t in support])
    qv = np.array([q[t] for t in support])

    def cost(p_idx, q_idx):
        return np.array([
            [trajectory_distance(support[i], support[j]) for j in q_idx]
            for i in p_idx
        ])

    return _lift(pv, qv, cost, cfg)


def linprog_fun(c, A_eq, b_eq):
    """The optimum of min c @ x, A_eq @ x = b_eq, x >= 0, as
    `scipy.optimize.linprog(method="highs")` reports it."""
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A_eq, b_eq=b_eq, method="highs")
    assert res.success, res.message
    return res.fun
