"""Brute-force references that the tests hold the index tables to.

Each one computes its value the dict way, one trajectory at a time, from
the game's enumeration and the trajectory metric, apart from the tables
in `cooplang.tables`. `linprog_fun` is scipy's own LP wrapper, the
reference for the direct HiGHS call in `cooplang.semantics.linprog`.

`target_prior_sample`, `speaker_sample` and `rollout` simulate one episode
on a numpy Generator, drawing every category with its own
`Generator.choice`; they are the references for the batch episode
simulator in `cooplang.community`.

`fit_broca` and `fit_wernicke` count one record at a time, over
`dataset.records`; they are the references for the estimators, which count
once per distinct (message, trajectory) pair.

`load_line_by_line` parses every record line alone; it is the reference
for `cooplang.data.load`'s memo of record bodies and its column pass over
the field texts.
"""

import json

import numpy as np

from cooplang import (DistanceConfig, enumerate_messages,
                      enumerate_trajectories, optimal_message,
                      semantic_distance, trajectory_distance)
from cooplang.community import speaker_message_dist
from cooplang.data import _dataset, _fields
from cooplang.errors import (ConfigError, DatasetParseError,
                             InvalidActionError, SupportMismatchError)
from cooplang.games import validate_message
from cooplang.inference import (BrocaModel, WernickeModel, coarse_feature,
                                map_target)
from cooplang.semantics import _check_normalized, _check_support_cap, _lift


def planned_action(game, plan, k):
    """The plan's k-th action, or past its end the game's pad action:
    "pick" in the supermarket, else the first action."""
    if k < len(plan):
        return plan[k]
    return "pick" if game.kind == "supermarket" else game.env_actions[0]


def behaviour(game, listener, message):
    """The listener's exact trajectory distribution given a message: per
    enumerated trajectory, the product of its noised plan-step
    probabilities, in enumeration order."""
    plan = listener.codebook.get(message.canonical(), listener.default_plan)
    n = len(game.env_actions)
    out = {}
    for t in enumerate_trajectories(game):
        p = 1.0
        for k, a in enumerate(t.actions):
            planned = planned_action(game, plan, k)
            p *= (1.0 - listener.epsilon) * (a == planned) + listener.epsilon / n
        out[t] = p
    return out


def distribution_distance(p, q, cfg):
    """Lift the trajectory metric to two distributions on a shared finite
    support, each a dict from trajectory to probability; transport costs
    come from `trajectory_distance`, pair by pair. Under wasserstein1,
    unequal distributions may hold at most the support cap's atoms."""
    if set(t.canonical_key for t in p) != set(t.canonical_key for t in q):
        raise SupportMismatchError("distributions have different supports")
    _check_normalized(p.values(), "p")
    _check_normalized(q.values(), "q")

    support = sorted(p, key=lambda t: t.canonical_key)
    pv = np.array([p[t] for t in support])
    qv = np.array([q[t] for t in support])
    if cfg.dist_lift == "wasserstein1" and not np.array_equal(pv, qv):
        _check_support_cap(max((pv > 0).sum(), (qv > 0).sum()), cfg)

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


def target_prior_sample(community, rng):
    """An intended trajectory drawn from the Boltzmann prior over returns,
    or the highest-return one under greedy_target."""
    table = community.game.table
    if community.config.greedy_target:
        return table.trajs[int(np.argmax(table.values))]
    p = community.prior
    return table.trajs[int(rng.choice(len(p), p=p))]


def speaker_sample(speaker, game, target, rng):
    """A message drawn from the speaker's distribution for the target, or,
    under greedy_msg and with no draw, the first message of length 1..L at
    minimal semantic distance from the target's optimal message."""
    if speaker.greedy_msg:
        listener = speaker.listener_ref
        star = optimal_message(listener, game, target)
        msgs = enumerate_messages(game)
        dists = [semantic_distance(listener, game, star, m, DistanceConfig())
                 for m in msgs]
        return msgs[int(np.argmin(dists))]
    msgs, p = speaker_message_dist(speaker, game, target)
    return msgs[int(rng.choice(len(p), p=p))]


def rollout(game, listener, message, rng):
    """One listener trajectory given a message: each step draws u =
    random() when epsilon > 0 and takes a uniform action when u < epsilon,
    else the planned one, until the path is an enumerated trajectory."""
    validate_message(game, message)
    table = game.table
    plan = listener.plan_for(message)
    actions = table.env_actions
    path = ()
    # the enumeration is prefix-free, so a path is a whole trajectory
    # exactly when the episode ends there (terminal state or horizon)
    while (i := table.index.get(path)) is None:
        if listener.epsilon > 0 and rng.random() < listener.epsilon:
            a = actions[int(rng.choice(len(actions)))]
        else:
            a = planned_action(game, plan, len(path))
            if a not in actions:
                raise InvalidActionError(f"action {a!r} not in {actions}")
        path += (a,)
    return table.trajs[i]


def fit_broca(dataset, game):
    """Per record, one count for its message under its trajectory's key and
    one under the trajectory's coarse feature."""
    table, backoff = {}, {}
    for rec in dataset.records:
        msg = rec.message.canonical()
        for hists, key in ((table, rec.trajectory.canonical_key),
                           (backoff, coarse_feature(game, rec.trajectory))):
            hist = hists.setdefault(key, {})
            hist[msg] = hist.get(msg, 0) + 1
    return BrocaModel(game=game, table=table, backoff_table=backoff)


def fit_wernicke(dataset, game, cfg, backoff=0.5, listener_model=None):
    """Per record, one count for its `map_target` label under its message."""
    table = {}
    for rec in dataset.records:
        hist = table.setdefault(rec.message.canonical(), {})
        label = map_target(rec, game, cfg, listener_model).canonical_key
        hist[label] = hist.get(label, 0) + 1
    return WernickeModel(game=game, table=table, alpha=cfg.alpha,
                         backoff=backoff)


def load_line_by_line(path, game=None):
    """The dataset of a file whose header is valid and of the game, each
    record line parsed alone by `json.loads` and checked by `data._fields`,
    or the first bad line's `DatasetParseError`."""
    header, *lines = path.read_bytes().decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = json.loads(header)
    fp = header["game_fingerprint"]
    bodies, seeds = [], []
    for lineno, line in enumerate(lines, start=2):
        try:
            doc = json.loads(line)
            bodies.append(_fields(doc, fp, game))
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DatasetParseError(lineno, str(exc)) from exc
        seeds.append(doc["episode_seed"])
    return _dataset(fp, bodies, range(len(bodies)), seeds,
                    header.get("meta", {}))
