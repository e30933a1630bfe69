"""Distances over messages, trajectories, and trajectory distributions,
plus detectors for positive signalling and positive listening.

Message and trajectory distances are normalized token-level edit
distances. Distribution distances lift the trajectory metric either by
exact Wasserstein-1 transport on the finite support or by total
variation. Semantic distance between two messages is the lifted distance
between the listener behaviours they induce, read from the semantic
matrix S over a listener table's rows (`distances`), filled entry by entry
as reads touch it. Each transport LP goes straight to the HiGHS binding
that `scipy.optimize.linprog` wraps (see `linprog`), its model passed as
arrays through the binding's array overload of `passModel`, to one solver
per thread that keeps the last model of its thread: the same optimum to
the bit, at under a third of the cost. The LPs of one read of S are
independent, so they are spread over every CPU the process may use:
the caller solves a share and a process-wide thread pool the rest
(`_lift_pairs`). There is no option; S has the same bits on any
number of CPUs. The gain needs HiGHS's `run` to release the GIL, as it
does on scipy 1.17.1; on the 1.15 floor that is unverified.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DistributionError,
    DomainMismatchError,
    SupportMismatchError,
    TooFewEpisodesError,
)
from .games import (NULL_MESSAGE, GameSpec, Message, Trajectory,
                    validate_message)
from .rng import check_seed
from .schema import DISTANCES, check, values_of
from .tables import ListenerTable, listener_table

DEFAULT_WASSERSTEIN_SUPPORT_CAP = 512
# elements of the largest temporary array a batch of shuffles makes
SHUFFLE_BATCH_ELEMENTS = 2 ** 15


@dataclass
class DistanceConfig:
    dist_lift: str = "wasserstein1"
    listening_epsilon: float = 1e-6
    signalling_alpha: float = 0.05
    permutations: int = 1000
    wasserstein_support_cap: int = DEFAULT_WASSERSTEIN_SUPPORT_CAP

    def __post_init__(self):
        check("distances", DISTANCES, values_of(self, DISTANCES))


@dataclass
class DetectorReport:
    detected: bool
    statistic: float
    p_value: float | None = None
    witness: tuple | None = None


def _levenshtein(a, b) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def message_distance(m1: Message, m2: Message) -> float:
    """Token edit distance normalized by the longer message length."""
    if m1.tokens == m2.tokens:
        return 0.0
    return _levenshtein(m1.tokens, m2.tokens) / max(len(m1.tokens), len(m2.tokens), 1)


def trajectory_distance(t1: Trajectory, t2: Trajectory) -> float:
    """Normalized edit distance over action-id sequences."""
    if t1.game_fingerprint != t2.game_fingerprint:
        raise DomainMismatchError("trajectories belong to different games")
    if t1.actions == t2.actions:
        return 0.0
    return _levenshtein(t1.actions, t2.actions) / max(len(t1), len(t2), 1)


def _check_normalized(probs, name: str) -> None:
    total = sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise DistributionError(f"{name} sums to {total}, expected 1")


def _check_support_cap(atoms: int, cfg: DistanceConfig) -> None:
    if atoms > cfg.wasserstein_support_cap:
        raise SupportMismatchError(
            f"support of {atoms} atoms exceeds the Wasserstein cap "
            f"({cfg.wasserstein_support_cap}); use the total_variation lift"
        )


# scipy's default `tol` for linprog, as its `_check_result` loosens it
FEASIBILITY_TOL = 10 * np.sqrt(1e-9)


@functools.cache
def _highs_options():
    """The options scipy's `linprog(method="highs")` passes to HiGHS."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = (
        highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    return options


_solvers = threading.local()  # each thread's HiGHS solver, as `highs`


def _solver():
    """This thread's HiGHS solver, built with `_highs_options` on the
    thread's first LP and kept for its later ones."""
    solver = getattr(_solvers, "highs", None)
    if solver is None:
        from scipy.optimize._highspy import _core as highs

        solver = _solvers.highs = highs._Highs()
        solver.passOptions(_highs_options())
    return solver


def linprog(c, A_eq, b_eq) -> float:
    """The minimum of c @ x subject to A_eq @ x = b_eq and x >= 0.

    The LP goes straight to the HiGHS binding that scipy's
    `linprog(method="highs")` wraps, with the same model and options, so
    the optimum keeps scipy's bits: scipy's input cleaning, option checks,
    dual bookkeeping and result object are skipped. The model goes in as
    arrays, through the array overload of `passModel`, so no `HighsLp` is
    filled attribute by attribute; and each thread solves on one solver of
    its own (`_solver`), whose options are passed once. `passModel`
    replaces the solver's model, basis and solution, so an LP's optimum
    does not depend on the LPs solved before it. Between LPs the solver
    keeps the last model of its thread and HiGHS's working memory, which
    stays at the size of the largest LP the thread has solved: about
    0.6 MB after a 25x25 transport LP, 11 MB after a 125x125 one. scipy
    is imported on the first call, since importing it takes about 0.6 s
    and a run that solves no LP never pays for it. A status other than
    optimal, or a solution that scipy's feasibility check would reject,
    raises `DistributionError`.
    """
    from scipy.optimize._highspy import _core as highs

    a = A_eq.tocsc()  # the matrix itself when it is CSC already
    num_row, num_col = a.shape
    solver = _solver()
    if solver.passModel(
            num_col, num_row, a.nnz, highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize, 0.0,
            c, np.zeros(num_col), np.full(num_col, highs.kHighsInf),
            b_eq, b_eq,
            a.indptr.astype(np.int32, copy=False),
            a.indices.astype(np.int32, copy=False), a.data,
            np.zeros(num_col, np.int32)) == highs.HighsStatus.kError:
        raise DistributionError(
            "transport LP failed: HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise DistributionError(
            f"transport LP failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    fun = solver.getInfo().objective_function_value
    _check_feasible(np.array(solution.col_value), fun,
                    b_eq - np.array(solution.row_value))
    return fun


def _check_feasible(x, fun, residual) -> None:
    """scipy's post-solve check of an optimal transport solution: no NaN,
    x >= 0 and b_eq - A_eq @ x = 0, each within FEASIBILITY_TOL."""
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any()
            or (x < -FEASIBILITY_TOL).any()
            or (np.abs(residual) > FEASIBILITY_TOL).any()):
        raise DistributionError(
            "transport LP failed: the solution does not satisfy the "
            f"constraints within {FEASIBILITY_TOL:.2E}")


@functools.cache
def _transport_constraints(n: int, m: int):
    """The equality constraints of the n x m transport LP, built once per
    shape, in the CSC form HiGHS takes: rows ship p mass, columns receive
    q mass."""
    import scipy.sparse as sp

    row = sp.kron(sp.eye(n), np.ones((1, m)))
    col = sp.kron(np.ones((1, n)), sp.eye(m))
    # drop one redundant constraint
    return sp.vstack([row, col]).tocsr()[:-1].tocsc()


def _lift(pv, qv, cost_of, cfg: DistanceConfig) -> float:
    """The transport core: lift the ground metric to two probability vectors.

    cost_of(p_idx, q_idx) returns the ground-metric submatrix between two
    index sets of the shared support. A negative entry is rejected; the
    Wasserstein support cap is the caller's to check.
    """
    if min(pv.min(), qv.min()) < 0:
        raise DistributionError("probabilities must be non-negative")
    if cfg.dist_lift == "total_variation":
        return 0.5 * float(np.abs(pv - qv).sum())
    if np.array_equal(pv, qv):
        return 0.0
    if tuple(qv) < tuple(pv):  # canonical order makes the result symmetric
        pv, qv = qv, pv
    p_idx = np.flatnonzero(pv > 0)
    q_idx = np.flatnonzero(qv > 0)
    cost = cost_of(p_idx, q_idx)
    if len(p_idx) == 1 and len(q_idx) == 1:
        return float(cost[0, 0])

    a_eq = _transport_constraints(*cost.shape)
    b_eq = np.concatenate([pv[p_idx], qv[q_idx]])[:-1]
    return max(linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq), 0.0)


def distances(table: ListenerTable, a, rows, cfg) -> np.ndarray:
    """S[a, rows]: lifted distances between behaviour rows of a listener
    table, a and rows indexing S as numpy broadcasts them; the table keeps
    S per lift.

    The support cap is checked on every call, on the rows read; S holds
    only values. S starts unknown off its diagonal, and a read fills only
    the unknown entries it touches (`_fill`), so a read of known entries
    does no new work. Each entry gets the bits one loop over the pairs
    gives. A read that fails keeps none of its new entries.
    """
    a, rows = np.asarray(a), np.asarray(rows)
    if cfg.dist_lift == "wasserstein1" and np.any(rows != a):
        _check_support_cap(max(table.nnz[a].max(), table.nnz[rows].max()),
                           cfg)
    S = table.S.get(cfg.dist_lift)
    if S is None:
        for p in table.P:
            _check_normalized(p.tolist(), "p")
        S = np.full((len(table.P),) * 2, np.nan)  # NaN: not yet lifted
        np.fill_diagonal(S, 0.0)
    d = S[a, rows]
    unknown = np.isnan(d)
    if unknown.any():
        b, c = (np.broadcast_to(x, d.shape)[unknown] for x in (a, rows))
        _fill(table, b, c, cfg, S)
        d = S[a, rows]
    table.S[cfg.dist_lift] = S
    return d


def _fill(table: ListenerTable, b, c, cfg, S) -> None:
    """Fill the unknown entries (b, c) of S and their mirrors, or none.

    Under Wasserstein-1, an entry between point masses is the distance of
    their atoms, read from one row of D per distinct b. The other entries'
    pairs are lifted in `combinations` order, in one `_lift_pairs`
    dispatch; if one fails, its error is raised and every pair's entries
    are unknown again.
    """
    point = np.zeros(len(b), bool)
    if cfg.dist_lift == "wasserstein1":
        point = (table.nnz[b] == 1) & (table.nnz[c] == 1)
    pairs = np.unique(np.minimum(b, c)[~point] * len(S)
                      + np.maximum(b, c)[~point])
    low, high = np.divmod(pairs, len(S))
    try:
        _lift_pairs(table, list(zip(low.tolist(), high.tolist())), cfg, S)
    except Exception:
        S[low, high] = S[high, low] = np.nan
        raise
    if point.any():
        b, c = b[point], c[point]
        atoms = table.P.argmax(axis=1)
        firsts, inverse = np.unique(b, return_inverse=True)
        D = np.array([table.game.row(x) for x in atoms[firsts].tolist()])
        S[b, c] = S[c, b] = D[inverse, atoms[c]]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool():
    """The process-wide threads that solve transport LPs beside the caller,
    one fewer than the usable CPUs (at least one), started on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(_usable_cpus() - 1, 1),
                              thread_name_prefix="cooplang-lp")


def _after_fork_in_child() -> None:
    """A forked child has none of the pool's threads, so it starts its own;
    and it builds a solver of its own, so no LP runs on the copy of its
    parent's solver that fork made."""
    _pool.cache_clear()
    _solvers.__dict__.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _lift_chunk(table: ListenerTable, chunk, cfg, S):
    """Lift the (index, (b, c)) pairs of a chunk in order into S. Returns
    the index and error of the first pair that fails, which ends the chunk,
    or None."""
    for k, (b, c) in chunk:
        try:
            S[b, c] = S[c, b] = _lift(table.P[b], table.P[c],
                                      table.game.cost, cfg)
        except Exception as error:
            return k, error
    return None


def _lift_pairs(table: ListenerTable, pairs, cfg, S) -> None:
    """Lift pairs of behaviour rows into S, Wasserstein-1 ones on every
    usable CPU.

    Each Wasserstein-1 pair is an LP. The pairs are dealt into min(pairs,
    CPUs) interleaved chunks; the caller lifts the first and `_pool` the
    others, and HiGHS's `run` releases the GIL, so the LPs run at once.
    Each pair writes only its own entries, by the same operations as one
    loop, so S has the same bits however the chunks finish. Before any
    thread starts, the caller imports scipy and fills the rows of D of
    every atom of the pairs' supports, so no thread writes D's lazy cache.
    On one CPU, or for at most one pair, the caller lifts every pair and no
    pool starts. If pairs fail, every chunk is waited for and the error of
    the first failing pair, in pair order, is raised, as one loop would.
    """
    indexed = list(enumerate(pairs))
    workers = 1
    if cfg.dist_lift == "wasserstein1":
        workers = max(min(len(pairs), _usable_cpus()), 1)
    futures = []
    if workers > 1:
        _highs_options()
        for atom in np.flatnonzero(table.P[np.unique(pairs)].any(axis=0)):
            table.game.row(atom)
        futures = [_pool().submit(_lift_chunk, table, indexed[i::workers],
                                  cfg, S) for i in range(1, workers)]
    failures = [_lift_chunk(table, indexed[::workers], cfg, S)]
    failures += [future.result() for future in futures]
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures)[1]  # pair indices differ; errors never compare


def emission_distances(table: ListenerTable, messages, cfg) -> np.ndarray:
    """S(m, m') for every m' of the emission space `messages[1:]`, per m of
    `messages`: an index into the game's `messages` (such as a target's
    `optimal_id`) gives one row, an array of them a row each."""
    rows = table.message_rows[np.asarray(messages)]
    return distances(table, rows[..., None], table.message_rows[1:], cfg)


def optimal_message(listener, game: GameSpec, target: Trajectory) -> Message:
    """The message maximizing the listener's probability of the target.

    Candidates include the null message; ties go to the shortest message
    and then lexicographic token order (the enumeration order).
    """
    return listener_table(listener, game).optimal_message(target)


def semantic_distance(
    listener, game: GameSpec, m1: Message, m2: Message, cfg: DistanceConfig,
) -> float:
    """Distance between the listener behaviours two messages induce."""
    if m1.canonical() == m2.canonical():
        return 0.0
    validate_message(game, m1)
    validate_message(game, m2)
    table = listener_table(listener, game)
    return float(distances(table, table.row(m1), table.row(m2), cfg))


def positive_listening_test(
    listener, game: GameSpec, messages: list[Message], cfg: DistanceConfig,
) -> DetectorReport:
    """Does any message move the listener away from null-message behaviour?

    Plan-executing listeners ignore the observation history, so the
    witness's first element is the empty history `()`.
    """
    if not messages:
        raise ConfigError("positive_listening_test needs a non-empty message list")
    for msg in messages:
        validate_message(game, msg)
    table = listener_table(listener, game)
    d = distances(table, table.row(NULL_MESSAGE),
                  np.array([table.row(m) for m in messages]), cfg)
    first = int(np.argmax(d))  # the first message at the largest distance
    return DetectorReport(detected=bool(d[first] > cfg.listening_epsilon),
                          statistic=float(d[first]),
                          witness=((), messages[first].canonical()))


def _mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """Empirical MI (nats) between two integer-coded samples."""
    nx, ny = x.max() + 1, y.max() + 1
    joint = np.bincount(x * ny + y, minlength=nx * ny).reshape(nx, ny) / len(x)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    return float((joint[nz] * np.log(joint[nz] / np.outer(px, py)[nz])).sum())


def _encode(labels) -> np.ndarray:
    index: dict = {}
    return np.array([index.setdefault(lbl, len(index)) for lbl in labels])


def positive_signalling_test(
    episodes: list[tuple], cfg: DistanceConfig, seed: int = 0,
) -> DetectorReport:
    """Permutation test of dependence between messages and behaviour.

    Each episode is an (observation sequence, action sequence, message
    sequence) triple, encoded canonically per episode. The statistic is
    the empirical mutual information between the message encoding and the
    (observation, action) encoding; the p-value (1 + b) / (1 + B) comes
    from B shuffles of the message column, b of which reach the statistic.

    A shuffle keeps both marginals, so its MI is an increasing affine
    function of sum(c log c) over its joint counts c. The shuffles are
    drawn and scored in batches by that sum; one whose score is within a
    relative 1e-9 of the observed score is decided by its MI, as a single
    shuffle would be.
    """
    return _signalling_test(
        _encode([(tuple(obs), tuple(act)) for obs, act, _ in episodes]),
        _encode([tuple(msg) for _, _, msg in episodes]), cfg, seed)


def positive_signalling_test_by_body(
    bodies, body_ids, cfg: DistanceConfig, seed: int = 0,
) -> DetectorReport:
    """`positive_signalling_test` of a dataset's episodes, episode i being
    body `body_ids[i]` of its (message, trajectory, ...) `bodies`, with no
    observations, the trajectory's actions and the message's canonical
    text. Each body is encoded once and its codes are indexed by
    `body_ids`; with bodies in order of first appearance, as a dataset
    keeps them, the codes are those of each episode encoded alone."""
    ids = np.asarray(body_ids, dtype=np.intp)
    return _signalling_test(
        _encode([tau.actions for _, tau, *_ in bodies])[ids],
        _encode([message.canonical() for message, *_ in bodies])[ids],
        cfg, seed)


def _signalling_test(x: np.ndarray, y: np.ndarray, cfg: DistanceConfig,
                     seed: int) -> DetectorReport:
    """The permutation test of the episodes' (observation, action) codes
    x against their message codes y."""
    if len(x) < 30:
        raise TooFewEpisodesError(f"need at least 30 episodes, got {len(x)}")
    stat = _mutual_information(x, y)

    n, ny = len(y), y.max() + 1
    cells = (x.max() + 1) * ny
    counts = np.arange(n + 1)
    clogc = counts * np.log(np.maximum(counts, 1))
    batch = max(1, SHUFFLE_BATCH_ELEMENTS // max(n, cells))
    # cell of shuffle k, episode i, less the message: k * cells + x[i] * ny
    base = (np.arange(batch) * cells)[:, None] + x * ny
    observed = clogc[np.bincount(base[0] + y, minlength=cells)].sum()
    tie = 1e-9 * observed
    rng = np.random.default_rng(check_seed(seed))
    exceed = 0
    for start in range(0, cfg.permutations, batch):
        b = min(batch, cfg.permutations - start)
        # the draws of b successive rng.permutation(y) calls, in stream order
        shuffled = rng.permuted(np.broadcast_to(y, (b, n)), axis=1)
        joint = np.bincount((shuffled + base[:b]).ravel(),
                            minlength=b * cells)
        gap = clogc[joint].reshape(b, cells).sum(axis=1) - observed
        exceed += int((gap > tie).sum())
        for k in np.flatnonzero(np.abs(gap) <= tie):
            exceed += _mutual_information(x, shuffled[k]) >= stat
    p_value = (1 + exceed) / (1 + cfg.permutations)
    return DetectorReport(detected=p_value < cfg.signalling_alpha,
                          statistic=stat, p_value=p_value)
