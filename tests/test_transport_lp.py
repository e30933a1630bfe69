"""`semantics.linprog`, the transport LP solved straight through HiGHS,
against scipy's `linprog(method="highs")`: the same optimum bit for bit,
and the same failures as `DistributionError`, on one reused solver per
thread; and the LPs of one semantic
matrix spread over the LP thread pool, with the bits and the failure of one
loop over them; and S filled on demand, each pair lifted once per
pipeline."""

import json
import os

import numpy as np
import pytest

from cooplang import GameSpec, semantics
from cooplang.cli import EXIT_OK, main
from cooplang.errors import DistributionError
from cooplang.semantics import (
    FEASIBILITY_TOL,
    _check_feasible,
    _levenshtein,
    _transport_constraints,
    linprog,
)
from cooplang.tables import listener_table

from reference import linprog_fun
from test_artifacts import CONFIGS, PIPELINE, SM_2X2, SM_3X3

RANDOM_LPS = 2000
# b_eq of two infeasible 2x2 transport LPs
INFEASIBLE_B_EQ = [
    [-0.5, 1.5, 0.5],  # negative mass
    [0.5, 0.5, 2.0],   # p and q of unequal mass
]

# the benchmark's sm-noisy workload at seed 1
SM_NOISY = {
    "game": {
        "kind": "supermarket", "vocab": ["a", "b", "c"], "max_msg_len": 2,
        "horizon": 2, "gamma": 1.0,
        "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
        "layout": {"width": 2, "height": 2, "items": {"milk": [1, 1]},
                   "shopping_list": ["milk"], "start": [0, 0]},
    },
    "community": {"epsilon": 0.1, "temp_msg": 1.0, "codebook_k": 8},
    "inference": {"alpha": 1.0, "variant": "literal", "backoff": 0.5},
    "distances": {"permutations": 1000},
    "run": {"n_episodes": 200, "seed": 1},
}


def _masses(rng, k, sparse):
    """A probability vector of k atoms; a sparse one puts zero mass on
    about half of them (never on all)."""
    w = rng.random(k)
    if sparse and k > 1:
        w[rng.random(k) < 0.5] = 0.0
        w[rng.integers(k)] = rng.random() + 0.1
    return w / w.sum()


def _lattice(rng, size=60):
    """Normalised edit distances between `size` random action sequences."""
    seqs = [tuple(rng.integers(4, size=rng.integers(1, 5)))
            for _ in range(size)]
    return np.array([[_levenshtein(a, b) / max(len(a), len(b)) for b in seqs]
                     for a in seqs])


def _random_lps(seed: int, count: int):
    """`count` transport LPs (c, A_eq, b_eq) of shapes 1x2 to 30x30, each
    side log-uniform, with dense and sparse supports, and random and
    edit-distance lattice costs."""
    rng = np.random.default_rng(seed)
    lattice = _lattice(rng)
    corners = [(1, 2), (2, 1), (2, 2), (1, 30), (30, 1), (30, 30)]
    for k in range(count):
        n, m = corners[k] if k < len(corners) else tuple(
            np.exp(rng.uniform(0, np.log(31), 2)).astype(int))
        if n * m < 2:
            m = 2
        p, q = _masses(rng, n, k % 2 == 1), _masses(rng, m, k % 2 == 1)
        cost = rng.random((n, m)) if k % 4 < 2 else lattice[np.ix_(
            rng.choice(len(lattice), n, replace=False),
            rng.choice(len(lattice), m, replace=False))]
        yield (cost.reshape(-1), _transport_constraints(n, m),
               np.concatenate([p, q])[:-1])


def _differing(lps) -> list:
    """The indices of the LPs whose optimum differs from scipy's in a bit."""
    return [i for i, (c, a, b) in enumerate(lps)
            if float(linprog(c, A_eq=a, b_eq=b)).hex()
            != float(linprog_fun(c, a, b)).hex()]


def test_random_transport_lps_match_scipy_bit_for_bit():
    lps = list(_random_lps(12, RANDOM_LPS))
    assert len(lps) == RANDOM_LPS
    assert _differing(lps) == []


@pytest.mark.parametrize("config", [SM_NOISY, CONFIGS["sm2x2-eps0.1"]],
                         ids=["sm-noisy", "sm2x2-eps0.1"])
def test_every_pipeline_lp_matches_scipy_bit_for_bit(config, tmp_path,
                                                     monkeypatch):
    solved = {}
    real = semantics.linprog

    def recording(c, A_eq, b_eq):
        key = (c.tobytes(), A_eq.shape, b_eq.tobytes())
        solved[key] = (c.copy(), A_eq, b_eq.copy())
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", recording)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for command, _ in PIPELINE:
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out"), "--canonical"]) == EXIT_OK
    assert len(solved) == 36  # one per pair of the 9 behaviour rows
    assert _differing(list(solved.values())) == []


@pytest.fixture
def solves(monkeypatch):
    """The b_eq bytes of every transport LP solved while the test runs."""
    solved = []
    real = semantics.linprog

    def counting(c, A_eq, b_eq):
        solved.append(b_eq.tobytes())
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", counting)
    return solved


def _sm2x2_argv(tmp_path) -> list:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS["sm2x2-eps0.1"]))
    return ["--config", str(path), "--out", str(tmp_path / "out"),
            "--canonical"]


def test_detect_solves_only_the_null_rows_lps(tmp_path, solves):
    """The listening test reads one row of S: the null message's behaviour
    against the 8 codebook rows, one LP each, when `collect` has left no
    entries of S to reuse."""
    argv = _sm2x2_argv(tmp_path)
    assert main(["collect", *argv]) == EXIT_OK
    (tmp_path / "out" / "semantics.json").unlink()
    solves.clear()
    assert main(["detect", *argv]) == EXIT_OK
    assert len(solves) == len(set(solves)) == 8


def test_each_lp_of_a_pipeline_is_solved_once(tmp_path, solves):
    """`collect` solves S's 36 LPs and saves them, so `eval-listener` and
    `detect` solve none; without `semantics.json` they solve 36 and 8."""
    argv = _sm2x2_argv(tmp_path)
    for command in ("collect", "fit-wernicke"):
        assert main([command, *argv]) == EXIT_OK
    assert len(solves) == len(set(solves)) == 36
    counts = {}
    for saved in (True, False):
        if not saved:
            (tmp_path / "out" / "semantics.json").unlink()
        for command in ("eval-listener", "detect"):
            solves.clear()
            assert main([command, *argv]) == EXIT_OK
            counts[saved, command] = len(solves)
    assert counts == {(True, "eval-listener"): 0, (True, "detect"): 0,
                      (False, "eval-listener"): 36, (False, "detect"): 8}


class TestFailures:
    @pytest.mark.parametrize("b_eq", INFEASIBLE_B_EQ)
    def test_an_infeasible_lp_raises(self, b_eq):
        a = _transport_constraints(2, 2)
        with pytest.raises(DistributionError, match="Infeasible"):
            linprog(np.ones(4), A_eq=a, b_eq=np.array(b_eq))

    def test_feasibility_check_passes_a_solution_within_tolerance(self):
        x = np.array([0.5, 0.0, -0.5 * FEASIBILITY_TOL])
        _check_feasible(x, 0.25, np.array([0.5 * FEASIBILITY_TOL, 0.0]))

    @pytest.mark.parametrize("x, fun, residual", [
        ([0.5, -2 * FEASIBILITY_TOL], 0.0, [0.0]),
        ([0.5, 0.5], 0.0, [2 * FEASIBILITY_TOL]),
        ([0.5, 0.5], 0.0, [-2 * FEASIBILITY_TOL]),
        ([0.5, np.nan], 0.0, [0.0]),
        ([0.5, 0.5], np.nan, [0.0]),
        ([0.5, 0.5], 0.0, [np.nan]),
    ])
    def test_feasibility_check_rejects_a_violating_solution(self, x, fun,
                                                            residual):
        with pytest.raises(DistributionError, match="constraints"):
            _check_feasible(np.array(x), fun, np.array(residual))


# --- the LPs of one S, spread over a thread pool ----------------------------

@pytest.fixture
def force_workers(monkeypatch):
    """Deal S's LPs into k chunks, whatever the machine's CPU count. The
    pool is started first, so its size stays the machine's."""
    def force(k):
        semantics._pool()
        monkeypatch.setattr(semantics, "_usable_cpus", lambda: k)
    return force


def _listener(game: dict, **community):
    from cooplang import CommunityConfig, build_community

    cfg = CommunityConfig.from_dict({"game": game, **community})
    return build_community(cfg, 0).listeners[0]


def _lp_pairs(table):
    """The pairs of behaviour rows whose Wasserstein-1 lift is an LP."""
    rows = range(len(table.P))
    return [(b, c) for b in rows for c in rows[b + 1:]
            if table.nnz[b] > 1 or table.nnz[c] > 1]


def _S(listener, game_doc: dict):
    """A fresh table's Wasserstein-1 S, read whole, and the table."""
    from cooplang import GameSpec
    from cooplang.tables import listener_table

    listener._dist_cache.clear()
    table = listener_table(listener, GameSpec.from_json_dict(game_doc))
    rows = np.arange(len(table.P))
    semantics.distances(table, rows[:, None], rows,
                        semantics.DistanceConfig())
    return table.S["wasserstein1"], table


@pytest.mark.parametrize("game, community", [
    (CONFIGS["lewis4-eps0.1"]["game"], {"epsilon": 0.1}),
    (SM_2X2, {"epsilon": 0.1, "codebook_k": 8}),
    (SM_2X2, {"epsilon": 0.5, "codebook_k": 8}),
    (SM_3X3, {"epsilon": 0.1, "codebook_k": 3}),
], ids=["lewis4-eps0.1", "sm2x2-eps0.1", "sm2x2-eps0.5", "sm3x3-eps0.1"])
def test_pooled_S_has_the_bits_of_one_loop(game, community, force_workers):
    listener = _listener(game, **community)
    force_workers(1)
    serial, table = _S(listener, game)
    assert len(_lp_pairs(table)) > 1
    for k in (2, 3, 8):
        force_workers(k)
        assert _S(listener, game)[0].tobytes() == serial.tobytes()


def test_pool_threads_fill_no_row_of_D(force_workers, monkeypatch):
    import threading

    from cooplang.tables import GameTable

    fillers = set()
    real = GameTable._edit_block

    def recording(self, queries, n):
        fillers.add(threading.current_thread())
        return real(self, queries, n)

    monkeypatch.setattr(GameTable, "_edit_block", recording)
    force_workers(2)
    _S(_listener(SM_2X2, epsilon=0.1, codebook_k=8), SM_2X2)
    assert fillers == {threading.current_thread()}


def test_random_lps_solved_through_the_pool_match_one_loop():
    lps = list(_random_lps(12, 500))
    serial = [float(linprog(c, A_eq=a, b_eq=b)).hex() for c, a, b in lps]
    semantics._highs_options()
    pooled = [semantics._pool().submit(linprog, c, A_eq=a, b_eq=b)
              for c, a, b in lps[1::2]]
    here = [float(linprog(c, A_eq=a, b_eq=b)).hex() for c, a, b in lps[::2]]
    assert here == serial[::2]
    assert [float(f.result()).hex() for f in pooled] == serial[1::2]


@pytest.mark.parametrize("k", [2, 3])
def test_pooled_S_solves_one_lp_per_pair(k, force_workers, monkeypatch):
    listener = _listener(SM_2X2, epsilon=0.1, codebook_k=8)
    solves = []
    real = semantics.linprog

    def counting(c, A_eq, b_eq):
        solves.append(b_eq.tobytes())
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", counting)
    force_workers(k)
    _, table = _S(listener, SM_2X2)
    assert len(solves) == len(set(solves)) == len(_lp_pairs(table)) == 36


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_first_failing_pair_raises_and_S_is_not_kept(k, force_workers,
                                                         monkeypatch):
    listener = _listener(SM_2X2, epsilon=0.1, codebook_k=8)
    order = []
    real = semantics.linprog

    def recording(c, A_eq, b_eq):
        order.append(b_eq.tobytes())
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", recording)
    force_workers(1)
    _S(listener, SM_2X2)
    # pair 5 lies in a pool chunk at 2 and 3 workers, pair 6 in the caller's
    failing = {order[5]: 5, order[6]: 6}

    def failing_lp(c, A_eq, b_eq):
        index = failing.get(b_eq.tobytes())
        if index is not None:
            raise DistributionError(f"pair {index}")
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", failing_lp)
    force_workers(k)
    with pytest.raises(DistributionError, match="pair 5"):
        _S(listener, SM_2X2)
    table = listener._dist_cache[next(iter(listener._dist_cache))]
    assert table.S == {}


# --- S filled on demand ------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_a_read_lifts_only_the_pairs_it_touches(k, force_workers,
                                                 monkeypatch):
    listener = _listener(SM_2X2, epsilon=0.1, codebook_k=8)
    force_workers(1)
    whole, _ = _S(listener, SM_2X2)
    lifted = []
    real = semantics._lift_pairs

    def recording(table, pairs, cfg, S):
        lifted.append(list(pairs))
        return real(table, pairs, cfg, S)

    monkeypatch.setattr(semantics, "_lift_pairs", recording)
    force_workers(k)
    listener._dist_cache.clear()
    table = listener_table(listener, GameSpec.from_json_dict(SM_2X2))
    rows, cfg = np.arange(len(table.P)), semantics.DistanceConfig()
    row = semantics.distances(table, 4, rows, cfg)
    assert lifted == [[(b, 4) for b in range(4)]
                      + [(4, c) for c in range(5, len(rows))]]
    assert row.tobytes() == whole[4].tobytes()
    assert np.isnan(table.S["wasserstein1"]).sum() == 2 * (36 - 8)

    semantics.distances(table, 4, rows, cfg)  # all known: nothing lifted
    assert len(lifted) == 1
    semantics.distances(table, rows[:, None], rows, cfg)
    assert lifted[1] == [pair for pair in _lp_pairs(table) if 4 not in pair]
    assert table.S["wasserstein1"].tobytes() == whole.tobytes()


def test_a_failed_read_leaves_its_entries_unknown(force_workers,
                                                  monkeypatch):
    listener = _listener(SM_2X2, epsilon=0.1, codebook_k=8)
    order = []
    real = semantics.linprog

    def recording(c, A_eq, b_eq):
        order.append(b_eq.tobytes())
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", recording)
    force_workers(1)
    whole, _ = _S(listener, SM_2X2)
    # pairs 20 and 30 of 36, past the 8 pairs of row 0
    failing = {order[20]: 20, order[30]: 30}

    def failing_lp(c, A_eq, b_eq):
        index = failing.get(b_eq.tobytes())
        if index is not None:
            raise DistributionError(f"pair {index}")
        return real(c, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(semantics, "linprog", failing_lp)
    force_workers(2)
    listener._dist_cache.clear()
    table = listener_table(listener, GameSpec.from_json_dict(SM_2X2))
    rows, cfg = np.arange(len(table.P)), semantics.DistanceConfig()
    semantics.distances(table, 0, rows, cfg)
    known = table.S["wasserstein1"].copy()
    for _ in range(2):  # a retry fails as the first read did
        with pytest.raises(DistributionError, match="pair 20"):
            semantics.distances(table, rows[:, None], rows, cfg)
        assert table.S["wasserstein1"].tobytes() == known.tobytes()
    monkeypatch.setattr(semantics, "linprog", real)
    semantics.distances(table, rows[:, None], rows, cfg)
    assert table.S["wasserstein1"].tobytes() == whole.tobytes()


def test_a_command_that_starts_the_pool_exits(tmp_path):
    """The pool's idle threads do not keep a CLI process alive."""
    import subprocess
    import sys

    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS["sm2x2-eps0.1"]))
    code = ("import sys; from cooplang import semantics; "
            "from cooplang.cli import main; "
            "semantics._usable_cpus = lambda: 2; "
            f"code = main(['collect', '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}, '--canonical']); "
            "assert semantics._pool.cache_info().currsize == 1; "
            "sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", code], timeout=120)
    assert result.returncode == EXIT_OK


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool():
    """A child forked after the pool started has none of its threads; it
    must not queue its LPs on them."""
    import subprocess
    import sys

    code = f"""
import os, signal, numpy as np
from cooplang import CommunityConfig, GameSpec, build_community, semantics
from cooplang.tables import listener_table
semantics._usable_cpus = lambda: 2

def S():
    cfg = CommunityConfig.from_dict(
        {{"game": {SM_2X2!r}, "epsilon": 0.1, "codebook_k": 8}})
    table = listener_table(build_community(cfg, 0).listeners[0],
                           GameSpec.from_json_dict({SM_2X2!r}))
    semantics.distances(table, 0, np.arange(len(table.P)),
                        semantics.DistanceConfig())
    return table.S["wasserstein1"].tobytes()

want = S()
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child that hangs ends
    os._exit(0 if S() == want else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
"""
    result = subprocess.run([sys.executable, "-c", code], timeout=120)
    assert result.returncode == 0


# --- one reused solver per thread --------------------------------------------

def _solve_between_failures(lps) -> list:
    """The optimum of each LP in order, as hex, with both infeasible LPs
    solved after each one; each of those must raise, and every LP runs on
    the thread's one solver."""
    solver = semantics._solver()
    a = _transport_constraints(2, 2)
    optima = []
    for c, a_eq, b_eq in lps:
        optima.append(float(linprog(c, A_eq=a_eq, b_eq=b_eq)).hex())
        for bad in INFEASIBLE_B_EQ:
            with pytest.raises(DistributionError, match="Infeasible"):
                linprog(np.ones(4), A_eq=a, b_eq=np.array(bad))
    assert semantics._solver() is solver
    return optima


def test_a_reused_solver_keeps_scipys_bits_after_failures():
    lps = list(_random_lps(13, 400))
    want = [float(linprog_fun(c, a, b)).hex() for c, a, b in lps]
    assert _solve_between_failures(lps) == want
    pooled = semantics._pool().submit(_solve_between_failures, lps)
    assert pooled.result(timeout=300) == want


def test_each_thread_builds_one_solver(force_workers, monkeypatch):
    import threading

    from scipy.optimize._highspy import _core

    builders = []
    real = _core._Highs

    def counting():
        builders.append(threading.current_thread())
        return real()

    monkeypatch.setattr(_core, "_Highs", counting)
    monkeypatch.setattr(semantics, "_solvers", threading.local())  # none yet
    listener = _listener(SM_NOISY["game"], **SM_NOISY["community"])
    force_workers(3)
    _, table = _S(listener, SM_NOISY["game"])
    assert len(_lp_pairs(table)) == 36
    assert threading.current_thread() in builders
    assert len(set(builders)) == len(builders)
    assert all(thread is threading.current_thread()
               or thread.name.startswith("cooplang-lp")
               for thread in builders)
    built = list(builders)
    _S(listener, SM_NOISY["game"])  # fresh tables: the same solvers
    assert builders == built


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_solver():
    """A child forked after its parent solved an LP solves on a solver it
    builds, with the parent's bits."""
    import subprocess
    import sys

    code = """
import os, signal, numpy as np
from scipy.optimize._highspy import _core
from cooplang.semantics import _transport_constraints, linprog
builds = []
real = _core._Highs
_core._Highs = lambda: builds.append(1) or real()

def solve():
    return float(linprog(np.array([0.0, 1.0, 1.0, 0.0]),
                         A_eq=_transport_constraints(2, 2),
                         b_eq=np.array([0.3, 0.7, 0.6]))).hex()

want = solve()
assert len(builds) == 1
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child that hangs ends
    os._exit(0 if solve() == want and len(builds) == 2 else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
assert solve() == want and len(builds) == 1
"""
    result = subprocess.run([sys.executable, "-c", code], timeout=120)
    assert result.returncode == 0
