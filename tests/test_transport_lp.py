"""`semantics.linprog`, the transport LP solved straight through HiGHS,
against scipy's `linprog(method="highs")`: the same optimum bit for bit,
and the same failures as `DistributionError`."""

import json

import numpy as np
import pytest

from cooplang import semantics
from cooplang.cli import EXIT_OK, main
from cooplang.errors import DistributionError
from cooplang.semantics import (
    FEASIBILITY_TOL,
    _check_feasible,
    _levenshtein,
    _transport_constraints,
    linprog,
)

from reference import linprog_fun
from test_artifacts import CONFIGS, PIPELINE

RANDOM_LPS = 2000

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


class TestFailures:
    @pytest.mark.parametrize("b_eq", [
        [-0.5, 1.5, 0.5],  # negative mass
        [0.5, 0.5, 2.0],   # p and q of unequal mass
    ])
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

