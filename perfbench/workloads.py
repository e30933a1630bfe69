"""The benchmark's workloads: an experiment config per (workload, seed).

The seed is the config's run seed, so it drives both the community's
codebook permutation and every episode's rng stream. The games and sizes
are fixed per workload; README.md says why each was chosen.
"""

from __future__ import annotations

LEWIS_4 = {
    "kind": "lewis",
    "vocab": ["a", "b", "c", "d"],
    "max_msg_len": 2,
    "horizon": 1,
    "gamma": 1.0,
    "reward_params": {"pick_reward": 1.0},
    "layout": {"candidates": ["cand0", "cand1", "cand2", "cand3"],
               "target": 0},
}

SUPERMARKET_2X2 = {
    "kind": "supermarket",
    "vocab": ["a", "b", "c"],
    "max_msg_len": 2,
    "horizon": 2,
    "gamma": 1.0,
    "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
    "layout": {"width": 2, "height": 2, "items": {"milk": [1, 1]},
               "shopping_list": ["milk"], "start": [0, 0]},
}

SUPERMARKET_3X3 = {
    "kind": "supermarket",
    "vocab": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "max_msg_len": 2,
    "horizon": 3,
    "gamma": 1.0,
    "reward_params": {"step_penalty": -0.05, "item_reward": 1.0},
    "layout": {"width": 3, "height": 3,
               "items": {"milk": [0, 1], "bread": [2, 2]},
               "shopping_list": ["milk", "bread"], "start": [0, 0]},
}

WORKLOADS = {
    "lewis-bulk": {
        "game": LEWIS_4,
        "community": {"epsilon": 0.1, "temp_msg": 1.0},
        "n_episodes": 5000,
    },
    "sm-noisy": {
        "game": SUPERMARKET_2X2,
        "community": {"epsilon": 0.1, "temp_msg": 1.0, "codebook_k": 8},
        "n_episodes": 200,
    },
    "sm-wide": {
        "game": SUPERMARKET_3X3,
        "community": {"epsilon": 0.0, "temp_msg": 1.0, "codebook_k": 64},
        "n_episodes": 1000,
    },
}

# a tiny pass that touches every code path (LPs included) before timing
WARMUP = ("lewis-bulk", 40)


def experiment_config(workload: str, seed: int, out_dir: str,
                      n_episodes: int | None = None) -> dict:
    spec = WORKLOADS[workload]
    return {
        "game": spec["game"],
        "community": dict(spec["community"]),
        "inference": {"alpha": 1.0, "variant": "literal", "backoff": 0.5},
        "distances": {"permutations": 1000},
        "run": {
            "n_episodes": n_episodes or spec["n_episodes"],
            "seed": seed,
            "out": out_dir,
        },
    }
