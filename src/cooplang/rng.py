"""Per-episode random streams, seeded for all episodes at once.

Episode i of a run draws from `np.random.default_rng([*prefix, i, *suffix])`.
Building that generator costs 12-22 us, most of it numpy's SeedSequence
hash (O'Neill's seed_seq_fe, 2014), while an episode's draws cost a few
us. The hash is fixed 32-bit arithmetic, so `pcg64_states` runs it over
columns of entropy words, one row per episode, then applies PCG64's
seeding. Each state is bit for bit the state of that default_rng.
"""

from __future__ import annotations

import operator

import numpy as np

from .schema import RUN, check

_POOL = 4  # SeedSequence's pool size, in uint32 words
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed) -> int:
    """The seed as an int; ConfigError unless it is a non-negative integer."""
    check("run", RUN, {"seed": seed})
    return operator.index(seed)


def _words(seed) -> list[int]:
    """The little-endian uint32 words SeedSequence takes from one int."""
    seed = check_seed(seed)
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    return words


def _hasher(h: int, mult: int):
    """seed_seq_fe's hash step over a uint32 column; h advances per call."""
    def hash_(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _M32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))
    return hash_


def _mix(x, y):
    result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return result ^ (result >> np.uint32(16))


def pcg64_states(prefix, n: int, suffix=()):
    """For i in range(n), the PCG64 state of default_rng([*prefix, i, *suffix]).

    The hash runs here, for all n at once; each state dict is built as it
    is drawn, so only the n x 4 seed words are held.
    """
    if not 0 <= n <= 1 << 32:  # each index must be one uint32 word
        raise ValueError(f"n must lie in [0, 2**32], got {n}")
    head = [w for s in prefix for w in _words(s)]
    tail = [w for s in suffix for w in _words(s)]
    entropy = ([np.full(n, w, np.uint32) for w in head]
               + [np.arange(n, dtype=np.uint32)]
               + [np.full(n, w, np.uint32) for w in tail])
    entropy += [np.zeros(n, np.uint32)] * (_POOL - len(entropy))
    with np.errstate(over="ignore"):
        # SeedSequence.mix_entropy
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(value) for value in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for value in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], hashmix(value))
        # generate_state(4, np.uint64): eight uint32 words, low word first
        out = _hasher(0x8B51F9DD, 0x58F38DED)
        state = [out(pool[k % _POOL]).astype(np.uint64) for k in range(8)]
    words = np.stack([state[k] | state[k + 1] << np.uint64(32)
                      for k in range(0, 8, 2)], axis=1)
    return (_seeded(*row) for row in map(np.ndarray.tolist, words))


def _seeded(s_hi: int, s_lo: int, q_hi: int, q_lo: int) -> dict:
    """PCG64 seeding: state 0, inc = 2*seq + 1, step, add the seed, step."""
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def streams(prefix, n: int, suffix=()):
    """For i in range(n), a Generator in the state of
    default_rng([*prefix, i, *suffix]).

    Each step reloads and yields the same Generator (about 3 us), so
    finish drawing from it before taking the next.
    """
    states = pcg64_states(prefix, n, suffix)
    rng = np.random.Generator(np.random.PCG64())
    for state in states:
        rng.bit_generator.state = state
        yield rng
