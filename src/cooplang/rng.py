"""Per-episode random streams, seeded and drawn for all episodes at once.

Episode i of a run draws from `np.random.default_rng([*prefix, i, *suffix])`.
Building that generator costs 12-22 us, most of it numpy's SeedSequence
hash (O'Neill's seed_seq_fe, 2014), while an episode's draws cost a few
us. The hash is fixed 32-bit arithmetic, so `_seed_words` runs it over
columns of entropy words, one row per episode. `PCG64Array` seeds PCG64
from those rows, keeps the states as arrays and runs PCG64 itself on
them: the 128-bit LCG step and the XSL-RR output (O'Neill, 2014),
`random()` from the top 53 bits, and `integers(k)` by Lemire's
multiply-shift rejection method (2019) on numpy's buffered 32-bit draws.
Every state and draw is bit for bit numpy's.
"""

from __future__ import annotations

import copy
import operator

import numpy as np

from .schema import RUN, check

_POOL = 4  # SeedSequence's pool size, in uint32 words
_M32 = 0xFFFFFFFF
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


def _seed_words(prefix, n: int, suffix=()) -> np.ndarray:
    """Row i: the uint64 words (seed high, seed low, sequence high, sequence
    low) that default_rng([*prefix, i, *suffix]) seeds PCG64 with.

    SeedSequence's hash runs here for all n at once, one entropy word per
    column.
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
    return np.stack([state[k] | state[k + 1] << np.uint64(32)
                     for k in range(0, 8, 2)], axis=1)


_LOW = np.uint64(_M32)
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & (1 << 64) - 1)


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _LOW, a >> np.uint64(32)
    b0, b1 = b & _LOW, b >> np.uint64(32)
    low, cross, cross2 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> np.uint64(32)) + (cross & _LOW) + (cross2 & _LOW)
    return (a1 * b1 + (cross >> np.uint64(32)) + (cross2 >> np.uint64(32))
            + (mid >> np.uint64(32)))


class PCG64Array:
    """n PCG64 streams drawn together; stream i starts in the state of
    default_rng([*prefix, i, *suffix]) and gives its draws, bit for bit.

    A state is two uint64 arrays (high and low words), as is the
    increment; `has_uint32` and `uinteger` are numpy's buffered upper half
    of a 64-bit draw, which `integers` reads before drawing again. Each
    draw method takes an optional boolean mask over the streams: only the
    streams it selects draw, and their values come back in stream order.
    """

    def __init__(self, prefix, n: int, suffix=()):
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(prefix, n, suffix).T
        # PCG64 seeding: state 0, inc = 2*seq + 1, step, add the seed, step
        self.inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
        self.inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
        self.lo = self.inc_lo + seed_lo
        self.hi = self.inc_hi + seed_hi + (self.lo < seed_lo)
        self._next64(np.arange(n))
        self.has_uint32 = np.zeros(n, bool)
        self.uinteger = np.zeros(n, np.uint64)

    def __len__(self) -> int:
        return len(self.lo)

    def copy(self) -> "PCG64Array":
        return copy.deepcopy(self)

    def _select(self, mask) -> np.ndarray:
        return np.arange(len(self)) if mask is None else np.flatnonzero(mask)

    def _next64(self, idx: np.ndarray) -> np.ndarray:
        """Step the streams idx, then their XSL-RR outputs."""
        hi, lo = self.hi[idx], self.lo[idx]
        inc_lo = self.inc_lo[idx]
        new_lo = lo * _MULT_LO + inc_lo
        new_hi = (_mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
                  + self.inc_hi[idx] + (new_lo < inc_lo))
        self.hi[idx], self.lo[idx] = new_hi, new_lo
        x, rot = new_hi ^ new_lo, new_hi >> np.uint64(58)
        return x >> rot | x << (-rot & np.uint64(63))

    def _next32(self, idx: np.ndarray) -> np.ndarray:
        """numpy's next_uint32: the buffered half if there is one, else the
        low half of a new draw, buffering its high half."""
        has = self.has_uint32[idx]
        out = self.uinteger[idx]
        fresh = idx[~has]
        draw = self._next64(fresh)
        out[~has] = draw & _LOW
        self.uinteger[fresh] = draw >> np.uint64(32)
        self.has_uint32[idx] = ~has
        return out

    def random(self, mask=None) -> np.ndarray:
        """Generator.random() on the selected streams."""
        top = self._next64(self._select(mask)) >> np.uint64(11)
        return top * (1.0 / 9007199254740992.0)

    def integers(self, k: int, mask=None) -> np.ndarray:
        """Generator.integers(k) on the selected streams, for 1 <= k <= 2**32.

        k = 1 draws nothing. Otherwise m = u * k for a buffered 32-bit u;
        a stream whose low word of m falls below 2**32 mod k redraws.
        """
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"k must lie in [1, 2**32], got {k}")
        idx = self._select(mask)
        if k == 1:
            return np.zeros(len(idx), np.int64)
        bound, threshold = np.uint64(k), np.uint64((1 << 32) % k)
        m = self._next32(idx) * bound
        redraw = np.flatnonzero(m & _LOW < threshold)
        while len(redraw):
            m[redraw] = self._next32(idx[redraw]) * bound
            redraw = redraw[m[redraw] & _LOW < threshold]
        return (m >> np.uint64(32)).astype(np.int64)
