"""Vectorized episode streams: bit for bit numpy's default_rng streams.

`PCG64Array` runs numpy's SeedSequence hash for every episode at once,
then PCG64 and its draws on every stream at once. These tests hold it to
`np.random.default_rng([*prefix, i, *suffix])` state by state and draw by
draw, and check that the episode loops build a fixed number of bit
generators however many episodes they run.
"""

import numpy as np
import pytest

from cooplang import (
    CommunityConfig,
    MapConfig,
    build_community,
    collect,
    eval_listener,
    eval_speaker,
    fit_broca,
    fit_wernicke,
    lewis_game,
)
from cooplang.errors import ConfigError
from cooplang.rng import PCG64Array, check_seed

# 2**64 + 1 has three 32-bit words: with the index and a suffix, the
# entropy outgrows SeedSequence's pool of four and takes its extra loop
SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 1]
N = 2001


@pytest.mark.parametrize("suffix", [(), (1,)], ids=["episode", "arm"])
@pytest.mark.parametrize("seed", SEEDS)
def test_streams_match_default_rng(seed, suffix):
    kernel = PCG64Array((seed,), N, suffix)
    refs = [np.random.default_rng([seed, i, *suffix]) for i in range(N)]
    assert_same_states(kernel, refs)
    assert (np.stack([kernel.integers(5) for _ in range(3)], axis=1).tolist()
            == [r.integers(5, dtype=np.uint32, size=3).tolist() for r in refs])
    assert kernel.random().tolist() == [r.random() for r in refs]
    assert kernel.integers(1000).tolist() == [int(r.integers(1000))
                                              for r in refs]
    # leave a buffered uint32 behind in every stream
    kernel.integers(5)
    for r in refs:
        r.integers(5, dtype=np.uint32)
    assert kernel.has_uint32.all()
    assert_same_states(kernel, refs)


def test_states_match_with_a_longer_prefix():
    prefix, suffix = (7, 2**40), (3, 0)
    kernel = PCG64Array(prefix, 300, suffix)
    assert len(kernel) == 300
    assert_same_states(kernel, [np.random.default_rng([*prefix, i, *suffix])
                                for i in range(300)])


def test_no_episodes():
    kernel = PCG64Array((1,), 0)
    assert len(kernel) == 0
    assert kernel.random().tolist() == []
    assert kernel.integers(7).tolist() == []


@pytest.mark.parametrize("seed", [-1, -2**40, 1.0, 2.5, "3", None])
def test_bad_seed_is_config_error(seed):
    with pytest.raises(ConfigError, match="seed"):
        PCG64Array((seed,), 3)
    with pytest.raises(ConfigError, match="seed"):
        PCG64Array((1,), 3, (seed,))
    with pytest.raises(ConfigError, match="seed"):
        check_seed(seed)


def test_numpy_integer_seed_is_accepted():
    assert check_seed(np.int64(5)) == 5
    assert_same_states(PCG64Array((np.uint8(5),), 1),
                       [np.random.default_rng([5, 0])])


@pytest.mark.parametrize("n", [-1, 2**32 + 1])
def test_index_must_fit_one_word(n):
    with pytest.raises(ValueError, match="n must"):
        PCG64Array((1,), n)


@pytest.fixture
def bit_generators(monkeypatch):
    """Bit generators built while the test runs, by PCG64 or default_rng."""
    built = []
    pcg64, default_rng = np.random.PCG64, np.random.default_rng

    def counted(real):
        def build(*args, **kwargs):
            built.append(real)
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(np.random, "PCG64", counted(pcg64))
    monkeypatch.setattr(np.random, "default_rng", counted(default_rng))
    return built


@pytest.fixture
def lewis_run():
    game = lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"),
                      max_msg_len=2)
    community = build_community(
        CommunityConfig(game=game, epsilon=0.1, temp_msg=1.0), seed=3)
    dataset = collect(community, 200, 3)
    return (community, fit_broca(dataset, game),
            fit_wernicke(dataset, game, MapConfig()))


@pytest.mark.parametrize("step", ["collect", "eval_speaker", "eval_listener"])
def test_bit_generators_per_run_do_not_grow_with_episodes(
        lewis_run, bit_generators, step):
    community, broca, wernicke = lewis_run
    runs = {
        "collect": lambda n: collect(community, n, 5),
        "eval_speaker": lambda n: eval_speaker(broca, community, n, 5),
        "eval_listener": lambda n: eval_listener(wernicke, community, n, 5),
    }
    counts = []
    for n in (20, 200):
        bit_generators.clear()
        runs[step](n)
        counts.append(len(bit_generators))
    assert counts[0] == counts[1] <= 2


# 2**31 + 1 rejects a first 32-bit draw about half the time; 2**32 is the
# largest bound numpy draws from 32 bits
BOUNDS = [1, 2, 3, 5, 20, 2**31 + 1, 2**32]


def assert_same_states(streams_, refs):
    for i, ref in enumerate(refs):
        state = ref.bit_generator.state
        assert (int(streams_.hi[i]) << 64 | int(streams_.lo[i])
                == state["state"]["state"]), i
        assert (int(streams_.inc_hi[i]) << 64 | int(streams_.inc_lo[i])
                == state["state"]["inc"]), i
        assert bool(streams_.has_uint32[i]) == state["has_uint32"], i
        if state["has_uint32"]:
            assert int(streams_.uinteger[i]) == state["uinteger"], i


@pytest.mark.parametrize("suffix", [(), (1,)], ids=["episode", "arm"])
@pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
def test_array_draws_match_default_rng(seed, suffix):
    n = 500
    kernel = PCG64Array((seed,), n, suffix)
    refs = [np.random.default_rng([seed, i, *suffix]) for i in range(n)]
    assert_same_states(kernel, refs)
    picker = np.random.default_rng(99)
    # interleaved calls, each on a random subset of the streams
    for call in range(60):
        mask = picker.random(n) < [1.0, 0.5, 0.05][call % 3]
        chosen = np.flatnonzero(mask).tolist()
        k = BOUNDS[call % len(BOUNDS)]
        if call % 4 == 0:
            got = kernel.random(mask)
            want = [refs[i].random() for i in chosen]
        else:
            got = kernel.integers(k, mask)
            want = [int(refs[i].integers(k)) for i in chosen]
        assert got.tolist() == want, (call, k)
    assert_same_states(kernel, refs)


def test_unmasked_draws_cover_every_stream():
    kernel = PCG64Array((3,), 50)
    refs = [np.random.default_rng([3, i]) for i in range(50)]
    assert kernel.random().tolist() == [r.random() for r in refs]
    assert kernel.integers(20).tolist() == [int(r.integers(20)) for r in refs]
    assert_same_states(kernel, refs)


def test_a_wide_bound_redraws_about_half_the_streams():
    n = 2000
    kernel = PCG64Array((5,), n)
    got = kernel.integers(2**31 + 1)
    refs = [np.random.default_rng([5, i]) for i in range(n)]
    assert got.tolist() == [int(r.integers(2**31 + 1)) for r in refs]
    assert_same_states(kernel, refs)
    # Lemire rejects a first draw u when (u * k) mod 2**32 < 2**32 mod k
    k = 2**31 + 1
    first = [int(np.random.default_rng([5, i]).integers(2**32))
             for i in range(n)]
    rejected = np.mean([u * k % 2**32 < 2**32 % k for u in first])
    assert 0.45 < rejected < 0.55


def test_a_bound_of_one_draws_nothing():
    kernel = PCG64Array((5,), 10)
    before = kernel.copy()
    assert kernel.integers(1).tolist() == [0] * 10
    assert kernel.lo.tolist() == before.lo.tolist()
    assert kernel.hi.tolist() == before.hi.tolist()
    assert not kernel.has_uint32.any()


def test_copy_draws_apart():
    kernel = PCG64Array((5,), 10, (1,))
    twin = kernel.copy()
    first = kernel.random()
    assert twin.random().tolist() == first.tolist()
    assert kernel.random().tolist() != first.tolist()


def test_empty_mask_draws_nothing():
    kernel = PCG64Array((5,), 10)
    none = np.zeros(10, bool)
    assert kernel.random(none).tolist() == []
    assert kernel.integers(7, none).tolist() == []
    assert_same_states(kernel, [np.random.default_rng([5, i])
                                for i in range(10)])


@pytest.mark.parametrize("k", [0, -1, 2**32 + 1])
def test_bound_outside_32_bits_is_rejected(k):
    with pytest.raises(ValueError, match="k must"):
        PCG64Array((1,), 3).integers(k)
