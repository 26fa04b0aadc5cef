"""Counter-based streams: the keyed Philox draws, built without entropy."""

import random

import numpy as np
import pytest

from qsdlab import rng

_MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
@pytest.mark.parametrize("index", [0, 2**63 + 1])
@pytest.mark.parametrize("region", [0, rng.UNIFORM])
def test_stream_draws_are_the_keyed_philox_draws(seed, index, region):
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = region
    key = ((seed & _MASK64) << 64) | index
    ref = np.random.Generator(np.random.Philox(key=key, counter=counter))
    gen = rng.stream(seed, index, region)
    assert np.array_equal(gen.standard_normal(1000),
                          ref.standard_normal(1000))
    assert np.array_equal(gen.random(1000), ref.random(1000))


def test_stream_draws_no_os_entropy(monkeypatch):
    def refuse(n):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(random, "_urandom", refuse)
    first = rng.stream(3, 7).standard_normal(5)
    rng.stream(4, 8)               # another key in between changes nothing
    assert np.array_equal(rng.stream(3, 7).standard_normal(5), first)


@pytest.mark.parametrize("region", [0, rng.UNIFORM])
def test_seek_reads_each_stream_at_its_counter(region):
    seek = rng.Seek(-1, region)
    for index, block, n in [(5, 384, 512), (0, 0, 3), (2**63 + 1, 7, 6),
                            (5, 384, 9)]:
        ref = rng.stream(-1, index, region)
        ref.bit_generator.advance(block)
        # a read that stopped inside a block leaves nothing behind
        assert np.array_equal(seek.at(index, block).random(n),
                              ref.random(n))


def test_put_keys_each_generator_to_its_own_stream():
    # a pool of generators keyed in place reads each path's stream on,
    # draw after draw, as a generator built for it does
    seek = rng.Seek(7)
    pool = [seek.put(rng.stream(1, i), 40 + i, 0) for i in range(3)]
    refs = [rng.stream(7, 40 + i) for i in range(3)]
    for n in (5, 512, 3):
        for gen, ref in zip(pool, refs):
            assert np.array_equal(gen.standard_normal(n),
                                  ref.standard_normal(n))
    # re-keyed to other paths, each starts its new stream afresh
    for i, gen in enumerate(pool):
        assert np.array_equal(seek.put(gen, 9 - i, 0).standard_normal(8),
                              rng.stream(7, 9 - i).standard_normal(8))
