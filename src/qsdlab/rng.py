"""Counter-based random streams: one Philox generator per (seed, index).

Every path, replica and draw set owns the stream keyed by (seed, index),
so results never depend on how the work is blocked or ordered (Salmon
et al., SC'11).  The top bits of the counter split each key into
disjoint regions: region 0 carries the Gaussian increments and the
jump-chain uniforms, UNIFORM the crossing-test uniforms.  A Seek reads
any key's stream from a known counter without building a generator.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

UNIFORM = 1 << 62          # counter region of the crossing-test uniforms


class _Key(ISeedSequence):
    """Hands Philox the key words set just before it is built, so no
    OS-entropy SeedSequence is drawn for a generator whose key is given.
    One shared holder: a generator copies the words when it is built
    and never asks its seed sequence again."""

    def __init__(self):
        self.words = np.zeros(2, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


_KEY = _Key()


def stream(seed, index, region=0):
    """Generator keyed by (seed, index), its counter at the region start;
    the draws of Philox(key=(seed << 64) | index)."""
    _KEY.words[0] = int(index) & _MASK64
    _KEY.words[1] = int(seed) & _MASK64
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = region
    return np.random.Generator(np.random.Philox(_KEY, counter=counter))


class Seek:
    """Generators re-keyed in place: at(index, block) returns one set to
    the draws of stream(seed, index, region) after advance(block), where
    a block is four 64-bit words, and put(gen, index, block) sets gen so.
    Re-keying costs a fraction of building a stream and advancing it."""

    def __init__(self, seed, region=0):
        self.region = region
        self.gen = np.random.Generator(np.random.Philox(_KEY))  # any key
        self._counter = [0, 0, 0, region]
        self._key = [0, int(seed) & _MASK64]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def at(self, index, block):
        return self.put(self.gen, index, block)

    def put(self, gen, index, block):
        self._counter[0] = int(block)
        self._key[0] = int(index) & _MASK64
        gen.bit_generator.state = self._state
        return gen
