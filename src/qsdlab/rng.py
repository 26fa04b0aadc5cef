"""Counter-based random streams: one Philox generator per (seed, index).

Every path, replica and draw set owns the stream keyed by (seed, index),
so results never depend on how the work is blocked or ordered (Salmon
et al., SC'11).  The top bits of the counter split each key into
disjoint regions: region 0 carries the Gaussian increments and the
jump-chain uniforms, UNIFORM the crossing-test uniforms and the profile
draws.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

UNIFORM = 1 << 62          # counter region of the crossing-test uniforms


def stream(seed, index, region=0):
    """Generator keyed by (seed, index), its counter at the region start."""
    key = ((int(seed) & _MASK64) << 64) | (int(index) & _MASK64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = region
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
