"""Counter-based random streams.

All randomness in the package flows through Philox, keyed by the user seed
with stream labels loaded into the counter block; the same seed and labels
always give the same words. Distinct labels do not make streams independent:
(seed, k, ...) reaches (seed, k + 1, ...) after one 256-bit block.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return the generator for (seed, stream labels).

    Up to four integer labels identify the stream; the same
    (seed, labels) always yields the same sequence. The seed and every
    label must lie in [0, 2^64): Philox takes 64-bit words, and a value
    outside would alias one inside.
    """
    if len(stream) > 4:
        raise ValueError("at most 4 stream labels supported")
    words = [int(seed), *(int(s) for s in stream)]
    if not all(0 <= w < 1 << 64 for w in words):
        raise ValueError(f"the seed and each stream label must lie in [0, 2**64); "
                         f"got seed {seed}, labels {list(stream)}")
    counter = words[1:] + [0] * (4 - len(stream))
    return np.random.Generator(np.random.Philox(counter=counter, key=words[0]))
