"""Counter-based 64-bit random streams for reproducible simulation.

The generator is splitmix64: state advances by the 64-bit golden-ratio
increment and each output is the avalanche mix of the state.  Everything
here is integer arithmetic mod 2^64, so traces are bit-exact across
platforms and Python builds.  The constants below are the documented
contract; see README ("Reproducibility") before touching them.

Draw k (k = 1, 2, ...) of a stream is ``mix64(seed + k * GOLDEN)``, and
its uniform double is ``((draw >> 11) + 0.5) * 2**-53``, in the open
interval (0, 1).  ``uniforms`` computes ``BLOCK`` draws at once with
wrapping ``uint64`` array arithmetic and yields exactly the values of
drawing them one at a time.  NumPy is imported on the first block, not with this module.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Iterator

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Avalanche finalizer of splitmix64."""
    x &= MASK64
    x ^= x >> 30
    x = (x * MIX_A) & MASK64
    x ^= x >> 27
    x = (x * MIX_B) & MASK64
    x ^= x >> 31
    return x


def stream_seed(seed: int, replication: int) -> int:
    """Derive the independent stream seed for one replication.

    stream_seed(s, r) = mix64(s XOR mix64(r XOR GOLDEN)); the inner mix
    decorrelates consecutive replication indices, the outer one
    decorrelates user seeds.
    """
    return mix64((seed & MASK64) ^ mix64((replication & MASK64) ^ GOLDEN))


# Draws per block of ``uniforms``.  A block's cost is mostly NumPy's fixed
# per-call overhead, so it grows little from 32 to 256 draws, while the
# draws a replication leaves unused in its last block are wasted; estimator
# time was measured flat from 64 to 256.
BLOCK = 128


def uniforms(seed: int) -> Iterator[float]:
    """The uniform doubles of the stream seeded ``seed``, computed ``BLOCK``
    at a time."""
    start = seed & MASK64
    step = BLOCK * GOLDEN
    return chain.from_iterable(
        _uniform_block((start + b * step) & MASK64) for b in count()
    )


def _uniform_block(state: int) -> list[float]:
    """The next ``BLOCK`` uniforms of a stream whose state is ``state``.

    Every ``uint64`` operation is on an array, where NumPy wraps mod 2^64
    silently (on a NumPy scalar it would warn).
    """
    import numpy as np

    z = np.arange(1, BLOCK + 1, dtype=np.uint64)
    z *= GOLDEN
    z += state
    z ^= z >> 30
    z *= MIX_A
    z ^= z >> 27
    z *= MIX_B
    z ^= z >> 31
    z >>= 11
    return ((z + 0.5) * 2.0**-53).tolist()
