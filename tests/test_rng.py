"""The block stream against the scalar splitmix64 reference."""

from __future__ import annotations

import pytest

from infradep.rng import BLOCK, MASK64, stream_seed, uniforms

from .oracles import SplitMix64


@pytest.mark.parametrize(
    "seed", [0, 1, -1, MASK64, 2**64 + 5, stream_seed(7, 0), stream_seed(2**40, 123)]
)
def test_uniforms_equal_the_scalar_stream(seed):
    # Three whole blocks and one draw into the fourth cross every kind of
    # block boundary.
    n = 3 * BLOCK + 1
    ref = SplitMix64(seed)
    expected = [ref.uniform().hex() for _ in range(n)]
    stream = uniforms(seed)
    assert [next(stream).hex() for _ in range(n)] == expected
