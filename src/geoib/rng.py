"""Counter-based random number generation.

Every stochastic routine in this package takes an explicit `Rng`; nothing
reads global random state.  The generator is Philox (counter-based), so a
stream is fully determined by its 128-bit key and advances deterministically
regardless of platform.  Independent substreams are derived by keying on
(seed, stream index) rather than by jumping, so a draw site keyed by its
index (an optimizer step, an epoch, a network's initialization) sees the
same bits no matter what ran before it.  Within a stream, draws are
consumed in order: a batch of Hutchinson probes is one draw of packed sign
bits from the step's stream, and its prefix does not change when more
probes are drawn.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic normal/uniform/sign source keyed by (seed, stream).

    Args:
        seed: any Python int; reduced mod 2**64.
        stream: substream index, also reduced mod 2**64.  The default 0 is
            the root stream.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "Rng":
        """A fresh, statistically independent stream keyed by `index`.

        Substream indices are offset by 1 so substream(0) never collides
        with the root stream of the same seed.
        """
        return Rng(self.seed, stream=int(index) + 1 + self.stream * 0x9E3779B9)

    def normal(self, shape=None) -> np.ndarray:
        """Standard normal draw of the given shape (scalar if None)."""
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def signs(self, shape) -> np.ndarray:
        """+-1 float64 draw of the given shape, one stream bit per entry.

        The n = prod(shape) signs are the stream's next ceil(n/8) bytes
        unpacked most significant bit first, a set bit giving +1, so a
        longer draw extends a shorter one whatever n is mod 8.
        """
        n = int(np.prod(shape))
        packed = np.frombuffer(self._gen.bytes(-(-n // 8)), dtype=np.uint8)
        bits = np.unpackbits(packed, count=n).view(np.int8)
        bits *= 2
        bits -= 1
        return bits.astype(np.float64).reshape(shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        """Integers in [low, high), matching numpy's half-open convention."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
