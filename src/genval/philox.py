"""numpy's Philox4x64-10 stream seeded by SeedSequence, in Python
integers, for k-means++ (``pq``) to draw from without loading
``numpy.random``, an import that alone costs about 5.5 MiB of RSS
(numpy 2.4 on Linux). Tests pin every draw against ``numpy.random``.
"""
from __future__ import annotations

_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _hashmix(const: int, mult: int):
    """SeedSequence's 32-bit hash, as a function of one word, with its
    own running constant, which starts at ``const``."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


class Philox:
    """numpy's ``Generator(Philox(SeedSequence(entropy)))``, bit for bit,
    for the two draws k-means++ makes. ``entropy`` is a list of
    non-negative ints.

    SeedSequence mixes the ints, split into little-endian 32-bit words,
    into a pool of four words and hashes the pool into the two 64-bit
    words of the key. Philox4x64-10 (Salmon et al., *Parallel Random
    Numbers: As Easy as 1, 2, 3*, SC 2011) adds 1 to a 256-bit counter,
    from 0, before each block of four 64-bit outputs.
    """

    def __init__(self, entropy: list[int]):
        words = [e >> s & _M32 for e in entropy for s in range(0, max(e.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        s0, s1, s2, s3 = map(_hashmix(0x8B51F9DD, 0x58F38DED), pool)
        self._key = (s0 | s1 << 32, s2 | s3 << 32)
        self._counter = 0
        self._block: list[int] = []  # outputs left, next one last
        self._half = None  # the high half of a 64-bit draw cut for 32 bits

    def _next64(self) -> int:
        if not self._block:
            self._counter += 1
            c0, c1, c2, c3 = (self._counter >> s & _M64 for s in (0, 64, 128, 192))
            k0, k1 = self._key
            for _ in range(10):
                p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
                c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
                k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _M64, (k1 + 0xBB67AE8584CAA73B) & _M64
            self._block = [c3, c2, c1, c0]
        return self._block.pop()

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def integers(self, n: int) -> int:
        """A uniform int in [0, n), 1 <= n <= 2**63: Lemire's method
        (*Fast Random Integer Generation in an Interval*, TOMACS 2019) on
        32-bit draws when n <= 2**32, else on 64-bit draws."""
        if n == 1:
            return 0
        bits, draw = (32, self._next32) if n <= 1 << 32 else (64, self._next64)
        threshold = (1 << bits) % n
        m = draw() * n
        while m & ((1 << bits) - 1) < threshold:
            m = draw() * n
        return m >> bits

    def random(self) -> float:
        """A uniform float in [0, 1), 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * 2.0**-53
