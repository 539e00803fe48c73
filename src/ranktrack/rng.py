"""Seedable, portable pseudo-random streams.

The core is SplitMix64: state advances by the 64-bit golden-ratio
increment and every output is finalized with two xorshift-multiply
rounds (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB). It is a
dozen lines of integer arithmetic, so streams reproduce bit-identically
on any platform or in any language, which is what keeps generated data
and training runs stable across machines.

Uniform doubles take the top 53 bits of one output word; normals use
Box-Muller on two uniforms; bounded integers use rejection sampling.

The generator is counter-based: the k-th word after state s is
``_mix(s + k * golden)`` (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC'11). ``normals`` uses that to compute a block of
words with numpy. It returns exactly the values of the same number of
``normal`` calls and leaves the stream in exactly the same state, so
block and scalar draws give one stream. The mean may differ per
element: a block with a length-``count`` array ``mu`` gives the values
of the calls ``normal(mu[0], sigma)``, ``normal(mu[1], sigma)``, ... in
turn, so one call draws what several scalar-mean blocks would. The
uint64 words and the arithmetic around the transcendentals are
IEEE-exact in numpy, but ``np.log`` is not correctly rounded: it
differs from ``math.log`` in the last bit on about 0.3% of uniform
inputs (numpy 2.4, x86-64). So ``math.log``, ``math.sin`` and
``math.cos`` stay per element.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` over a uint64 array; numpy's uint64 products wrap mod 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Deterministic random stream; one instance per independent use."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed
        self._spare_normal: float | None = None

    def spawn(self, *keys: int) -> "SplitMix64":
        """Derive an independent child stream from the original seed.

        The child depends only on (seed, keys), never on how much of
        this stream has been consumed.
        """
        s = _mix(self.seed ^ 0xA3EC647659359ACD)
        for k in keys:
            s = _mix(s ^ _mix(k & _MASK64))
        return SplitMix64(s)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53  # in [0, 1)
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint requires n >= 1")
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < bound:
                return u % n

    def normal(self, mu: float, sigma: float) -> float:
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
            return mu + sigma * z
        u1 = 0.0
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(_TWO_PI * u2)
        return mu + sigma * r * math.cos(_TWO_PI * u2)

    def normals(self, mu: float | np.ndarray, sigma: float, count: int) -> np.ndarray:
        """``count`` normals as a float64 array, leaving the stream in the
        state ``count`` ``normal`` calls leave it in. Element k is the value
        of the k-th of those calls, ``normal(mu, sigma)`` for a scalar
        ``mu`` and ``normal(mu[k], sigma)`` for a length-``count`` array."""
        mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (count,))
        state, spare = self._state, self._spare_normal
        out = np.empty(count)
        start = 0
        if count and spare is not None:
            out[0] = mu[0] + sigma * spare
            self._spare_normal = None
            start = 1
        pairs = (count - start + 1) // 2
        if pairs == 0:
            return out
        steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        words = _mix_array(steps + np.uint64(self._state))
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        u1, u2 = u[0::2], u[1::2]
        if not u1.all():
            # the scalar path redraws u1 == 0, which shifts the whole stream
            self._state, self._spare_normal = state, spare
            return np.array([self.normal(m, sigma) for m in mu.tolist()])
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
        theta = (_TWO_PI * u2).tolist()
        cos = np.fromiter(map(math.cos, theta), np.float64, pairs)
        sin = r * np.fromiter(map(math.sin, theta), np.float64, pairs)
        # the operation order of ``normal``: mu + (sigma * r) * cos for the
        # first of a pair, mu + sigma * (r * sin) for the spare
        out[start::2] = mu[start::2] + (sigma * r) * cos
        out[start + 1::2] = mu[start + 1::2] + sigma * sin[:(count - start) // 2]
        if (count - start) % 2:
            self._spare_normal = float(sin[-1])
        self._state = (self._state + 2 * pairs * _GOLDEN) & _MASK64
        return out
