"""Deterministic counter-based random stream (splitmix64).

Every random decision in the engine is drawn from this stream so that a run
is reproducible bit-for-bit from its seed alone, independent of call order
inside numpy or the platform's libc.

The generator is the splitmix64 finalizer applied to an affine counter:

    value(i) = mix64(seed + (i + 1) * GAMMA)   (mod 2**64)

where ``mix64`` is the xor-shift/multiply finalizer from Vigna's
splitmix64.c and GAMMA = 0x9E3779B97F4A7C15.  Because the i-th output is a
pure function of ``(seed, i)``, bulk draws can be vectorized with numpy
uint64 arithmetic and are guaranteed identical to scalar evaluation.

Derived values:
  * uniforms take the top 53 bits: u = (value >> 11) * 2**-53, in [0, 1).
  * normals use Box-Muller on consecutive uniform pairs, with the first
    uniform shifted into (0, 1] to keep the logarithm finite.
  * bounded integers use value % bound (the tiny modulo bias is irrelevant
    here; determinism is what matters).
  * choose(items, k) reads its k raw values in one draw and reduces the
    j-th modulo n - j, so it equals k successive integer_below calls.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every entry of a uint64 array, in place; returns z."""
    shifted = np.empty_like(z)
    for shift, mult in ((30, _MULT1), (27, _MULT2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent sub-stream seed for (seed, label).

    Folds the label bytes into the master seed one mix at a time; used to
    give the initial state its own stream.  A run draws from no other
    stream: stage transitions reuse each new token's initial noise.
    """
    h = mix64(seed)
    for byte in label.encode("utf-8"):
        h = mix64(h ^ byte)
    return mix64(h)


class UniformStream:
    """Stateful view over the counter-based stream for one consumer.

    The counter advances by the number of raw 64-bit values consumed, so a
    sequence of draws is equivalent to one big draw split at the same
    offsets.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def uint64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit values as a uint64 array."""
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z *= np.uint64(_GAMMA)  # uint64 array arithmetic wraps mod 2**64
        z += np.uint64(self.seed)
        return _mix64_array(z)

    def uniform(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in [0, 1), float64, 53-bit resolution."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals via Box-Muller.

        Consumes an even number of uniforms (pairs); for odd ``n`` the last
        generated normal is discarded.
        """
        pairs = (n + 1) // 2
        raw = self.uint64(2 * pairs)
        raw >>= np.uint64(11)
        out = raw.astype(np.float64)
        # even entries become the radius, odd ones the angle, then the pair
        # (radius * cos(angle), radius * sin(angle)), all in place
        radius, angle = out[0::2], out[1::2]
        radius += 1.0  # shift u1 into (0, 1] so log(u1) is finite
        radius *= _INV_2_53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= _INV_2_53
        angle *= 2.0 * np.pi
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        return out[:n]

    def integer_below(self, bound: int) -> int:
        """One integer in [0, bound)."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return int(self.uint64(1)[0] % np.uint64(bound))

    def choose(self, items: np.ndarray, k: int) -> np.ndarray:
        """Pick ``k`` distinct entries of ``items`` (partial Fisher-Yates).

        Returned entries are sorted; the draw order itself is not exposed.
        """
        pool = np.asarray(items)
        n = len(pool)
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n} items")
        offsets = self.uint64(k) % np.arange(n, n - k, -1, dtype=np.uint64)
        picks = pool.tolist()
        for j, offset in enumerate(offsets.tolist()):
            swap = j + offset
            picks[j], picks[swap] = picks[swap], picks[j]
        return np.sort(np.array(picks[:k], dtype=pool.dtype))
