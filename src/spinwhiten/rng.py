"""Counter-based random number generation.

All randomness in the simulator derives from one documented 64-bit hash: the
splitmix64 finalizer applied to ``seed + (k + 1) * GOLDEN`` for a counter k.
Draw k is a pure function of (seed, k), so results are independent of
iteration order, chunking, or thread count, and bit-identical across
platforms. The finalizer is a bijection on 64-bit words, which also makes it
invertible: `seed_for_gamma` exploits this to construct seeds whose first
draw is an exactly representable target (used for dyadic-phase experiments).
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, rounded to odd
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
# Modular inverses of the two finalizer multipliers (mod 2^64).
_INV_MULT1 = 0x96DE1B173F119089
_INV_MULT2 = 0x319642B2D24D8EC3

_U53_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer: avalanching bijection on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix(seed: int, k: int) -> int:
    """Word for draw k of the stream identified by seed."""
    return mix64((seed + (k + 1) * GOLDEN) & MASK64)


def uniform01(word: int) -> float:
    """Map a 64-bit word to a double in [0, 1) using its top 53 bits."""
    return (word >> 11) * _U53_SCALE


def words(seed: int | np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Words start .. start+count-1 of the stream, vectorized, as uint64.

    Equivalent to ``[mix(seed, k) for k in range(start, start+count)]``. seed
    is an int, or a uint64 column of shape (B, 1) whose rows are separate
    streams: the result then has shape (B, count), row b holding the words of
    seed[b], so a batch of streams is hashed in one pass.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    if isinstance(seed, np.ndarray):
        z = seed + z
    else:
        z += np.uint64(seed & MASK64)
    tmp = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MULT1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MULT2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def uniforms(seed: int | np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Draws start .. start+count-1 of the stream, vectorized.

    Equivalent to ``[uniform01(mix(seed, k)) for k in range(start, start+count)]``
    but allocation-lean: million-spin whitening sweeps hit this path hard.
    seed may be a uint64 column of streams, as in `words`.
    """
    z = words(seed, count, start)
    z >>= np.uint64(11)
    return z * _U53_SCALE


def normals(seed: int | np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Standard-normal draws via Box-Muller over consecutive uniform pairs.

    Draw j consumes stream positions 2j and 2j+1, so disjoint (start, count)
    ranges never share entropy. seed may be a uint64 column of streams, as in
    `words`; each row is then that stream's draws.
    """
    u = uniforms(seed, 2 * count, start=2 * start)
    # radius = sqrt(-2 log(1 - u_even)), angle = 2 pi u_odd, each in one buffer;
    # 1 - u lies in (0, 1], so its log is finite.
    radius = np.subtract(1.0, u[..., 0::2])
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(u[..., 1::2], 2.0 * np.pi)
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string, for deriving named substreams."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def derive(seed: int, label: str) -> int:
    """Child seed for a named substream of a master seed."""
    return mix64((seed & MASK64) ^ fnv1a64(label))


def _unshift_right(z: int, shift: int) -> int:
    r = z
    for _ in range(64 // shift + 1):
        r = z ^ (r >> shift)
    return r & MASK64


def invert_mix64(word: int) -> int:
    """Preimage of mix64: invert_mix64(mix64(z)) == z for every 64-bit z."""
    z = _unshift_right(word & MASK64, 31)
    z = (z * _INV_MULT2) & MASK64
    z = _unshift_right(z, 27)
    z = (z * _INV_MULT1) & MASK64
    return _unshift_right(z, 30)


def seed_for_gamma(gamma: float, index: int = 0) -> int:
    """Seed whose draw at `index` equals `gamma` exactly.

    gamma must be representable as k / 2^53 (every dyadic fraction with at
    most 53 fractional bits qualifies), which is precisely the value set
    `uniform01` can produce.
    """
    if not 0.0 <= gamma < 1.0:
        raise OutOfRange(f"gamma must lie in [0, 1), got {gamma}")
    scaled = gamma / _U53_SCALE
    top53 = int(scaled)
    if float(top53) != scaled:
        raise OutOfRange(f"gamma {gamma!r} is not of the form k / 2**53")
    word = top53 << 11
    return (invert_mix64(word) - (index + 1) * GOLDEN) & MASK64
