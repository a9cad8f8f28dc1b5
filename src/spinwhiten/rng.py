"""Counter-based random number generation.

All randomness in the simulator derives from one documented 64-bit hash: the
splitmix64 finalizer applied to ``seed + (k + 1) * GOLDEN`` for a counter k.
Draw k is a pure function of (seed, k), so results are independent of
iteration order, chunking, or thread count, and bit-identical across
platforms. The finalizer is a bijection on 64-bit words, which also makes it
invertible: `seed_for_gamma` exploits this to construct seeds whose first
draw is an exactly representable target (used for dyadic-phase experiments).

The module also holds the one phasor kernel, `phasor_factors`: exp(i*phase)
as a 2^12-entry table entry times a short polynomial in the residual angle
(Tang, ACM TOMS 1989). `normals` takes its Box-Muller cosines from it, the
ensemble's receiver sum and the register's phase encoding their phasors.
"""

from __future__ import annotations

import math

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
TWO_PI = 2.0 * np.pi

# phasor_factors: exp(2*pi*i*j/2^12) over the 2^12 grid angles.
_TABLE_SIZE = 1 << 12
_TABLE_STEP = TWO_PI / _TABLE_SIZE
_TABLE_COS = np.cos(np.arange(_TABLE_SIZE) * _TABLE_STEP)
_TABLE_SIN = np.sin(np.arange(_TABLE_SIZE) * _TABLE_STEP)


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
    out = np.empty(_draw_shape(seed, count), dtype=np.uint64)
    return _hash_into(seed, start, 1, out, np.empty_like(out))


def uniforms(seed: int | np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Draws start .. start+count-1 of the stream, vectorized.

    Equivalent to ``[uniform01(mix(seed, k)) for k in range(start, start+count)]``
    but allocation-lean: million-spin whitening sweeps hit this path hard.
    seed may be a uint64 column of streams, as in `words`.
    """
    z = words(seed, count, start)
    z >>= np.uint64(11)
    return z * _U53_SCALE


# Rows of the float64 array that `normals` reuses: one for the angle and then
# the result, seven for `phasor_factors` and one for its table indices.
NORMAL_BUFFER_ROWS = 9


def normals(
    seed: int | np.ndarray,
    count: int,
    start: int = 0,
    buffers: np.ndarray | None = None,
) -> np.ndarray:
    """Standard-normal draws via Box-Muller over consecutive uniform pairs.

    Draw j is sqrt(-2 log(1 - u_2j)) * cos(2 pi u_2j+1) for the uniforms at
    stream positions 2(start+j) and 2(start+j)+1, so disjoint (start, count)
    ranges never share entropy. The cosine comes from the `phasor_factors`
    kernel, not from libm; against the scalar math.cos formula each draw is
    within 1e-15 * max(1, radius). seed may be a uint64 column of streams, as
    in `words`; each row is then that stream's draws. `buffers`, a
    C-contiguous float64 array of shape (NORMAL_BUFFER_ROWS, >= the number
    of draws), is reused when given: the result is then a view of its first
    row, and the other rows are free once the call returns.
    """
    shape = _draw_shape(seed, count)
    size = math.prod(shape)
    if buffers is None:
        buffers = np.empty((NORMAL_BUFFER_ROWS, size))
    row = buffers[0, :size]
    # Words are hashed into rows 8, 1 and 2, which the kernel overwrites
    # later, and cast into row 0 by np.copyto, which, unlike a ufunc casting
    # on the fly, needs no temporary buffer.
    w8, w1, w2 = (buffers[i, :size].view(np.uint64).reshape(shape) for i in (8, 1, 2))
    # Each uniform is u = k * 2^-53 for the top 53 bits k of its word. The
    # odd positions give the angle k * (2 pi 2^-53), rounded exactly as
    # 2 pi * u is, and the kernel's cos(angle) = T_cos cos r - T_sin sin r.
    k = _hash_into(seed, 2 * start + 1, 2, w8, w1)
    k >>= np.uint64(11)
    np.copyto(row, k.reshape(-1))
    row *= TWO_PI * _U53_SCALE
    table_cos, table_sin, cos_r, sin_r = phasor_factors(
        row, buffers[1:8], buffers[8].view(np.intp))
    cos_r *= table_cos
    sin_r *= table_sin
    cos_r -= sin_r
    # The even positions give radius = sqrt(-2 log(1 - u)); 1 - u lies in
    # (0, 1], so its log is finite.
    k = _hash_into(seed, 2 * start, 2, w1, w2)
    k >>= np.uint64(11)
    np.copyto(row, k.reshape(-1))
    row *= _U53_SCALE
    np.subtract(1.0, row, out=row)
    np.log(row, out=row)
    row *= -2.0
    np.sqrt(row, out=row)
    row *= cos_r
    return row.reshape(shape)


def phasor_factors(
    phase: np.ndarray,
    buffers: np.ndarray | None = None,
    indices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors (T_cos, T_sin, cos r, sin r) of exp(i*phase), elementwise.

    exp(i*phase) = (T_cos + i*T_sin) * (cos r + i*sin r): the table entry
    for a = rint(phase * 2^12 / (2*pi)) mod 2^12 times the polynomial
    rotation by the residual r = phase - a * 2*pi/2^12, |r| <= pi/2^12 for
    |phase| <= 2^20 (see `ensemble.phasor_sum`). `buffers`, a (7, >=
    len(phase)) float64 array, and `indices`, an intp array at least as
    long, are reused when given; the four factors returned are views into
    `buffers`.
    """
    count = len(phase)
    buffers = np.empty((7, count)) if buffers is None else buffers
    index = np.empty(count, dtype=np.intp) if indices is None else indices[:count]
    a, r, r2, cos_r, sin_r, table_cos, table_sin = buffers[:, :count]
    np.multiply(phase, 1.0 / _TABLE_STEP, out=a)
    np.rint(a, out=a)
    np.copyto(index, a, casting="unsafe")
    index &= _TABLE_SIZE - 1
    np.take(_TABLE_COS, index, out=table_cos)
    np.take(_TABLE_SIN, index, out=table_sin)
    np.multiply(a, _TABLE_STEP, out=r)
    np.subtract(phase, r, out=r)
    np.multiply(r, r, out=r2)
    np.multiply(r2, 1.0 / 24.0, out=cos_r)
    cos_r -= 0.5
    cos_r *= r2
    cos_r += 1.0
    np.multiply(r2, -1.0 / 6.0, out=sin_r)
    sin_r *= r
    sin_r += r
    return table_cos, table_sin, cos_r, sin_r


def _draw_shape(seed: int | np.ndarray, count: int) -> tuple[int, ...]:
    """Shape of `count` draws: (count,) for an int seed, (B, count) for a column."""
    return seed.shape[:-1] + (count,) if isinstance(seed, np.ndarray) else (count,)


def _hash_into(
    seed: int | np.ndarray, first: int, step: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """out[..., j] = mix(seed, first + j*step), hashed in place in uint64 `out`.

    The counter row (k+1)*GOLDEN is added to the seed (an int or a column)
    straight into out; scratch, uint64 of out's shape, holds the shifts.
    """
    count = out.shape[-1]
    counter = np.arange(first + 1, first + 1 + step * count, step, dtype=np.uint64)
    counter *= np.uint64(GOLDEN)
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(seed & MASK64)
    np.add(seed, counter, out=out)
    np.right_shift(out, np.uint64(30), out=scratch)
    out ^= scratch
    out *= np.uint64(_MULT1)
    np.right_shift(out, np.uint64(27), out=scratch)
    out ^= scratch
    out *= np.uint64(_MULT2)
    np.right_shift(out, np.uint64(31), out=scratch)
    out ^= scratch
    return out


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
