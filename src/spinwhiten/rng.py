"""Counter-based random number generation.

All randomness in the simulator derives from one documented 64-bit hash: the
splitmix64 finalizer applied to ``seed + (k + 1) * GOLDEN`` for a counter k.
Draw k is a pure function of (seed, k), so results are independent of
iteration order, chunking, or thread count, and bit-identical across
platforms. The finalizer is a bijection on 64-bit words, which also makes it
invertible: `seed_for_gamma` exploits this to construct seeds whose first
draw is an exactly representable target (used for dyadic-phase experiments).

The module also holds the one phasor kernel, `phasor_factors`. Its phases
are 64-bit fixed-point turns: a uint64 t stands for the angle 2*pi*t/2^64,
the phase-accumulator word of Tierney, Rader & Gold (IEEE Trans. Audio
Electroacoust. AU-19, 1971). The top 12 bits of t, rounded, pick a 2^12-entry
table entry, and a short polynomial rotates by the integer residual (Tang,
ACM TOMS 1989). A hashed word with its low 11 bits cleared is the turn of
the uniform draw it gives: `normals` takes the cosines and sines of its
Box-Muller pairs from the kernel this way, `phasor_sum` (the receiver sum)
its whitened phasors, and the register's phase encoding its phasors from
exact turns of gamma. Each Box-Muller pair hashes two words and gives both
of its halves as consecutive normal draws, one word per draw. Every noisy
trace and every `cat` value is a function of that layout: another layout
moves them by new draws, not by rounding. `phasor_sum` and `normal_blocks`
(the normals of the derived streams mix(seed, j), one per row) read their
words in blocks from one generator, `_word_blocks`, which advances one
counter row in place; each allocates its buffers once per call, so no other
module knows the buffers' layout.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

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
# A word with these bits cleared is the turn of its uniform draw: (word >> 11) * 2^11.
_TURN_MASK = np.uint64(MASK64 ^ 0x7FF)

# phasor_factors: exp(2*pi*i*j/2^12) over the 2^12 grid angles, which sit
# 2^52 turn units apart; the residual turn r_t, |r_t| <= 2^51, is r_t * 2pi/2^64 rad.
_TABLE_BITS = 12
_INDEX_SHIFT = np.uint64(64 - _TABLE_BITS)
_HALF_STEP = np.uint64(1 << (63 - _TABLE_BITS))
_TURN_RADIANS = 2.0 * np.pi * 2.0 ** -64
_TABLE_ANGLES = np.arange(1 << _TABLE_BITS) * (2.0 * np.pi / (1 << _TABLE_BITS))
_TABLE_COS = np.cos(_TABLE_ANGLES)
_TABLE_SIN = np.sin(_TABLE_ANGLES)
# Float64 rows `phasor_factors` works in, the last holding its table indices.
_PHASOR_BUFFER_ROWS = 7


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


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Draws start .. start+count-1 of the stream, vectorized.

    Equivalent to ``[uniform01(mix(seed, k)) for k in range(start, start+count)]``
    but allocation-lean.
    """
    z = np.empty(count, dtype=np.uint64)
    _hash_into(seed, start, z, np.empty_like(z))
    z >>= np.uint64(11)
    return z * _U53_SCALE


# phasor_sum: turns per block (the block's buffers, ~0.5 MB, stay in L2).
_SUM_BLOCK = 8192


def phasor_sum(seed: int, count: int) -> complex:
    """Sum of exp(2*pi*i*u_k) over draws k = 0 .. count-1 of the stream.

    Turn k is mix(seed, k) with its low 11 bits cleared, which is exactly
    u_k * 2^64 for u_k = uniform01(mix(seed, k)), the phase as
    `phasor_factors` takes it. The turns come _SUM_BLOCK at a time from
    `_word_blocks`, and each block's phasors are summed from the kernel's
    factors with four `np.dot` products. Every buffer is allocated once per
    call: buffers made and freed per block would be trimmed from the top of
    the heap by glibc and faulted back in on the next block, about 10^4 page
    faults and 20 ms per 10^6 turns in a fresh process.
    """
    buffers = np.empty((_PHASOR_BUFFER_ROWS, _SUM_BLOCK))
    re = im = 0.0
    for turns in _word_blocks(seed, count, _SUM_BLOCK):
        turns &= _TURN_MASK
        table_cos, table_sin, cos_r, sin_r = phasor_factors(turns, buffers)
        re += np.dot(table_cos, cos_r) - np.dot(table_sin, sin_r)
        im += np.dot(table_sin, cos_r) + np.dot(table_cos, sin_r)
    return complex(re, im)


# Rows of the float64 array that `normals` reuses: the _PHASOR_BUFFER_ROWS
# rows of `phasor_factors` over the pairs (the first of them then takes the
# result), and one for the pairs' radii.
_NORMAL_BUFFER_ROWS = _PHASOR_BUFFER_ROWS + 1


def normals(
    seed: int | np.ndarray, count: int, buffers: np.ndarray | None = None
) -> np.ndarray:
    """Standard-normal draws 0 .. count-1 of the stream, by Box-Muller.

    Pair j takes the uniforms at stream positions 2j (the radius) and 2j+1
    (the angle) and gives two draws: draw 2j is
    sqrt(-2 log(1 - u_2j)) * cos(2 pi u_2j+1) and draw 2j+1 the same radius
    times sin(2 pi u_2j+1). Draw p is thus half p & 1 of pair p >> 1, a pure
    function of (seed, p), and one word is hashed per draw (one more for an
    odd count, whose last pair gives only its cosine half). The cosine and
    sine come from the `phasor_factors` kernel, not from libm; against the
    scalar math.cos and math.sin formulas each draw is within
    1e-15 * max(1, radius). seed is an int, or a uint64 column of shape
    (B, 1) whose rows are separate streams: the result then has shape
    (B, count), row b holding the draws of seed[b]. `buffers`, a C-contiguous
    float64 array of shape (_NORMAL_BUFFER_ROWS, >= the number of draws), is
    reused when given: the result is then a view of its first row, and the
    other rows are free once the call returns.
    """
    shape = seed.shape[:-1] + (count,) if isinstance(seed, np.ndarray) else (count,)
    size = math.prod(shape)
    if buffers is None:
        buffers = np.empty((_NORMAL_BUFFER_ROWS, size))
    pair_shape = shape[:-1] + ((count + 1) // 2,)
    span = math.prod(pair_shape)  # at most size, so each pair row fits a row
    # The pairs' words, hashed in one pass into rows 2-3 with rows 4-5 for
    # the shifts. Each odd word with its low 11 bits cleared is the turn of
    # its uniform u = (word >> 11) * 2^-53; the kernel reads the turns before
    # it writes rows 2-5.
    words, scratch = (buffers[i:i + 2].reshape(-1)[:2 * span].view(np.uint64)
                      for i in (2, 4))
    word_shape = shape[:-1] + (2 * pair_shape[-1],)
    _hash_into(seed, 0, words.reshape(word_shape), scratch.reshape(word_shape))
    # radius = sqrt(-2 log(1 - u)) from each even word, in the last row; 1 - u
    # lies in (0, 1], so its log is finite. np.copyto casts without a temporary.
    k = words[0::2]
    k >>= np.uint64(11)
    radius = buffers[-1, :span]
    np.copyto(radius, k)
    radius *= _U53_SCALE
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    turns = words[1::2]
    turns &= _TURN_MASK
    table_cos, table_sin, cos_r, sin_r = phasor_factors(turns, buffers[:-1])
    # cos = T_cos cos r - T_sin sin r into row 1; sin = T_sin cos r + T_cos sin r.
    cos = np.multiply(table_cos, cos_r, out=buffers[1, :span])
    table_cos *= sin_r
    sin_r *= table_sin
    cos -= sin_r
    sin = table_sin
    sin *= cos_r
    sin += table_cos
    # Row 0 takes the draws: cosine halves in its even slots, sine halves in
    # its odd ones.
    out = buffers[0, :size].reshape(shape)
    radius, cos, sin = (row.reshape(pair_shape) for row in (radius, cos, sin))
    np.multiply(cos, radius, out=out[..., 0::2])
    half = count // 2
    np.multiply(sin[..., :half], radius[..., :half], out=out[..., 1::2])
    return out


def normal_blocks(seed: int, count: int, width: int, block: int) -> Iterator[np.ndarray]:
    """Rows ``normals(mix(seed, j), width)`` for j = 0 .. count-1, `block` at a time.

    Each (b, width) block is one `normals` call on a column of its own rows'
    stream seeds, which come from `_word_blocks`, so no array grows with
    `count`. Every block is a view of one workspace, allocated at full block
    size once per call (so successive calls reuse one heap block), that the
    next block's `normals` call overwrites.
    """
    workspace = np.empty((_NORMAL_BUFFER_ROWS, block * width))
    for seeds in _word_blocks(seed, count, block):
        yield normals(seeds[:, None], width, buffers=workspace)


def _word_blocks(seed: int, count: int, block: int) -> Iterator[np.ndarray]:
    """Words mix(seed, k) for k = 0 .. count-1, `block` at a time.

    The counter row seed + (k+1)*GOLDEN is built once and advances in place
    by block*GOLDEN, so any block is hashed from its own counters alone.
    Every block is a view of one buffer that the next block overwrites, and
    may be changed in place by the caller.
    """
    counter = np.arange(1, block + 1, dtype=np.uint64)
    counter *= np.uint64(GOLDEN)
    counter += np.uint64(seed & MASK64)
    advance = np.uint64(block * GOLDEN & MASK64)
    words, scratch = np.empty((2, block), dtype=np.uint64)
    for lo in range(0, count, block):
        size = min(block, count - lo)
        yield _mix_into(counter[:size], words[:size], scratch[:size])
        counter += advance


def phasor_factors(
    turns: np.ndarray, buffers: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors (T_cos, T_sin, cos r, sin r) of exp(2*pi*i*t/2^64), elementwise.

    `turns` is a 1-D uint64 array of 64-bit fixed-point turns t. The table
    index a = (t + 2^51) >> 52 lies in [0, 2^12) by the shift alone, and the
    residual t - a * 2^52, read as int64, is exact and at most 2^51 in size;
    r is that residual times 2*pi/2^64, |r| <= pi/2^12, and carries the only
    rounding. exp(2*pi*i*t/2^64) = (T_cos + i*T_sin) * (cos r + i*sin r), the
    table entry for a times cos r = 1 - r^2/2 + r^4/24 and sin r = r - r^3/6
    (truncation below 3e-18). A phasor formed from the factors lies within
    1e-15 of the exact one (8.1e-16 at worst over 2*10^4 random turns).
    `buffers`, a C-contiguous (_PHASOR_BUFFER_ROWS, >= len(turns)) float64
    array, is reused when given: the four factors returned are views into it,
    and on return `buffers[0]` holds the residual angles r and its last row,
    viewed as intp, the table indices.
    """
    count = len(turns)
    if buffers is None:
        buffers = np.empty((_PHASOR_BUFFER_ROWS, count))
    r, r2, cos_r, sin_r, table_cos, table_sin = buffers[:-1, :count]
    index = buffers[-1].view(np.intp)[:count]
    # The index and the residual are formed in uint64; the residual lands in
    # the r2 row and is cast into r by np.copyto, which needs no temporary.
    spread = index.view(np.uint64)
    np.add(turns, _HALF_STEP, out=spread)
    spread >>= _INDEX_SHIFT
    residual = r2.view(np.uint64)
    np.left_shift(spread, _INDEX_SHIFT, out=residual)
    np.subtract(turns, residual, out=residual)
    np.copyto(r, residual.view(np.int64))
    r *= _TURN_RADIANS
    # Every index is in range, so "wrap" gathers straight into the output;
    # the default "raise" gathers into a temporary copy first.
    np.take(_TABLE_COS, index, out=table_cos, mode="wrap")
    np.take(_TABLE_SIN, index, out=table_sin, mode="wrap")
    np.multiply(r, r, out=r2)
    np.multiply(r2, 1.0 / 24.0, out=cos_r)
    cos_r -= 0.5
    cos_r *= r2
    cos_r += 1.0
    np.multiply(r2, -1.0 / 6.0, out=sin_r)
    sin_r *= r
    sin_r += r
    return table_cos, table_sin, cos_r, sin_r


def _hash_into(
    seed: int | np.ndarray, first: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """out[..., j] = mix(seed, first + j), hashed in place in uint64 `out`.

    The counter row (k+1)*GOLDEN is added to the seed (an int or a column)
    straight into out; scratch, uint64 of out's shape, holds the shifts.
    """
    count = out.shape[-1]
    counter = np.arange(first + 1, first + 1 + count, dtype=np.uint64)
    counter *= np.uint64(GOLDEN)
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(seed & MASK64)
    np.add(seed, counter, out=out)
    return _mix_into(out, out, scratch)


def _mix_into(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """out = mix64(z) elementwise over uint64 arrays; out may be z itself.
    scratch, uint64 of z's shape, holds the shifts."""
    np.right_shift(z, np.uint64(30), out=scratch)
    np.bitwise_xor(z, scratch, out=out)
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
