"""Fourier-transform circuits and phase-encoded register states.

`qft_circuit(n, inverse)` synthesizes the transform mapping |x> to
2^{-n/2} * sum_y exp(2*pi*i*x*y / 2^n) |y>, or its inverse, out of Hadamard,
controlled-phase and bit-reversal swap gates; `dft_matrix` evaluates the
forward unitary directly from that formula and serves as the independent
oracle. `phase_encode` builds the register state carrying a phase fraction
gamma, which the inverse transform concentrates near basis index
round(gamma * 2^n). That state is a product state, one qubit per power of
two in gamma * x, so it is built from n phasors per gamma instead of one
exponential per basis index: `qubit_phasors` takes the n phasors of many
gammas from one phasor-kernel call, each angle the exact turn
fmod(gamma * 2^k, 1) handed to the kernel as a 64-bit fixed-point turn, and
`phase_encode_block` doubles each row of phasors into its 2^n amplitudes.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange, QubitCountExceeded
from .rng import phasor_factors
from .statevector import (
    ABSOLUTE_MAX_QUBITS,
    ORACLE_MAX_QUBITS,
    TILE_AMPS,
    Circuit,
    GateOp,
    StateVector,
    compile_circuit,
    memory_index,
)


def qft_circuit(n: int, inverse: bool = False) -> Circuit:
    """Fourier-transform circuit on n qubits, or its inverse.

    The forward ladder applies, for each qubit j from the top, a Hadamard and
    then controlled phases of order m = k - j + 1 from every lower qubit k;
    the swap layer restores natural bit order, so the circuit's unitary IS
    the transform matrix. The inverse is the exact reversal with conjugated
    phases, so both directions use n Hadamards, n(n-1)/2 controlled phases
    of orders 2..n, and floor(n/2) swaps.
    """
    # circuits are cheap; the memory guard lives on state construction
    if not 1 <= n <= ABSOLUTE_MAX_QUBITS:
        raise QubitCountExceeded(f"qubit count {n} outside [1, {ABSOLUTE_MAX_QUBITS}]")
    ladder: list[GateOp] = []
    for j in range(n):
        ladder.append(GateOp.hadamard(j))
        for k in range(j + 1, n):
            ladder.append(GateOp.controlled_phase(k, j, order=k - j + 1, dagger=inverse))
    swaps = [GateOp.swap(j, n - 1 - j) for j in range(n // 2)]
    gates = swaps + ladder[::-1] if inverse else ladder + swaps
    return Circuit(n, tuple(gates))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix: entry (y, x) = 2^{-n/2} exp(2*pi*i*x*y / 2^n)."""
    if n > ORACLE_MAX_QUBITS:
        raise OutOfRange(
            f"dft_matrix limited to {ORACLE_MAX_QUBITS} qubits, got {n}"
        )
    if n < 1:
        raise QubitCountExceeded(f"qubit count {n} must be >= 1")
    dim = 1 << n
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def phase_encode(gamma: float, n: int) -> StateVector:
    """Register state 2^{-n/2} * sum_x exp(2*pi*i*gamma*x) |x>.

    For dyadic gamma = k / 2^n this equals the forward transform of |k>, so
    the inverse transform recovers |k> exactly. Built as a product state from
    `qubit_phasors` by `phase_encode_block`: at n = 12-22 the amplitudes are
    within 5e-17 of the closed form with every angle gamma*x reduced mod 1.
    """
    if not 0.0 <= gamma < 1.0:
        raise OutOfRange(f"gamma must lie in [0, 1), got {gamma}")
    if not 1 <= n <= ABSOLUTE_MAX_QUBITS:
        raise QubitCountExceeded(f"qubit count {n} outside [1, {ABSOLUTE_MAX_QUBITS}]")
    amps = phase_encode_block(qubit_phasors(np.array([gamma]), n))[0]
    return StateVector(n, amps)


def qubit_phasors(gammas: np.ndarray, n: int) -> np.ndarray:
    """Phasors exp(2*pi*i*f_k) of the product form, shape (len(gammas), n).

    Column k is the phasor of the qubit of weight 2^k, with the turn
    f_k = fmod(gamma * 2^k, 1): scaling by a power of two and fmod by 1 are
    exact, so every angle is reduced mod 1 without rounding. So is f_k *
    2^64, which the cast to uint64 truncates to the 64-bit fixed-point turn
    that the `rng.phasor_factors` kernel takes (the truncation drops less
    than 2^-64 turn). All rows go through one kernel call.
    """
    turns = np.fmod(np.multiply.outer(gammas, 2.0 ** np.arange(n)), 1.0).ravel()
    turns *= 2.0 ** 64
    table_cos, table_sin, cos_r, sin_r = phasor_factors(turns.astype(np.uint64))
    phasors = np.empty(len(turns), dtype=np.complex128)
    phasors.real = table_cos * cos_r - table_sin * sin_r
    phasors.imag = table_sin * cos_r + table_cos * sin_r
    return phasors.reshape(len(gammas), n)


def phase_encode_block(phasors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Amplitude rows from `qubit_phasors` rows, shape (len(phasors), 2**n).

    Each row is the product state (x)_q (|0> + exp(2*pi*i*f_q)|1>)/sqrt(2)
    (Nielsen & Chuang, eq. 5.4), where qubit n-1-k carries weight 2^k and
    phasor k. The row doubles in place, out[:, 2^k:2^(k+1)] = out[:, :2^k] *
    phasor_k, so no transcendental is evaluated over 2^n points. Rows are
    written into `out` when given.
    """
    rows, n = phasors.shape
    if out is None:
        out = np.empty((rows, 1 << n), dtype=np.complex128)
    out[:, 0] = 1.0 / np.sqrt(1 << n)
    for k in range(n):
        width = 1 << k
        np.multiply(out[:, :width], phasors[:, k : k + 1], out=out[:, width : 2 * width])
    return out


_TIE_RTOL = 1e-12


def peak_readout(probs: np.ndarray) -> tuple[int, float]:
    """Most likely outcome of a probability array and its probability; ties
    go to the smaller index.

    Every outcome within 1e-12 of the largest probability, relative, counts
    as tied, so rounding noise in the amplitudes cannot pick the winner of an
    exact tie (a uniform distribution reads out index 0). The search reads
    TILE_AMPS outcomes at a time, so it makes no mask of the whole array.
    """
    tied = probs.max() * (1.0 - _TIE_RTOL)
    starts = range(0, len(probs), TILE_AMPS)
    start = next(s for s in starts if probs[s : s + TILE_AMPS].max() >= tied)
    outcome = start + int((probs[start : start + TILE_AMPS] >= tied).argmax())
    return outcome, float(probs[outcome])


def _peak_indices(probs: np.ndarray) -> np.ndarray:
    """`peak_readout`'s winner in every row: the first index tied with the maximum."""
    top = probs.max(axis=-1, keepdims=True)
    return (probs >= top * (1.0 - _TIE_RTOL)).argmax(axis=-1)


# Turns per `qubit_phasors` call in `concentration_sweep`, which takes the
# phasors of as many whole chunks at once as fit (at least one chunk): the
# kernel's fixed cost of some 20 numpy calls is paid per group, not per chunk,
# while its temporaries stay a few hundred KiB. Phasors for the whole grid at
# once would grow them with the grid.
_GROUP_TURNS = 4096


def concentration_sweep(n: int, grid_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse-transform concentration over the grid gamma = j / grid_points.

    Encodes every grid phase and runs each through the inverse transform
    circuit (compiled once, then applied in place to chunks of the engine's
    tile, TILE_AMPS >> n rows, which stay in cache through every pass). The
    phasors come from one `qubit_phasors` call per group of whole
    chunks, and every chunk is encoded from them into the one buffer
    allocated up front. The transform leaves the rows in bit-reversed order,
    so each chunk's probabilities are gathered in natural order through
    `memory_index`, into float64 buffers also allocated once. Returns
    (gammas, argmax indices, peak probabilities), each row read as by
    `peak_readout`. This is the empirical probe of how sharply a randomized
    phase concentrates onto one basis state.
    """
    if grid_points < 2:
        raise OutOfRange(f"grid must have at least 2 points, got {grid_points}")
    schedule, order = compile_circuit(qft_circuit(n, inverse=True), tuple(range(n)))
    natural = memory_index(order)
    gammas = np.arange(grid_points) / grid_points
    chunk = max(1, TILE_AMPS >> n)
    group = chunk * max(1, _GROUP_TURNS // (chunk * n))
    buffer = np.empty((min(chunk, grid_points), 1 << n), dtype=np.complex128)
    squares, probs = np.empty((2, *buffer.shape))
    argmax = np.empty(grid_points, dtype=np.int64)
    peaks = np.empty(grid_points, dtype=np.float64)
    for start in range(0, grid_points, chunk):
        if start % group == 0:
            phasors = qubit_phasors(gammas[start : start + group], n)
        part = phasors[start % group :][:chunk]
        rows = len(part)
        block = phase_encode_block(part, buffer[:rows])
        schedule.apply(block)
        square, prob = squares[:rows], probs[:rows]
        np.multiply(block.real, block.real, out=square)
        np.multiply(block.imag, block.imag, out=prob)
        square += prob
        # every index is in range; "wrap" gathers straight into prob, where
        # the default "raise" would gather into a temporary first
        np.take(square, natural, axis=1, out=prob, mode="wrap")
        winners = _peak_indices(prob)
        argmax[start : start + rows] = winners
        peaks[start : start + rows] = prob[np.arange(rows), winners]
    return gammas, argmax, peaks
