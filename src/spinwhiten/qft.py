"""Fourier-transform circuits and phase-encoded register states.

`qft_circuit(n, inverse)` synthesizes the transform mapping |x> to
2^{-n/2} * sum_y exp(2*pi*i*x*y / 2^n) |y>, or its inverse, out of Hadamard,
controlled-phase and bit-reversal swap gates; `dft_matrix` evaluates the
forward unitary directly from that formula and serves as the independent
oracle. `phase_encode` builds the register state carrying a phase fraction
gamma, which the inverse transform concentrates near basis index
round(gamma * 2^n).
"""

from __future__ import annotations

import numpy as np

from .errors import OracleScaleExceeded, QubitCountExceeded
from .statevector import (
    ABSOLUTE_MAX_QUBITS,
    DEFAULT_MAX_QUBITS,
    ORACLE_MAX_QUBITS,
    Circuit,
    GateOp,
    StateVector,
    compile_circuit,
    probabilities,
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
        raise OracleScaleExceeded(
            f"dft_matrix limited to {ORACLE_MAX_QUBITS} qubits, got {n}"
        )
    if n < 1:
        raise QubitCountExceeded(f"qubit count {n} must be >= 1")
    dim = 1 << n
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def phase_encode(gamma: float, n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Register state 2^{-n/2} * sum_x exp(2*pi*i*gamma*x) |x>.

    For dyadic gamma = k / 2^n this equals the forward transform of |k>, so
    the inverse transform recovers |k> exactly.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not 1 <= n <= max_qubits:
        raise QubitCountExceeded(f"qubit count {n} outside [1, {max_qubits}]")
    amps = phase_encode_block(np.array([gamma]), n)[0]
    return StateVector(n, amps)


def phase_encode_block(gammas: np.ndarray, n: int) -> np.ndarray:
    """Amplitude rows for many gammas at once, shape (len(gammas), 2**n)."""
    dim = 1 << n
    x = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(gammas, x)) / np.sqrt(dim)


_TIE_RTOL = 1e-12


def peak_readout(state: StateVector) -> tuple[int, float]:
    """Most likely outcome and its probability; ties go to the smaller index.

    Every outcome within 1e-12 of the largest probability, relative, counts
    as tied, so rounding noise in the amplitudes cannot pick the winner of an
    exact tie (a uniform distribution reads out index 0).
    """
    probs = probabilities(state)
    tied = probs >= probs.max() * (1.0 - _TIE_RTOL)
    outcome = int(np.argmax(tied))  # argmax returns the first True
    return outcome, float(probs[outcome])


def concentration_sweep(n: int, grid_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse-transform concentration over the grid gamma = j / grid_points.

    Encodes every grid phase, runs each through the inverse transform circuit
    (compiled once, then applied to chunks of (1 << 14) >> n rows, about
    256 KiB, which stay in cache through every pass; each chunk is permuted
    into one buffer allocated up front), and returns (gammas, argmax indices,
    peak probabilities). This is the empirical probe of how sharply a
    randomized phase concentrates onto one basis state.
    """
    if grid_points < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid_points}")
    schedule = compile_circuit(qft_circuit(n, inverse=True))
    gammas = np.arange(grid_points) / grid_points
    chunk = max(1, (1 << 14) >> n)
    buffer = np.empty((min(chunk, grid_points), 1 << n), dtype=np.complex128)
    argmax = np.empty(grid_points, dtype=np.int64)
    peaks = np.empty(grid_points, dtype=np.float64)
    for start in range(0, grid_points, chunk):
        encoded = phase_encode_block(gammas[start : start + chunk], n)
        block = buffer[: len(encoded)]
        schedule.apply(encoded, block)
        probs = block.real * block.real + block.imag * block.imag
        argmax[start : start + chunk] = probs.argmax(axis=1)
        peaks[start : start + chunk] = probs.max(axis=1)
    return gammas, argmax, peaks
