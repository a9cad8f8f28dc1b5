"""Power-of-two discrete Fourier transforms, run on the register engine.

The inverse quantum Fourier transform on log2(L) qubits is the forward DFT
divided by sqrt(L), and the forward one is the inverse DFT times sqrt(L)
(Nielsen & Chuang, section 5.1), so each transform is one register row run
through a compiled `qft_circuit` schedule and scaled. The circuit's swap
layer only reverses the qubit order, so the row is read out through
`bit_reverse_indices`. The forward transform is unnormalized,
X(k) = sum_j x(j) exp(-2*pi*i*j*k / L); the inverse carries 1/L. Lengths
above 2**30 raise QubitCountExceeded; a length-1 transform is the identity.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import OutOfRange
from .qft import qft_circuit
from .statevector import Schedule, compile_circuit, memory_index


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation sending index i to its bit reversal in log2(n) bits: the
    memory index of each natural index in a register whose qubit order is
    reversed."""
    if not is_power_of_two(n):
        raise OutOfRange(f"length {n} is not a power of two")
    return memory_index(tuple(reversed(range(n.bit_length() - 1))))


@functools.lru_cache(maxsize=8)
def _schedule(bits: int, inverse: bool) -> Schedule:
    """The compiled transform on `bits` qubits, cached here because building
    the circuit costs more than a short transform; 0 bits is the identity."""
    if bits == 0:
        return Schedule(())
    return compile_circuit(qft_circuit(bits, inverse), tuple(range(bits)))[0]


def _transform(x: np.ndarray, inverse: bool) -> np.ndarray:
    length = len(x)
    if not is_power_of_two(length):
        raise OutOfRange(f"length {length} is not a power of two")
    # the schedule first: it refuses more than 2**30 points before any array
    # of the input's size is made
    schedule = _schedule(length.bit_length() - 1, inverse)
    natural = bit_reverse_indices(length)
    root = np.sqrt(length)
    row = np.multiply(x, root if inverse else 1.0 / root, dtype=np.complex128)
    schedule.apply(row[np.newaxis, :])
    return row[natural]


def fft_forward(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a power-of-two-length array."""
    return _transform(x, inverse=True)


def fft_inverse(x: np.ndarray) -> np.ndarray:
    """Inverse DFT with 1/L normalization: fft_inverse(fft_forward(x)) == x."""
    return _transform(x, inverse=False)
