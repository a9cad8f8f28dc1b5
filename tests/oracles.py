"""Independent slow-path oracles used to freeze expected test values.

These deliberately avoid the library's fast paths: the DFT here is the
O(L^2) definition evaluated term by term, nothing shared with the radix-2
code under test; the receiver sum calls cos/sin per spin and sums exactly,
nothing shared with the table-and-polynomial kernel.
"""

import math

import numpy as np


def naive_dft(x: np.ndarray) -> np.ndarray:
    """X(k) = sum_j x(j) exp(-2*pi*i*j*k / L), evaluated as a dense matmul."""
    length = len(x)
    j = np.arange(length)
    return np.exp(-2j * np.pi * np.outer(j, j) / length) @ np.asarray(x, dtype=complex)


def naive_idft(x: np.ndarray) -> np.ndarray:
    length = len(x)
    j = np.arange(length)
    kernel = np.exp(2j * np.pi * np.outer(j, j) / length)
    return kernel @ np.asarray(x, dtype=complex) / length


def ks_statistic(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of samples from the uniform [0, 1) CDF."""
    ordered = np.sort(samples)
    n = len(ordered)
    ranks = np.arange(1, n + 1)
    return float(max(np.max(ranks / n - ordered), np.max(ordered - (ranks - 1) / n)))


def explicit_receiver_signal(phase: np.ndarray) -> complex:
    """(1/M) * sum_k exp(i*phi_k): np.cos/np.sin per spin, summed with
    math.fsum (correctly rounded)."""
    phase = np.asarray(phase, dtype=np.float64)
    return complex(math.fsum(np.cos(phase)), math.fsum(np.sin(phase))) / len(phase)
