"""Independent slow-path oracles used to freeze expected test values.

These deliberately avoid the library's fast paths: the DFT here is the
O(L^2) definition evaluated term by term, nothing shared with the register
engine that runs the transforms under test; the receiver sum calls cos/sin
per spin and sums exactly, nothing shared with the table-and-polynomial
kernel; gate matrices are Kronecker products of 2x2 blocks, nothing shared
with the compiled window unitaries, phase tables or qubit order, and the
state oracle applies the same gates one at a time by index arithmetic on a
flat vector; a register reads out in natural order by a transpose of its
memory axes, not through the engine's index tables; the phase-estimation
distribution is the closed form, not a simulation; the averaging study is
built shot by shot from `synth_fid`, one trace per shot, its noise drawn by
`rng.normals` from each shot's seed, noise sample j being that stream's
normal pair j (draws 2j and 2j+1). It shares with `cat_snr` the helper
that turns a shot's normals into its noisy trace, but not
`rng.normal_blocks`, which hashes the shots' seeds and draws their normals
a block at a time.
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


_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_UNIT = [[np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])],
         [np.array([[0, 0], [1, 0]]), np.array([[0, 0], [0, 1]])]]  # |i><j|


def _kron_chain(n: int, blocks: dict) -> np.ndarray:
    """Kronecker product over qubits 0..n-1 (qubit 0 = MSB); qubits missing
    from `blocks` get the 2x2 identity."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, blocks.get(q, np.eye(2)))
    return out


def gate_matrix(gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, from its kind, qubits, order and
    dagger flag only."""
    kind = gate.kind.value
    if kind == "h":
        return _kron_chain(n, {gate.qubits[0]: _HADAMARD})
    sign = -1 if gate.dagger else 1
    phase = complex(math.cos(2 * math.pi / 2**gate.order),
                    sign * math.sin(2 * math.pi / 2**gate.order))
    a, b = gate.qubits
    if kind == "cp":
        both_set = _kron_chain(n, {a: _UNIT[1][1], b: _UNIT[1][1]})
        return np.eye(1 << n) + (phase - 1) * both_set
    assert kind == "swap"
    return sum(_kron_chain(n, {a: _UNIT[i][j], b: _UNIT[j][i]})
               for i in range(2) for j in range(2))


def basis_state(n: int, k: int):
    """Register of n qubits in natural order holding the basis state |k>."""
    from spinwhiten.statevector import StateVector

    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[k] = 1.0
    return StateVector(n, amps)


def natural_amps(state) -> np.ndarray:
    """A register's amplitudes in natural order, as a new array: its memory
    axes transposed into qubit order, not gathered through the engine's
    index tables."""
    n = state.num_qubits
    return state.amps.reshape([2] * n).transpose(np.argsort(state.order)).flatten()


def circuit_matrix(circuit) -> np.ndarray:
    """Product of the gate matrices, the first gate acting first."""
    n = circuit.num_qubits
    out = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        out = gate_matrix(gate, n) @ out
    return out


def apply_gates_by_index(circuit, amps: np.ndarray) -> np.ndarray:
    """The circuit applied to a flat amplitude vector gate by gate (qubit 0 =
    MSB), each gate an update of the basis indices whose bits it reads, its
    phase from math.cos/math.sin; used where the Kronecker oracle's 4^n
    matrix is too large."""
    n = circuit.num_qubits
    out = np.array(amps, dtype=complex)
    index = np.arange(1 << n)
    for gate in circuit.gates:
        bits = [1 << (n - 1 - q) for q in gate.qubits]
        kind = gate.kind.value
        if kind == "h":
            low = index[(index & bits[0]) == 0]
            high = low | bits[0]
            top, bottom = out[low], out[high]
            out[low] = (top + bottom) / math.sqrt(2)
            out[high] = (top - bottom) / math.sqrt(2)
        elif kind == "swap":
            one = index[((index & bits[0]) != 0) & ((index & bits[1]) == 0)]
            other = one ^ (bits[0] | bits[1])
            out[one], out[other] = out[other], out[one]
        else:
            mask = sum(bits)
            angle = 2 * math.pi / 2**gate.order
            sign = -1 if gate.dagger else 1
            out[(index & mask) == mask] *= complex(math.cos(angle), sign * math.sin(angle))
    return out


def phase_estimation_distribution(gamma: float, n: int, outcomes=None) -> np.ndarray:
    """P(y) = sin^2(pi N delta) / (N^2 sin^2(pi delta)), delta = gamma - y/N,
    N = 2^n, and P = 1 where delta is an integer: the outcome distribution of
    the inverse transform applied to the phase-encoded state of gamma, at
    every y in [0, N) or at the given outcomes.

    sin^2 has period pi, so the numerator is sin^2(pi frac(N gamma)) for
    every y, and delta is reduced to [-1/2, 1/2) before the denominator;
    N gamma - y is exact in binary floating point.
    """
    size = 1 << n
    scaled = gamma * size  # exact: N is a power of two
    outcomes = np.arange(size) if outcomes is None else np.asarray(outcomes)
    delta = (scaled - outcomes) / size  # N delta is exact
    delta -= np.floor(delta + 0.5)
    numerator = math.sin(math.pi * (scaled - math.floor(scaled))) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = numerator / (size * size * np.sin(np.pi * delta) ** 2)
    probs[delta == 0] = 1.0
    return probs


def exact_phase_state(gamma: float, n: int) -> np.ndarray:
    """Amplitudes 2^{-n/2} exp(2*pi*i*gamma*x), x < 2^n <= 2^29, with the
    turns gamma*x reduced mod 1 before the angle is formed: gamma splits into
    a 24-bit head, whose products with x are exact, and the exact remainder,
    so every angle is within about 1e-15 rad of the true one."""
    x = np.arange(1 << n, dtype=np.float64)
    head = float(np.float32(gamma))
    turns = head * x
    turns -= np.rint(turns)
    turns += (gamma - head) * x
    turns -= np.rint(turns)
    return np.exp(2j * np.pi * turns) / math.sqrt(1 << n)


def explicit_cat_average(n_shots: int, seed: int, line, noise_sigma: float,
                         length: int, dwell_s: float):
    """Mean of n_shots traces, each one `synth_fid` call seeded by
    rng.mix(seed, shot), held in a list and summed in order in clongdouble."""
    from spinwhiten import rng, signal

    traces = [
        signal.synth_fid([line], length, dwell_s, noise_sigma, seed=rng.mix(seed, shot))
        for shot in range(n_shots)
    ]
    total = np.zeros(length, dtype=np.clongdouble)
    for trace in traces:
        total += trace
    return (total / n_shots).astype(np.complex128)


def explicit_cat_snr(n_shots: int, seed: int, line, noise_sigma: float,
                     length: int, dwell_s: float) -> float:
    """SNR of `explicit_cat_average` over the default cat windows."""
    from spinwhiten import signal

    averaged = explicit_cat_average(n_shots, seed, line, noise_sigma, length, dwell_s)
    return signal.estimate_snr(
        signal.fft(averaged), signal.DEFAULT_PEAK_WINDOW, signal.DEFAULT_NOISE_WINDOW
    )
