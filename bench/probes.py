"""Kernel probes at the sizes the workloads use.

Each probe times one layer on its own, as the median of a few repeats, and
reports next to the time two computed (not measured) figures: the bytes the
kernel must move at least, and its operations per such byte.

Traffic model (compulsory bytes only, 16 B per complex and 8 B per real
value): every value the kernel must touch is read once and every value it
produces is written once. Temporaries an implementation makes are not
counted, so an implementation that removes them shows as more bytes/s, not
as fewer bytes.

- gate passes at n = 20: `apply_circuit` over 20 gates of one kind, so the
  single state copy it makes is amortised over 20 passes. A Hadamard reads
  and writes every amplitude (4 flops each); a controlled phase touches the
  quarter with both bits set (one complex multiply, 6 flops); a swap moves
  the half with differing bits (no flops). Maps to the `register` workload.
- `rng.uniforms` at 10^6: one 8 B double written per draw; about 12 integer
  and float operations of splitmix64 and the 53-bit scaling. Maps to `whiten`.
- `receiver_signal` at 10^6: one 8 B phase read per spin; cos, sin and two
  sums count as 4 elementwise operations. Maps to `whiten`.
- `fft_forward` at 256: 256 complex values read and written; 5 L log2 L flops,
  the radix-2 count. Maps to `cat`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

GATE_QUBITS = 20
GATE_REPEATS = 3
FAST_REPEATS = 7
FFT_CALLS = 200
SPINS = 10**6


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _entry(name: str, seconds: float, unit: str, nbytes: float, ops: float) -> dict:
    return {
        f"probe.{name}.{unit}": seconds,
        f"probe.{name}.bytes_computed": nbytes,
        f"probe.{name}.ops_per_byte_computed": ops / nbytes,
    }


def run_probes() -> dict[str, float]:
    """Time every probe; keys are per-layer metric names."""
    from spinwhiten import ensemble, fourier, qft, rng, statevector as sv

    n = GATE_QUBITS
    dim = 1 << n
    state = qft.phase_encode(0.3, n)
    gates = {
        "h": [sv.GateOp.hadamard(q) for q in range(n)],
        "cp": [sv.GateOp.controlled_phase(q, (q + 1) % n, order=2) for q in range(n)],
        "swap": [sv.GateOp.swap(q, n - 1 - q) for q in range(n // 2)] * 2,
    }
    # (bytes, flops) per pass under the compulsory-traffic model
    traffic = {"h": (32 * dim, 4 * dim), "cp": (8 * dim, 1.5 * dim), "swap": (16 * dim, 0)}
    metrics: dict[str, float] = {}
    for kind, ops in gates.items():
        circuit = sv.Circuit(n, tuple(ops))
        seconds = _median_time(lambda: sv.apply_circuit(state, circuit), GATE_REPEATS)
        nbytes, flops = traffic[kind]
        metrics.update(_entry(f"{kind}_n20", seconds / len(ops), "pass_s", nbytes, flops))
    del state

    seconds = _median_time(lambda: rng.uniforms(12345, SPINS), FAST_REPEATS)
    metrics.update(_entry("uniforms_1e6", seconds, "call_s", 8 * SPINS, 12 * SPINS))

    spins, _ = ensemble.gz_whiten(ensemble.pulse90(ensemble.SpinEnsemble.longitudinal(SPINS, 7)))
    seconds = _median_time(lambda: ensemble.receiver_signal(spins), FAST_REPEATS)
    metrics.update(_entry("receiver_signal_1e6", seconds, "call_s", 8 * SPINS, 4 * SPINS))
    del spins

    length = 256
    x = np.exp(2j * np.pi * rng.uniforms(99, length))

    def ffts():
        for _ in range(FFT_CALLS):
            fourier.fft_forward(x)

    seconds = _median_time(ffts, FAST_REPEATS) / FFT_CALLS
    metrics.update(_entry("fft_256", seconds, "call_s", 32 * length,
                          5 * length * np.log2(length)))
    return metrics
