"""Randomized outputs against their distributions, at the sizes that run.

Each check is a goodness-of-fit test on a fixed seed that fails below
p = 10^-6, so a pass repeats and a failure points to a defect, not to bad
luck: a failing seed is a finding, not a seed to change.
"""

import math
import tracemalloc

import mpmath
import numpy as np

from spinwhiten import program, rng, statevector
from spinwhiten.program import execute, parse
from oracles import phase_estimation_distribution


def chi2_critical(dof: int, p: float = 1e-6) -> float:
    """x with P(chi^2_dof > x) = p: the root of log(upper tail) = log p."""
    return float(mpmath.findroot(
        lambda x: mpmath.log(mpmath.gammainc(dof / 2, x / 2, mpmath.inf, regularized=True))
        - mpmath.log(p), dof + 10 * math.sqrt(2 * dof)))


def pooled_g_test(observed: np.ndarray, expected: np.ndarray, total: int) -> tuple[float, int]:
    """G statistic and degrees of freedom of counts against expected counts
    over some bins of a histogram of `total` counts: the bins expected below
    5, and every bin not given, are pooled into one."""
    rare = expected < 5
    observed = np.append(observed[~rare], total - observed[~rare].sum())
    expected = np.append(expected[~rare], total - expected[~rare].sum())
    seen = observed > 0
    g = 2 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
    return float(g), len(observed) - 1


def test_chi2_critical_matches_the_closed_form_at_two_degrees():
    # with 2 degrees of freedom the upper tail is exp(-x/2)
    assert math.isclose(chi2_critical(2), -2 * math.log(1e-6), rel_tol=1e-12)


def test_histogram_fits_the_phase_estimation_distribution():
    # G-test of 10^6 `acquire` shots of a 12-qubit register against the
    # closed form; gamma, seed 2's first draw, puts N*gamma near halfway
    # between two bins, so the outcomes spread over a few hundred bins.
    qubits, shots = 12, 10**6
    source = f"pulse90 t\nwhiten t seed=2\nencode r {qubits}\niqft r\nacquire shots={shots}"
    observed = execute(parse(source), ensemble_size=10, master_seed=5).histogram
    expected = shots * phase_estimation_distribution(rng.uniforms(2, 1)[0], qubits)
    g, dof = pooled_g_test(observed, expected, shots)
    assert dof > 100
    assert g < chi2_critical(dof)


def test_register_at_the_default_qubit_limit(monkeypatch):
    # At DEFAULT_MAX_QUBITS = 24 the dense steps multiply 64 x 64 window
    # unitaries by tiles of 256 columns. One `execute` gives the state norm
    # and the probabilities (both read as the readout starts), the histogram
    # and the allocation peak. Seed 4's first draw puts N*gamma at 0.45 past
    # a bin, so the shots spread over a few hundred bins.
    n, shots = statevector.DEFAULT_MAX_QUBITS, 10**6
    size, gamma = 1 << n, rng.uniforms(4, 1)[0]
    peak = round(gamma * size) % size
    near = (peak + np.arange(-512, 513)) % size  # every bin expected >= 5 shots
    picked = np.union1d(np.random.default_rng(24).choice(size, 4096, replace=False),
                        near[510:515])  # the peak and its neighbours
    seen = {}

    def read_out(state):
        seen["norm"] = math.sqrt(np.vdot(state.amps, state.amps).real)
        probs, scratch = statevector.probabilities(state)
        seen["probs"] = probs[picked]
        return probs, scratch

    monkeypatch.setattr(program, "probabilities", read_out)
    source = f"pulse90 t\nwhiten t seed=4\nencode r {n}\niqft r\nacquire shots={shots}"
    tracemalloc.start()
    try:
        histogram = execute(parse(source), ensemble_size=10, master_seed=5).histogram
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state, one 2^16-shot block of sampling (five arrays of 2^16 8-byte
    # values, 2.5 MiB) and the schedule the run compiles and caches (0.54
    # MiB); the readout's tiles (0.64 MiB) are gone before sampling starts
    assert traced <= 2**28 + 3.5 * 2**20
    assert abs(seen["norm"] - 1.0) <= 1e-13

    # the Dirichlet kernel sin^2(pi N d) / (N^2 sin^2(pi d)), d = gamma - y/N,
    # at 40 digits
    with mpmath.workdps(40):
        g, big = mpmath.mpf(gamma), mpmath.mpf(size)

        def dirichlet(y):
            d = g - mpmath.mpf(int(y)) / big
            return float(mpmath.sin(mpmath.pi * big * d) ** 2
                         / (big**2 * mpmath.sin(mpmath.pi * d) ** 2))

        closed = np.array([dirichlet(y) for y in picked])
    assert np.abs(seen["probs"] - closed).max() <= 1e-14

    g, dof = pooled_g_test(histogram[near], shots * phase_estimation_distribution(
        gamma, n, near), shots)
    assert dof > 100
    assert g < chi2_critical(dof)
