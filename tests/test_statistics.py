"""Randomized outputs against their distributions, at the sizes that run.

Each check is a goodness-of-fit test on a fixed seed that fails below
p = 10^-6, so a pass repeats and a failure points to a defect, not to bad
luck: a failing seed is a finding, not a seed to change.
"""

import math

import mpmath
import numpy as np

from spinwhiten import rng
from spinwhiten.program import execute, parse
from oracles import phase_estimation_distribution


def chi2_critical(dof: int, p: float = 1e-6) -> float:
    """x with P(chi^2_dof > x) = p: the root of log(upper tail) = log p."""
    return float(mpmath.findroot(
        lambda x: mpmath.log(mpmath.gammainc(dof / 2, x / 2, mpmath.inf, regularized=True))
        - mpmath.log(p), dof + 10 * math.sqrt(2 * dof)))


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
    rare = expected < 5  # pooled into one bin
    observed = np.append(observed[~rare], observed[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    seen = observed > 0
    g = 2 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
    dof = len(observed) - 1
    assert dof > 100
    assert g < chi2_critical(dof)
