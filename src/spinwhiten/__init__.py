"""spinwhiten: a desk-scale simulator of phase-whitened spin readout.

Pipeline under study: tip the target spins with a 90-degree pulse, whiten
their transverse phases with gradient pulses (killing the coherent receiver
signal), encode the whitened phase fraction into an n-qubit register, and
concentrate it back onto a basis state with the inverse quantum Fourier
transform — measured against conventional acquisition with signal averaging.
"""

import os
import sys

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it. No matrix
# product here is large enough to use a second thread, yet an idle worker
# spins a second core for about 0.1 s after the import. So load numpy with
# one BLAS thread, then drop the variable again, so that neither later code
# nor child processes inherit it. A value set by the user is left alone.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .ensemble import SpinEnsemble, gz_whiten, pulse90, receiver_signal
from .program import PulseProgram, RunReport, check, execute, format_program, parse
from .qft import dft_matrix, peak_readout, phase_encode, qft_circuit
from .signal import (
    FidTrace,
    SnrReport,
    SpectralLine,
    Spectrum,
    SpinBudget,
    cat_average,
    enhancement_report,
    estimate_snr,
    fft,
    spin_budget_chain,
    synth_fid,
)
from .statevector import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    dense_matrix,
    new_state,
    probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "FidTrace",
    "GateOp",
    "PulseProgram",
    "RunReport",
    "SnrReport",
    "SpectralLine",
    "Spectrum",
    "SpinBudget",
    "SpinEnsemble",
    "StateVector",
    "apply_circuit",
    "cat_average",
    "check",
    "dense_matrix",
    "dft_matrix",
    "enhancement_report",
    "estimate_snr",
    "execute",
    "fft",
    "format_program",
    "gz_whiten",
    "new_state",
    "parse",
    "peak_readout",
    "phase_encode",
    "probabilities",
    "pulse90",
    "qft_circuit",
    "receiver_signal",
    "spin_budget_chain",
    "synth_fid",
]
