"""spinwhiten: a desk-scale simulator of phase-whitened spin readout.

Pipeline under study: tip the target spins with a 90-degree pulse, whiten
their transverse phases with gradient pulses (killing the coherent receiver
signal), encode the whitened phase fraction into an n-qubit register, and
concentrate it back onto a basis state with the inverse quantum Fourier
transform — measured against conventional acquisition with signal averaging.
"""

from .ensemble import (
    QubitDensity,
    SpinEnsemble,
    dephase,
    gz_whiten,
    pulse90,
    receiver_signal,
    thermal_polarization,
)
from .program import PulseProgram, RunReport, check, execute, format_program, parse
from .qft import (
    PhaseSample,
    QftSpec,
    dft_matrix,
    inverse_qft_circuit,
    peak_readout,
    phase_encode,
    qft_circuit,
)
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
    ifft,
    spin_budget_chain,
    synth_fid,
)
from .statevector import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gate,
    dense_matrix,
    new_state,
    probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "FidTrace",
    "GateOp",
    "PhaseSample",
    "PulseProgram",
    "QftSpec",
    "QubitDensity",
    "RunReport",
    "SnrReport",
    "SpectralLine",
    "Spectrum",
    "SpinBudget",
    "SpinEnsemble",
    "StateVector",
    "apply_circuit",
    "apply_gate",
    "cat_average",
    "check",
    "dense_matrix",
    "dephase",
    "dft_matrix",
    "enhancement_report",
    "estimate_snr",
    "execute",
    "fft",
    "format_program",
    "gz_whiten",
    "ifft",
    "inverse_qft_circuit",
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
    "thermal_polarization",
]
