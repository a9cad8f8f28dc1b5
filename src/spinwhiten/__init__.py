"""spinwhiten: a desk-scale simulator of phase-whitened spin readout.

Pipeline under study: tip the target spins with a 90-degree pulse, whiten
their transverse phases with gradient pulses (killing the coherent receiver
signal), encode the whitened phase fraction into an n-qubit register, and
concentrate it back onto a basis state with the inverse quantum Fourier
transform — measured against conventional acquisition with signal averaging.

The package exports its modules and `__version__` only: each public function
and class has one name, its module path (``spinwhiten.rng.phasor_sum``).
"""

import os
import sys

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it. A second
# thread splits the window GEMMs for no wall time at twice the CPU time, and
# an idle worker spins a core for about 0.1 s after the import. So load numpy
# with one BLAS thread, then drop the variable, so that neither later code nor
# child processes inherit it. A value set by the user is left alone.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# Load every module (rng, fourier and errors come with these) at package
# import, before a caller such as the CLI loads click: `spinwhiten.rng` then
# works after a bare `import spinwhiten`, and the heap layout, which moves
# peak RSS by 0.2-0.4 MB, does not depend on what the caller imports next.
from . import ensemble, program, qft, signal, statevector

__version__ = "0.1.0"
