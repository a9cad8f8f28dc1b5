"""Dense statevector register with stride-based gate application.

Amplitudes are stored as one complex128 array of length 2**n. Qubit 0 is the
MOST significant bit of the basis index, so reshaping the array to
``[2] * n`` puts qubit q on axis q. Gates are applied in place over strided
views of that reshape; no Kronecker product is ever materialized outside the
dense-matrix oracle.

The gate set is the Fourier-transform kit: Hadamard, phase shift, controlled
phase and swap. Phase gates carry a positive integer order m (the applied
phase is exp(+-2*pi*i / 2**m)) plus a dagger flag selecting the conjugate,
which is what an inverse transform needs while keeping m positive.

`apply_circuit_block` runs the gate list as written, with one fusion: each
maximal run of consecutive controlled phases that share a qubit q multiplies
q's |1> half by the outer product of the partners' [1, phase] vectors. A
factor holds at most 2**12 entries (64 KiB), so a run with k partners takes
ceil(k / 12) passes, and the n(n-1)/2 controlled phases of a QFT ladder take
fewer than 2n. A Hadamard pass allocates one half-state temporary and is
bit-identical to ((lo + hi) * c, (lo - hi) * c). Swaps and phase shifts run
one gate per pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidQubitIndex,
    OracleScaleExceeded,
    QubitCountExceeded,
    QubitCountMismatch,
)

DEFAULT_MAX_QUBITS = 24  # 16M amplitudes, ~256 MB; override per call if needed
ABSOLUTE_MAX_QUBITS = 30  # hard ceiling for any configuration
ORACLE_MAX_QUBITS = 10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_MAX_FACTOR_BITS = 12  # a fused controlled-phase factor holds <= 2**12 entries


class GateKind(enum.Enum):
    HADAMARD = "h"
    PHASE_SHIFT = "p"
    CONTROLLED_PHASE = "cp"
    SWAP = "swap"


@dataclass(frozen=True)
class GateOp:
    """One gate instance: kind, target qubits, and phase order for phase gates.

    Construct through the factory classmethods, which validate arguments.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    order: int = 0
    dagger: bool = False

    @classmethod
    def hadamard(cls, q: int) -> "GateOp":
        _check_qubit_args(q)
        return cls(GateKind.HADAMARD, (q,))

    @classmethod
    def phase_shift(cls, q: int, order: int, dagger: bool = False) -> "GateOp":
        _check_qubit_args(q)
        _check_order(order)
        return cls(GateKind.PHASE_SHIFT, (q,), order, dagger)

    @classmethod
    def controlled_phase(
        cls, control: int, target: int, order: int, dagger: bool = False
    ) -> "GateOp":
        _check_qubit_args(control, target)
        if control == target:
            raise InvalidQubitIndex("control and target must differ")
        _check_order(order)
        return cls(GateKind.CONTROLLED_PHASE, (control, target), order, dagger)

    @classmethod
    def swap(cls, q1: int, q2: int) -> "GateOp":
        _check_qubit_args(q1, q2)
        if q1 == q2:
            raise InvalidQubitIndex("swap qubits must differ")
        return cls(GateKind.SWAP, (q1, q2))

    def phase(self) -> complex:
        """exp(+-2*pi*i / 2**order) for phase gates."""
        sign = -1.0 if self.dagger else 1.0
        return np.exp(sign * 2j * np.pi / (1 << self.order))


def _check_qubit_args(*qubits: int) -> None:
    for q in qubits:
        if q < 0:
            raise InvalidQubitIndex(f"qubit index must be >= 0, got {q}")


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"phase order must be a positive integer, got {order}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register size."""

    num_qubits: int
    gates: tuple[GateOp, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise QubitCountExceeded("circuit needs at least one qubit")
        for gate in self.gates:
            for q in gate.qubits:
                if q >= self.num_qubits:
                    raise InvalidQubitIndex(
                        f"gate {gate.kind.value} uses qubit {q} "
                        f"in a {self.num_qubits}-qubit circuit"
                    )


@dataclass
class StateVector:
    """Pure state of an n-qubit register; a value, never shared mutably."""

    num_qubits: int
    amps: np.ndarray = field(repr=False)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def new_state(n: int, basis_index: int = 0, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Computational basis state |basis_index> of an n-qubit register."""
    if n < 1 or n > max_qubits:
        raise QubitCountExceeded(f"qubit count {n} outside [1, {max_qubits}]")
    dim = 1 << n
    if not 0 <= basis_index < dim:
        raise IndexOutOfRange(f"basis index {basis_index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(n, amps)


# --- in-place kernels over a (batch, 2**n) amplitude block ------------------
#
# Each kernel reshapes the block so the acted-on qubits become their own axes
# (qubit 0 = MSB means qubit q's axis splits the flat index at bit n-1-q) and
# updates strided views in place.

def _split1(block: np.ndarray, n: int, q: int) -> np.ndarray:
    batch = block.shape[0]
    return block.reshape(batch, 1 << q, 2, 1 << (n - q - 1))


def _split2(block: np.ndarray, n: int, qa: int, qb: int) -> np.ndarray:
    # requires qa < qb
    batch = block.shape[0]
    return block.reshape(
        batch, 1 << qa, 2, 1 << (qb - qa - 1), 2, 1 << (n - qb - 1)
    )


def _hadamard_inplace(block: np.ndarray, n: int, q: int) -> None:
    # diff is the pass's only temporary; the operations are those of
    # ((lo + hi) * c, (lo - hi) * c) in the same order, so the output is
    # bit-identical to that form
    view = _split1(block, n, q)
    lo = view[:, :, 0, :]
    hi = view[:, :, 1, :]
    diff = lo - hi
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _phase_inplace(block: np.ndarray, n: int, q: int, phase: complex) -> None:
    view = _split1(block, n, q)
    view[:, :, 1, :] *= phase


def _phase_run_inplace(block: np.ndarray, n: int, q: int, run: list[GateOp]) -> None:
    """Apply a run of controlled phases that all act on qubit q as one step.

    The run is diagonal: amplitude x gains phase_p for every partner p whose
    bit is set, provided q's bit is set. So q's |1> half is multiplied by the
    outer product of one vector [1, phase_p] per partner, broadcast over the
    qubits that are no partner. Partners may sit on either side of q, and a
    partner named twice gets the product of its phases. One factor holds at
    most 2**_MAX_FACTOR_BITS entries; a run with more partners takes one pass
    per group of partners, starting from the least significant bits.
    """
    phases: dict[int, complex] = {}
    for gate in run:
        a, b = gate.qubits
        partner = b if a == q else a
        phases[partner] = phases.get(partner, 1.0) * gate.phase()
    by_bit = sorted(phases, reverse=True)
    for start in range(0, len(by_bit), _MAX_FACTOR_BITS):
        group = sorted(by_bit[start : start + _MAX_FACTOR_BITS])
        factor = np.ones(1, dtype=np.complex128)
        for p in group:  # most significant partner first, like the index bits
            factor = np.multiply.outer(factor, [1.0, phases[p]]).ravel()
        # one axis per qubit; numpy merges neighbouring axes the factor
        # treats alike, so the inner loops stay long
        view = block.reshape(block.shape[0], *[2] * n)
        hi = view[(slice(None),) * (1 + q) + (1,)]
        hi *= factor.reshape([2 if k in group else 1 for k in range(n) if k != q])


def _swap_inplace(block: np.ndarray, n: int, q1: int, q2: int) -> None:
    qa, qb = sorted((q1, q2))
    view = _split2(block, n, qa, qb)
    tmp = view[:, :, 0, :, 1, :].copy()
    view[:, :, 0, :, 1, :] = view[:, :, 1, :, 0, :]
    view[:, :, 1, :, 0, :] = tmp


# --- public operations -------------------------------------------------------

def apply_circuit_block(block: np.ndarray, circuit: Circuit) -> None:
    """Apply a circuit's gates in list order, in place, to every row of a
    (batch, 2**n) amplitude block; the one gate path of every register op.

    Each maximal run of consecutive controlled phases that share a qubit is
    one diagonal step, so the QFT ladder costs fewer than 2n passes, not
    n(n-1)/2.
    """
    n = circuit.num_qubits
    gates = circuit.gates
    i = 0
    while i < len(gates):
        gate = gates[i]
        i += 1
        if gate.kind is GateKind.CONTROLLED_PHASE:
            shared = set(gate.qubits)
            run = [gate]
            while (
                i < len(gates)
                and gates[i].kind is GateKind.CONTROLLED_PHASE
                and shared.intersection(gates[i].qubits)
            ):
                shared.intersection_update(gates[i].qubits)
                run.append(gates[i])
                i += 1
            _phase_run_inplace(block, n, min(shared), run)
        elif gate.kind is GateKind.HADAMARD:
            _hadamard_inplace(block, n, gate.qubits[0])
        elif gate.kind is GateKind.PHASE_SHIFT:
            _phase_inplace(block, n, gate.qubits[0], gate.phase())
        else:
            _swap_inplace(block, n, *gate.qubits)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate, returning a new state; the input is left untouched."""
    return apply_circuit(state, Circuit(state.num_qubits, (gate,)))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit's gates in list order, returning a new state."""
    if circuit.num_qubits != state.num_qubits:
        raise QubitCountMismatch(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    out = state.copy()
    apply_circuit_block(out.amps[np.newaxis, :], circuit)
    return out


def probabilities(state: StateVector) -> np.ndarray:
    """Born-rule outcome distribution |amp_x|^2 over all 2**n basis states."""
    amps = state.amps
    return amps.real * amps.real + amps.imag * amps.imag


def dense_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary of a circuit; column x is the image of |x>.

    Oracle-scale only: guarded at ORACLE_MAX_QUBITS because the result has
    4**n entries.
    """
    n = circuit.num_qubits
    if n > ORACLE_MAX_QUBITS:
        raise OracleScaleExceeded(
            f"dense matrix limited to {ORACLE_MAX_QUBITS} qubits, got {n}"
        )
    # Row b of the block is the basis state |b>; after the sweep, row b holds
    # the amplitudes of U|b>, i.e. the block is U transposed.
    block = np.eye(1 << n, dtype=np.complex128)
    apply_circuit_block(block, circuit)
    return block.T.copy()
