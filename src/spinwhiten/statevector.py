"""Dense statevector register and its one gate engine.

Amplitudes are stored as one complex128 array of length 2**n. Qubit 0 is the
MOST significant bit of the basis index, so reshaping the array to
``[2] * n`` puts qubit q on axis q. No Kronecker product is ever
materialized outside the dense-matrix oracle.

The gate set is the Fourier-transform kit: Hadamard, phase shift, controlled
phase and swap. Phase gates carry a positive integer order m (the applied
phase is exp(+-2*pi*i / 2**m)) plus a dagger flag selecting the conjugate,
which is what an inverse transform needs while keeping m positive.

`Circuit` keeps the gate list as written; every register operation runs it
through `compile_circuit`, which turns it into a `Schedule` once per call:

- the swaps become one permutation of the qubit axes, applied first as the
  copy `Schedule.apply(src, dst)` makes from its input block into its output
  block, and every later gate is relabeled to the axis that then holds its
  qubit;
- the register is cut into ceil(n / 6) near-equal windows of adjacent
  qubits, and the gates inside one window become one dense 2**k unitary,
  built from the exact per-gate matrices and applied by one stacked
  `np.matmul` per 256 KiB tile of small GEMMs (general matrix multiplies);
- controlled phases that cross windows, and windows without a Hadamard,
  become diagonal steps: one phase table over the qubits they name, or,
  when those are more than 12, tables over runs that share a qubit.

A gate joins the latest step that can take it and that it commutes past, so
the inverse transform on n qubits is ceil(n / 6) dense steps with a diagonal
step between neighbours, the four-step FFT split. Each GEMM stays at or below
2**15 multiply-adds: larger zgemm calls run on two BLAS threads, which costs
CPU time and gains no wall time. The dense steps round differently from a
gate-by-gate sweep, at the level of 1e-16 per amplitude.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidQubitIndex,
    OracleScaleExceeded,
    OutOfRange,
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
        raise OutOfRange(f"phase order must be a positive integer, got {order}")


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def new_state(n: int, basis_index: int = 0) -> StateVector:
    """Computational basis state |basis_index> of an n-qubit register."""
    if n < 1 or n > DEFAULT_MAX_QUBITS:
        raise QubitCountExceeded(f"qubit count {n} outside [1, {DEFAULT_MAX_QUBITS}]")
    dim = 1 << n
    if not 0 <= basis_index < dim:
        raise IndexOutOfRange(f"basis index {basis_index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(n, amps)


# --- the register engine -----------------------------------------------------
#
# A circuit is compiled once into a Schedule: its swaps become one qubit
# permutation, and its other gates are placed into steps that each make one
# pass over the amplitude block.

_WINDOW_QUBITS = 6  # a dense step acts on at most 6 adjacent qubits
_GEMM_MACS = 1 << 15  # OpenBLAS runs larger zgemm calls on two threads, for no gain
_SCRATCH_AMPS = 1 << 14  # 256 KiB: a dense step's output tile before copy-back


def _window_sizes(n: int) -> list[int]:
    """ceil(n / 6) near-equal contiguous windows, the larger ones first."""
    count = -(-n // _WINDOW_QUBITS)
    base, extra = divmod(n, count)
    return [base + 1] * extra + [base] * (count - extra)


@dataclass(frozen=True)
class DenseStep:
    """Multiply the window of qubits lo .. lo + k - 1 by its 2**k unitary."""

    lo: int
    matrix: np.ndarray = field(repr=False)

    def apply(self, block: np.ndarray) -> None:
        # The window splits the flat index into (outer, window, inner). Each
        # GEMM multiplies the matrix by `cols` columns, at most _GEMM_MACS
        # multiply-adds, and one np.matmul call runs a stack of them into a
        # scratch tile, which is then copied back.
        scratch = np.empty(min(_SCRATCH_AMPS, block.size), dtype=np.complex128)
        size = self.matrix.shape[0]
        inner = block.shape[1] // (size << self.lo)
        cols = _GEMM_MACS // (size * size)
        if inner == 1:
            # window at the low end: the columns are consecutive rows
            rows = block.reshape(-1, size)
            cols = min(cols, rows.shape[0] & -rows.shape[0])
            stack = rows.reshape(-1, 1, cols, size).transpose(0, 1, 3, 2)
        else:
            cols = min(cols, inner)
            stack = block.reshape(-1, size, inner // cols, cols).transpose(0, 2, 1, 3)
        outer, across = stack.shape[:2]
        per_gemm = size * cols
        step_across = min(across, max(1, scratch.size // per_gemm))
        step_outer = max(1, scratch.size // (per_gemm * across))
        for i in range(0, outer, step_outer):
            for j in range(0, across, step_across):
                tiles = stack[i : i + step_outer, j : j + step_across]
                out = scratch[: tiles.size].reshape(tiles.shape)
                np.matmul(self.matrix, tiles, out=out)
                tiles[...] = out


@dataclass(frozen=True)
class DiagonalStep:
    """Phase gates as a few phase tables; each factor is (q, table) for
    `_phase_run_inplace`."""

    factors: tuple[tuple[int | None, np.ndarray], ...] = field(repr=False)

    def apply(self, block: np.ndarray) -> None:
        n = block.shape[1].bit_length() - 1
        for q, table in self.factors:
            _phase_run_inplace(block, n, q, table)


def _window_matrix(lo: int, k: int, gates: list[GateOp]) -> np.ndarray:
    """2**k unitary of gates on qubits lo .. lo + k - 1, built gate by gate
    from each gate's exact matrix; row and column bits follow the qubits,
    most significant first."""
    size = 1 << k
    matrix = np.eye(size, dtype=np.complex128)
    bits = (np.arange(size)[:, np.newaxis] >> np.arange(k - 1, -1, -1)) & 1
    for gate in gates:
        local = [q - lo for q in gate.qubits]
        if gate.kind is GateKind.HADAMARD:
            pairs = matrix.reshape(1 << local[0], 2, -1)
            top, bottom = pairs[:, 0], pairs[:, 1]
            diff = top - bottom
            top += bottom
            top *= _INV_SQRT2
            np.multiply(diff, _INV_SQRT2, out=bottom)
        else:
            matrix[bits[:, local].all(axis=1)] *= gate.phase()
    return matrix


def _phase_table(n: int, q: int | None, gates: list[GateOp]) -> np.ndarray:
    """Phases of commuting phase gates as one table with an axis per
    qubit other than q: size 2 where a gate names the qubit, else 1, so the
    table broadcasts over the others. With q set, the table is restricted to
    q's |1> half, so the run there is the outer product of one [1, phase]
    vector per partner (a partner named twice gets the product)."""
    keep = [k for k in range(n) if k != q]
    named = {k for gate in gates for k in gate.qubits}
    table = np.ones([2 if k in named else 1 for k in keep], dtype=np.complex128)
    for gate in gates:
        table[tuple(1 if k in gate.qubits else slice(None) for k in keep)] *= gate.phase()
    return table


def _phase_factors(n: int, gates: list[GateOp]) -> tuple[tuple[int | None, np.ndarray], ...]:
    """Split a group of commuting phase gates into tables of at most
    2**_MAX_FACTOR_BITS entries.

    A group that names at most _MAX_FACTOR_BITS qubits is one table over the
    whole block. A larger group is cut into runs that share a qubit q, the
    qubit in most remaining gates first and the most significant on a tie,
    so that q's |1> half is contiguous and the partners sit on inner axes;
    a run with more partners takes one table per _MAX_FACTOR_BITS of them,
    starting from the least significant.
    """
    if len({k for gate in gates for k in gate.qubits}) <= _MAX_FACTOR_BITS:
        return ((None, _phase_table(n, None, gates)),)
    factors = []
    while gates:
        counts: dict[int, int] = {}
        for gate in gates:
            for k in gate.qubits:
                counts[k] = counts.get(k, 0) + 1
        q = min(counts, key=lambda k: (-counts[k], k))
        run = [gate for gate in gates if q in gate.qubits]
        gates = [gate for gate in gates if q not in gate.qubits]
        partners = sorted({k for gate in run for k in gate.qubits} - {q}, reverse=True)
        # the first table also takes the run's phase shifts on q itself
        for start in range(0, max(len(partners), 1), _MAX_FACTOR_BITS):
            chunk = set(partners[start : start + _MAX_FACTOR_BITS])
            part = [g for g in run if chunk & set(g.qubits) or (start == 0 and len(g.qubits) == 1)]
            factors.append((q, _phase_table(n, q, part)))
    return tuple(factors)


def _phase_run_inplace(block: np.ndarray, n: int, q: int | None, table: np.ndarray) -> None:
    """Multiply the block, or only qubit q's |1> half, by a phase table."""
    # one axis per qubit; numpy merges neighbouring axes the table treats
    # alike, so the inner loops stay long
    view = block.reshape(block.shape[0], *[2] * n)
    if q is not None:
        view = view[(slice(None),) * (1 + q) + (1,)]
    view *= table


@dataclass(frozen=True)
class Schedule:
    """A circuit compiled for the engine.

    Running it permutes the qubit axes once (`axes`: permuted axis p takes
    axis axes[p]), which stands for every swap of the circuit, then applies
    `steps` in order.
    """

    num_qubits: int
    axes: tuple[int, ...]
    steps: tuple[DenseStep | DiagonalStep, ...]

    def apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        """dst = the schedule applied to every row of src, both C-contiguous
        (batch, 2**n) blocks.

        The copy of src into dst is the permutation; the steps then run in
        place on dst. src is left untouched.
        """
        shape = (src.shape[0],) + (2,) * self.num_qubits
        dst.reshape(shape)[...] = src.reshape(shape).transpose(0, *(1 + a for a in self.axes))
        for step in self.steps:
            step.apply(dst)


@dataclass
class _Group:
    """Gates bound for one step: a window's dense step (window = its index)
    or a diagonal step (window None)."""

    window: int | None
    gates: list[GateOp] = field(default_factory=list)
    touched: set[int] = field(default_factory=set)
    mixed: set[int] = field(default_factory=set)  # qubits of non-diagonal gates

    def add(self, gate: GateOp) -> None:
        self.gates.append(gate)
        self.touched.update(gate.qubits)
        if gate.kind is GateKind.HADAMARD:
            self.mixed.update(gate.qubits)

    def blocks(self, gate: GateOp) -> bool:
        """Whether the gate fails to commute with some gate of the group."""
        blockers = self.touched if gate.kind is GateKind.HADAMARD else self.mixed
        return not blockers.isdisjoint(gate.qubits)


def compile_circuit(circuit: Circuit) -> Schedule:
    """Compile a circuit's gate list into a Schedule.

    Swaps are removed by relabeling: the input is permuted by their product
    up front, and each later gate acts on the axis that then holds its
    qubit. The register is cut into ceil(n / 6) near-equal windows of
    adjacent qubits. Each gate goes into the latest step that can take it
    and that it commutes past (gates commute when they share no qubit or are
    both diagonal): a gate inside one window joins that window's dense step,
    a controlled phase that crosses windows joins a diagonal step. A gate
    that finds no such step opens a new one at the end. A window's step
    without a Hadamard is diagonal too, and runs as a phase table.
    """
    n = circuit.num_qubits
    sizes = _window_sizes(n)
    window_of = [w for w, size in enumerate(sizes) for _ in range(size)]
    axes = list(range(n))
    for gate in circuit.gates:
        if gate.kind is GateKind.SWAP:
            a, b = gate.qubits
            axes[a], axes[b] = axes[b], axes[a]
    where = [0] * n  # qubit -> axis that holds it
    for axis, q in enumerate(axes):
        where[q] = axis
    groups: list[_Group] = []
    for gate in circuit.gates:
        if gate.kind is GateKind.SWAP:
            a, b = gate.qubits
            where[a], where[b] = where[b], where[a]
            continue
        gate = replace(gate, qubits=tuple(where[q] for q in gate.qubits))
        windows = {window_of[q] for q in gate.qubits}
        window = windows.pop() if len(windows) == 1 else None
        home = None
        for group in reversed(groups):
            if group.window == window:
                home = group
                break
            if group.blocks(gate):
                break
        if home is None:
            home = _Group(window)
            groups.append(home)
        home.add(gate)
    starts = [sum(sizes[:w]) for w in range(len(sizes))]
    # a group without a Hadamard is diagonal, whether it crosses windows or not
    steps = tuple(
        DiagonalStep(_phase_factors(n, group.gates)) if not group.mixed
        else DenseStep(starts[group.window],
                       _window_matrix(starts[group.window], sizes[group.window], group.gates))
        for group in groups
    )
    return Schedule(n, tuple(axes), steps)


# --- public operations -------------------------------------------------------

def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit's gates in list order, returning a new state; the
    output copy is also the swaps' one permutation."""
    if circuit.num_qubits != state.num_qubits:
        raise QubitCountMismatch(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    out = StateVector(state.num_qubits, np.empty_like(state.amps))
    compile_circuit(circuit).apply(state.amps[np.newaxis, :], out.amps[np.newaxis, :])
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
    basis = np.eye(1 << n, dtype=np.complex128)
    block = np.empty_like(basis)
    compile_circuit(circuit).apply(basis, block)
    return block.T.copy()
