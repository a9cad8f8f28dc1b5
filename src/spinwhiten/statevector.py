"""Dense statevector register and its one gate engine.

Amplitudes are stored as one complex128 array of length 2**n, and the
register records which qubit each memory axis holds: reshaped to
``[2] * n``, memory axis p (bit n - 1 - p of the memory index) holds qubit
``order[p]``. In natural order, the identity, qubit 0 is the MOST
significant bit of the basis index. No Kronecker product is ever
materialized outside the dense-matrix oracle.

The gate set is the Fourier-transform kit: Hadamard, controlled phase and
swap. Phase gates carry a positive integer order m (the applied phase is
exp(+-2*pi*i / 2**m)) plus a dagger flag selecting the conjugate, which is
what an inverse transform needs while keeping m positive.

`Circuit` keeps the gate list as written; every register operation runs it
through `compile_circuit`, which turns it, for the register's current order,
into a `Schedule` of in-place steps and the order the register holds after
them:

- a swap moves no amplitude: it exchanges two entries of the order, and
  every other gate is relabeled to the memory axis that holds its qubit when
  it runs (Häner & Steiger, arXiv:1704.01127, track the qubit-to-bit mapping
  the same way);
- the memory axes are cut into ceil(n / 6) near-equal windows of adjacent
  axes, and the gates inside one window become one dense 2**k unitary,
  built from the exact per-gate matrices;
- controlled phases that cross windows, and windows without a Hadamard,
  become diagonal steps: one phase table per window or pair of windows that
  their gates name, so no table has more than 2**12 entries.

A gate joins the latest step that can take it and that it commutes past, so
the inverse transform on n qubits is ceil(n / 6) dense steps with a diagonal
step between neighbours, the four-step FFT split. A dense step views the
block as (outer, 2**k, inner) and runs one `np.matmul` per tile of at most
TILE_AMPS amplitudes (256 KiB): min(inner, TILE_AMPS / 2**k) columns,
stacked over as many outer values as fit, row-major where inner = 1. On a
2-vCPU AVX-512 Xeon the 20-qubit dense steps take 33 ms of CPU time (38 ms
with each GEMM capped at 2**15 multiply-adds). They round differently from
a gate-by-gate sweep, at the level of 1e-16 per amplitude.

Readout restores natural order once, through two cached tables of at most
2**ceil(n / 2) entries (`index_tables`) that `probabilities` and
`dense_matrix` read. A register may hold a batch, C-contiguous rows
(rows, 2**n) in one order, as `qft.concentration_sweep` runs them.

`probabilities` spends the register: it reads every row out inside the
amplitude buffer, whose two float64 halves hold the squares in memory order
and then the probabilities in natural order, and hands the caller the first
half as scratch. A spent register raises when it is read again, so a
caller that reads the state after its readout copies it first.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import OutOfRange, QubitCountExceeded

DEFAULT_MAX_QUBITS = 24  # ~256 MB; config max_qubits raises it up to ABSOLUTE_MAX_QUBITS
ABSOLUTE_MAX_QUBITS = 30  # hard ceiling for any configuration
ORACLE_MAX_QUBITS = 10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class GateKind(enum.Enum):
    HADAMARD = "h"
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
    def controlled_phase(
        cls, control: int, target: int, order: int, dagger: bool = False
    ) -> "GateOp":
        _check_qubit_args(control, target)
        if control == target:
            raise OutOfRange("control and target must differ")
        _check_order(order)
        return cls(GateKind.CONTROLLED_PHASE, (control, target), order, dagger)

    @classmethod
    def swap(cls, q1: int, q2: int) -> "GateOp":
        _check_qubit_args(q1, q2)
        if q1 == q2:
            raise OutOfRange("swap qubits must differ")
        return cls(GateKind.SWAP, (q1, q2))

    def phase(self) -> complex:
        """exp(+-2*pi*i / 2**order) for phase gates."""
        sign = -1.0 if self.dagger else 1.0
        return np.exp(sign * 2j * np.pi / (1 << self.order))


def _check_qubit_args(*qubits: int) -> None:
    for q in qubits:
        if q < 0:
            raise OutOfRange(f"qubit index must be >= 0, got {q}")


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
                    raise OutOfRange(
                        f"gate {gate.kind.value} uses qubit {q} "
                        f"in a {self.num_qubits}-qubit circuit"
                    )


@dataclass
class StateVector:
    """Pure state of an n-qubit register, or a batch of them, changed in place.

    `amps` holds 2**n amplitudes, or one state per C-contiguous row (rows,
    2**n); memory axis p of each holds qubit order[p], by default natural
    order. `apply_circuit` rewrites `amps` and `order` of the register it is
    given, so a caller that needs the input state again copies it first.
    `probabilities` spends it, and reading it again raises.
    """

    num_qubits: int
    amps: np.ndarray = field(repr=False)
    order: tuple[int, ...] = ()
    spent: bool = False

    def __post_init__(self):
        if not self.order:
            self.order = tuple(range(self.num_qubits))


def _check_live(state: StateVector) -> None:
    if state.spent:
        raise OutOfRange("register was spent by its readout; copy it first to read it again")


# --- the register engine -----------------------------------------------------
#
# A circuit is compiled into a Schedule for the register's order: its swaps
# change only the order, and its other gates go into steps that each make one
# pass over the amplitude block, in place.

_WINDOW_QUBITS = 6  # a dense step acts on at most 6 adjacent memory axes
TILE_AMPS = 1 << 14  # 256 KiB: the tile of the dense steps, the readout and the sweep


def _window_sizes(n: int) -> list[int]:
    """ceil(n / 6) near-equal contiguous windows, the larger ones first."""
    count = -(-n // _WINDOW_QUBITS)
    base, extra = divmod(n, count)
    return [base + 1] * extra + [base] * (count - extra)


@dataclass(frozen=True)
class DenseStep:
    """Multiply the window of memory axes lo .. lo + k - 1 by its 2**k unitary."""

    lo: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.flags.writeable = False  # shared through the schedule cache

    def apply(self, block: np.ndarray) -> None:
        size = self.matrix.shape[0]
        inner = block.shape[1] // (size << self.lo)
        scratch = np.empty(min(TILE_AMPS, block.size), dtype=np.complex128)
        cols = min(inner, scratch.size // size)
        step = scratch.size // (size * cols)  # outer rows per tile
        view = block.reshape(-1, size, inner)
        for i in range(0, len(view), step):
            for j in range(0, inner, cols):
                tile = view[i : i + step, :, j : j + cols]
                out = scratch[: tile.size].reshape(tile.shape)
                if inner == 1:  # one GEMM over the rows, not `step` matrix-vector products
                    np.matmul(tile[..., 0], self.matrix.T, out=out[..., 0])
                else:
                    np.matmul(self.matrix, tile, out=out)
                tile[...] = out


@dataclass(frozen=True)
class DiagonalStep:
    """Commuting phase gates as phase tables, one per window or pair of
    windows that the gates name, in the order the gates first use them.

    Each table has one axis per memory axis, size 2 where a gate of its part
    names the axis and 1 elsewhere, so it broadcasts over the block; a gate
    names at most two windows of at most 6 axes, so a table has at most
    2**12 entries.
    """

    tables: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        for table in self.tables:
            table.flags.writeable = False  # shared through the schedule cache

    def apply(self, block: np.ndarray) -> None:
        # numpy merges neighbouring axes the table treats alike, so the
        # inner loops stay long
        view = block.reshape(block.shape[0], *[2] * (block.shape[1].bit_length() - 1))
        for table in self.tables:
            view *= table


def _window_matrix(lo: int, k: int, gates: list[GateOp]) -> np.ndarray:
    """2**k unitary of gates on memory axes lo .. lo + k - 1, built gate by
    gate from each gate's exact matrix; row and column bits follow the axes,
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


def _phase_table(n: int, gates: list[GateOp]) -> np.ndarray:
    """Phases of commuting phase gates, relabeled to memory axes, as one
    table with an axis per memory axis: size 2 where a gate names the axis,
    else 1."""
    named = {q for gate in gates for q in gate.qubits}
    table = np.ones([2 if q in named else 1 for q in range(n)], dtype=np.complex128)
    for gate in gates:
        table[tuple(1 if q in gate.qubits else slice(None) for q in range(n))] *= gate.phase()
    return table


@dataclass(frozen=True)
class Schedule:
    """A circuit compiled for the engine: steps that run in place, in order."""

    steps: tuple[DenseStep | DiagonalStep, ...]

    def apply(self, block: np.ndarray) -> None:
        """Run every step, in place, on each row of a C-contiguous
        (batch, 2**n) block."""
        for step in self.steps:
            step.apply(block)


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


@functools.lru_cache(maxsize=8)
def compile_circuit(
    circuit: Circuit, order: tuple[int, ...]
) -> tuple[Schedule, tuple[int, ...]]:
    """Compile a circuit for a register whose memory axis p holds qubit
    order[p]: the Schedule of its gates and the order the register holds
    after them.

    A swap exchanges its qubits' axes in the order, and every other gate acts
    on the axis that holds its qubit when it runs. Each gate goes into the
    latest step that can take it and that it commutes past (gates commute
    when they share no qubit or are both diagonal): a gate inside one window
    of axes joins that window's dense step, a controlled phase that crosses
    windows joins a diagonal step. A gate that finds no such step opens a new
    one at the end. A window's step without a Hadamard is diagonal too, and
    runs as a phase table. The last 8 results are cached on (circuit, order);
    callers share them, so their arrays are read-only.
    """
    n = circuit.num_qubits
    sizes = _window_sizes(n)
    window_of = [w for w, size in enumerate(sizes) for _ in range(size)]
    where = [0] * n  # qubit -> memory axis that holds it
    for axis, q in enumerate(order):
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
    steps: list[DenseStep | DiagonalStep] = []
    for group in groups:
        if group.mixed:
            steps.append(DenseStep(starts[group.window], _window_matrix(
                starts[group.window], sizes[group.window], group.gates)))
            continue
        # a group without a Hadamard is diagonal, whether it crosses windows
        # or not: one table per set of windows its gates name
        parts: dict[frozenset[int], list[GateOp]] = {}
        for gate in group.gates:
            parts.setdefault(frozenset(window_of[q] for q in gate.qubits), []).append(gate)
        steps.append(DiagonalStep(tuple(_phase_table(n, part) for part in parts.values())))
    # the order after the circuit: the qubits sorted by the axis that holds them
    return Schedule(tuple(steps)), tuple(sorted(range(n), key=where.__getitem__))


@functools.lru_cache(maxsize=8)
def index_tables(order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Tables (high, low) that find natural index x in a register whose memory
    axis p holds qubit order[p]: x sits at memory index
    high[x >> k] | low[x & (2**k - 1)], with 2**k = len(low), k = ceil(n / 2).
    The map moves each bit of x on its own, so it splits over the two halves.
    The last 8 orders' tables are cached, read-only."""
    n = len(order)
    weight = 1 << (n - 1 - np.argsort(order))  # memory-index bit of each qubit
    k = (n + 1) // 2

    def table(weights: np.ndarray) -> np.ndarray:
        bits = (np.arange(1 << len(weights))[:, np.newaxis]
                >> np.arange(len(weights) - 1, -1, -1)) & 1
        return bits @ weights

    high, low = table(weight[: n - k]), table(weight[n - k :])
    high.flags.writeable = low.flags.writeable = False
    return high, low


def memory_index(order: tuple[int, ...]) -> np.ndarray:
    """Memory index of every natural index of a register in `order`."""
    high, low = index_tables(order)
    return (high[:, np.newaxis] | low).ravel()


# --- public operations -------------------------------------------------------

def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit's gates in list order to the register, in place, and
    return it: the steps rewrite `state.amps`, every row of a batch alike,
    and the swaps only its order."""
    if circuit.num_qubits != state.num_qubits:
        raise OutOfRange(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    _check_live(state)
    schedule, order = compile_circuit(circuit, state.order)
    schedule.apply(state.amps.reshape(-1, 1 << state.num_qubits))
    state.order = order
    return state


def probabilities(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Born-rule outcome distribution |amp_x|^2 over all 2**n basis states,
    in natural order whatever the register's order, and a float64 scratch
    array, both shaped like `state.amps` (one distribution per row of a
    batch); both live in the register's buffer, which they spend.

    The float64 view of the amplitudes has two halves of rows * 2**n values.
    The squares are written in memory order into the first half, TILE_AMPS
    at a time, each tile after its amplitudes are read; they are then
    gathered through `index_tables` into the second half, TILE_AMPS outputs
    per `np.take` (whole rows where they fit), which is returned with the
    first half as scratch. No second state-size array is made.
    """
    _check_live(state)
    state.spent = True
    size = state.amps.size
    parts = state.amps.reshape(-1).view(np.float64)  # re, im of amplitude i at 2i, 2i + 1
    squares, probs = parts.reshape(2, size)
    width = min(TILE_AMPS, size)
    tile = np.empty(2 * width)
    for start in range(0, size, width):
        pairs = parts[2 * start : 2 * (start + width)]  # a batch may end in a partial tile
        square = np.square(pairs, out=tile[: pairs.size])
        # the tile's squares overwrite only amplitudes read by now
        np.add(square[0::2], square[1::2], out=squares[start : start + width])
    high, low = index_tables(state.order)
    squares, probs = (half.reshape(-1, 1 << state.num_qubits) for half in (squares, probs))
    cols = max(1, TILE_AMPS // low.size)  # entries of `high` per tile
    stack = max(1, TILE_AMPS >> state.num_qubits)  # whole rows per tile
    for c in range(0, high.size, cols):
        index = (high[c : c + cols, np.newaxis] | low).ravel()
        for r in range(0, len(probs), stack):
            # every index is in range; "wrap" gathers straight into probs
            np.take(squares[r : r + stack], index, axis=1, mode="wrap",
                    out=probs[r : r + stack, c * low.size : c * low.size + index.size])
    return probs.reshape(state.amps.shape), squares.reshape(state.amps.shape)


def dense_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary of a circuit; column x is the image of |x>.

    Oracle-scale only: guarded at ORACLE_MAX_QUBITS because the result has
    4**n entries.
    """
    n = circuit.num_qubits
    if n > ORACLE_MAX_QUBITS:
        raise OutOfRange(
            f"dense matrix limited to {ORACLE_MAX_QUBITS} qubits, got {n}"
        )
    # Row b of the block is the basis state |b>; after the steps, row b holds
    # U|b> in memory order, so column x of U is row x read in natural order.
    block = np.eye(1 << n, dtype=np.complex128)
    schedule, order = compile_circuit(circuit, tuple(range(n)))
    schedule.apply(block)
    return block.T[memory_index(order)]
