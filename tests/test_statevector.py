"""Statevector register: the gate engine, readout and the dense-matrix oracle."""

import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinwhiten import errors, statevector
from spinwhiten.qft import phase_encode, qft_circuit
from spinwhiten.statevector import (
    TILE_AMPS,
    Circuit,
    DenseStep,
    DiagonalStep,
    GateOp,
    StateVector,
    apply_circuit,
    compile_circuit,
    dense_matrix,
    index_tables,
    memory_index,
    probabilities,
)

from conftest import subprocess_env
from oracles import apply_gates_by_index, basis_state, circuit_matrix, natural_amps

INV_SQRT2 = 1 / np.sqrt(2)


def _apply_one(state, gate):
    return apply_circuit(state, Circuit(state.num_qubits, (gate,)))


def _copy(state):
    # apply_circuit runs in place, so a state used twice is copied first
    return replace(state, amps=state.amps.copy())


NATURAL8 = tuple(range(8))  # natural order of an 8-qubit register


@pytest.fixture
def narrow_windows(monkeypatch):
    """Set the window width for one test; the schedule cache is cleared on
    both sides, so no schedule compiled at another width is reused."""
    def narrow(width):
        compile_circuit.cache_clear()
        monkeypatch.setattr(statevector, "_WINDOW_QUBITS", width)
    yield narrow
    compile_circuit.cache_clear()


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = _apply_one(basis_state(1, 0), GateOp.hadamard(0))
        np.testing.assert_allclose(natural_amps(out), [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_hadamard_on_one(self):
        out = _apply_one(basis_state(1, 1), GateOp.hadamard(0))
        np.testing.assert_allclose(natural_amps(out), [INV_SQRT2, -INV_SQRT2], atol=1e-15)

    def test_hadamard_is_involution(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        state = basis_state(1, 0)
        state.amps[:] = amps
        twice = _apply_one(_apply_one(state, GateOp.hadamard(0)), GateOp.hadamard(0))
        np.testing.assert_allclose(natural_amps(twice), amps, atol=1e-12)

    def test_controlled_phase_order_one_flips_sign_of_11(self):
        out = _apply_one(basis_state(2, 3), GateOp.controlled_phase(0, 1, order=1))
        np.testing.assert_allclose(natural_amps(out), [0, 0, 0, -1], atol=1e-15)

    def test_controlled_phase_leaves_other_basis_states(self):
        for idx in (0, 1, 2):
            out = _apply_one(basis_state(2, idx), GateOp.controlled_phase(0, 1, order=1))
            np.testing.assert_allclose(natural_amps(out), basis_state(2, idx).amps, atol=1e-15)

    def test_controlled_phase_dagger_conjugates(self):
        gate = GateOp.controlled_phase(0, 1, order=3)
        dag = GateOp.controlled_phase(0, 1, order=3, dagger=True)
        state = _apply_one(basis_state(2, 3), gate)
        np.testing.assert_allclose(
            natural_amps(_apply_one(state, dag)), basis_state(2, 3).amps, atol=1e-15
        )

    def test_swap_exchanges_bits(self):
        # qubit 0 is the MSB: |01> = index 1 maps to |10> = index 2
        out = _apply_one(basis_state(2, 1), GateOp.swap(0, 1))
        np.testing.assert_allclose(natural_amps(out), basis_state(2, 2).amps, atol=1e-15)
        # the swap moved no amplitude, only the order
        assert out.amps.tolist() == [0, 1, 0, 0]
        assert out.order == (1, 0)

    def test_qubit0_is_most_significant(self):
        out = _apply_one(basis_state(2, 0), GateOp.hadamard(0))
        np.testing.assert_allclose(natural_amps(out), [INV_SQRT2, 0, INV_SQRT2, 0],
                                   atol=1e-15)

    def test_runs_in_place(self):
        state = basis_state(1, 0)
        amps = state.amps
        out = _apply_one(state, GateOp.hadamard(0))
        assert out is state and out.amps is amps
        np.testing.assert_allclose(amps, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_invalid_qubit_index(self):
        with pytest.raises(errors.OutOfRange, match="uses qubit 2 in a 2-qubit circuit"):
            _apply_one(basis_state(2, 0), GateOp.hadamard(2))

    def test_gate_factory_validation(self):
        with pytest.raises(errors.OutOfRange, match="control and target must differ"):
            GateOp.controlled_phase(1, 1, order=2)
        with pytest.raises(errors.OutOfRange, match="swap qubits must differ"):
            GateOp.swap(0, 0)
        with pytest.raises(errors.OutOfRange, match="qubit index must be >= 0"):
            GateOp.hadamard(-1)
        with pytest.raises(ValueError):
            GateOp.controlled_phase(0, 1, order=0)


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        out = apply_circuit(basis_state(3, 5), Circuit(3))
        assert np.array_equal(out.amps, basis_state(3, 5).amps)
        assert out.order == (0, 1, 2)

    def test_double_hadamard(self):
        circuit = Circuit(1, (GateOp.hadamard(0), GateOp.hadamard(0)))
        out = apply_circuit(basis_state(1, 0), circuit)
        np.testing.assert_allclose(natural_amps(out), [1, 0], atol=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(errors.OutOfRange, match="circuit has 3 qubits, state has 2"):
            apply_circuit(basis_state(2, 0), Circuit(3))

    def test_circuit_validates_gates(self):
        with pytest.raises(errors.OutOfRange, match="uses qubit 2 in a 2-qubit circuit"):
            Circuit(2, (GateOp.hadamard(2),))

    def test_equal_calls_compile_once_into_read_only_arrays(self):
        # equal circuits on registers in equal orders share one schedule
        compile_circuit.cache_clear()
        for _ in range(2):
            apply_circuit(phase_encode(0.3, 8), qft_circuit(8, inverse=True))
        info = compile_circuit.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        schedule, _ = compile_circuit(qft_circuit(8, inverse=True), NATURAL8)
        arrays = []
        for step in schedule.steps:
            arrays += step.tables if isinstance(step, DiagonalStep) else [step.matrix]
        assert len(arrays) == 3
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0


class TestProbabilities:
    def test_ground_state(self):
        assert probabilities(basis_state(1, 0))[0].tolist() == [1, 0]

    def test_uniform_superposition(self):
        state = basis_state(2, 0)
        for q in range(2):
            state = _apply_one(state, GateOp.hadamard(q))
        np.testing.assert_allclose(probabilities(state)[0], [0.25] * 4, atol=1e-15)

    def test_sums_to_one(self):
        state = _random_state(4, seed=3)
        assert abs(probabilities(state)[0].sum() - 1.0) <= 1e-9

    def test_readout_spends_the_register(self):
        # both halves live in the state's buffer; reading it again raises
        state = _random_state(4, seed=4)
        probs, scratch = probabilities(state)
        assert np.shares_memory(probs, state.amps) and np.shares_memory(scratch, state.amps)
        assert not np.shares_memory(probs, scratch)
        assert probs.size == scratch.size == 16
        with pytest.raises(errors.OutOfRange, match="spent"):
            probabilities(state)
        with pytest.raises(errors.OutOfRange, match="spent"):
            apply_circuit(state, Circuit(4, (GateOp.hadamard(0),)))

    @pytest.mark.parametrize("n,rows", [
        *(pytest.param(n, 1, id=str(n)) for n in (1, 2, 7, 15)),
        # many rows per tile, the last stack partial
        pytest.param(3, 2 * (TILE_AMPS >> 3) + 3, id="3-batch"),
        pytest.param(13, 5, id="13-batch"),  # two rows per tile
        pytest.param(15, 3, id="15-batch"),  # two tiles per row
    ])
    def test_reads_natural_order_from_any_record(self, n, rows):
        # the index tables against a transpose of the memory axes, for one
        # register and for a batch of them in one order; each row of a batch
        # reads out bit for bit as the same row alone
        generator = np.random.default_rng(20 + n)
        order = tuple(int(q) for q in generator.permutation(n))
        amps = np.array([_random_state(n, seed=20 + n + 1000 * r).amps for r in range(rows)])
        naturals = [natural_amps(StateVector(n, row, order)) for row in amps]
        assert np.array_equal(amps[0][memory_index(order)], naturals[0])
        alone = [probabilities(StateVector(n, row.copy(), order))[0] for row in amps]
        state = StateVector(n, amps if rows > 1 else amps[0], order)
        probs, scratch = probabilities(state)
        assert probs.shape == scratch.shape == state.amps.shape
        assert np.shares_memory(probs, state.amps) and np.shares_memory(scratch, state.amps)
        for row, single, natural in zip(probs.reshape(rows, -1), alone, naturals):
            assert np.array_equal(row, single)
            assert np.array_equal(row, natural.real ** 2 + natural.imag ** 2)

    def test_index_tables_are_cached_read_only(self):
        order = (2, 0, 1)
        assert index_tables(order) is index_tables(order)
        for table in index_tables(order):
            with pytest.raises(ValueError):
                table[0] = 1


class TestDenseMatrix:
    def test_single_hadamard(self):
        got = dense_matrix(Circuit(1, (GateOp.hadamard(0),)))
        np.testing.assert_allclose(
            got, INV_SQRT2 * np.array([[1, 1], [1, -1]]), atol=1e-15
        )

    def test_empty_circuit_is_identity(self):
        np.testing.assert_allclose(dense_matrix(Circuit(2)), np.eye(4), atol=1e-15)

    def test_columns_are_basis_images(self):
        circuit = _random_circuit(3, 12, seed=5)
        matrix = dense_matrix(circuit)
        for x in range(8):
            column = natural_amps(apply_circuit(basis_state(3, x), circuit))
            np.testing.assert_allclose(matrix[:, x], column, atol=1e-14)

    def test_oracle_scale_guard(self):
        with pytest.raises(errors.OutOfRange, match="dense matrix limited to 10 qubits"):
            dense_matrix(Circuit(11))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unitarity_of_random_circuits(self, n):
        matrix = dense_matrix(_random_circuit(n, 20, seed=n))
        gram = matrix.conj().T @ matrix
        assert np.abs(gram - np.eye(1 << n)).max() <= 1e-10


class TestFusedPhaseRuns:
    """Runs of controlled phases on one shared qubit, which the engine folds
    into window unitaries and phase tables; the Kronecker-product oracle
    applies them gate by gate."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_gate_by_gate_oracle(self, seed):
        circuit = _phase_run_circuit(2 + seed % 5, seed)
        assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_transform_ladders_match_oracle(self, n):
        for circuit in (qft_circuit(n), qft_circuit(n, inverse=True)):
            assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_runs_split_across_several_factors(self, window, narrow_windows):
        # narrow windows cut 6 qubits into 2..6 windows, so a run's partners
        # fall in several windows and its diagonal step holds several
        # window-pair tables
        narrow_windows(window)
        for seed in range(4):
            circuit = _phase_run_circuit(6, 100 + seed)
            assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    def test_twenty_qubit_inverse_transform_allocation_peak(self):
        # the steps run in place: the dense steps' 256 KiB scratch tile and,
        # with the cache cold, the compiled schedule, but no second state
        state = phase_encode(0.3, 20)
        circuit = qft_circuit(20, inverse=True)
        compile_circuit.cache_clear()
        tracemalloc.start()
        try:
            apply_circuit(state, circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestWindowedEngine:
    """Registers of 7 or more qubits span several windows, so the compiled
    schedule mixes dense window steps and diagonal steps, and swaps relabel
    the gates after them; the Kronecker-product oracle applies the gates one
    by one."""

    @pytest.mark.parametrize("n", [7, 8, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_crossing_circuits_match_oracle(self, n, seed):
        circuit = _crossing_circuit(n, seed)
        assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_random_circuits_match_oracle(self, n):
        circuit = _random_circuit(n, 60, seed=40 + n)
        assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_transform_ladders_match_oracle(self, n):
        for circuit in (qft_circuit(n), qft_circuit(n, inverse=True)):
            assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_state_path_matches_oracle(self, seed):
        # both run Schedule.apply: apply_circuit on one row, dense_matrix
        # on the rows of the identity
        circuit = _crossing_circuit(8, 50 + seed)
        state = _random_state(8, seed)
        expected = circuit_matrix(circuit) @ state.amps
        assert np.abs(natural_amps(apply_circuit(state, circuit)) - expected).max() <= 1e-12

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_diagonal_steps_split_into_runs(self, window, narrow_windows):
        # narrow windows cut 8 qubits into 3..8 windows, so each cross-window
        # phase group names many window pairs and holds one table per pair
        narrow_windows(window)
        for circuit in (qft_circuit(8, inverse=True), _crossing_circuit(8, 7)):
            assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("n", [8, 20, 22])
    def test_inverse_transform_schedule_shape(self, n):
        schedule, order = compile_circuit(qft_circuit(n, inverse=True), tuple(range(n)))
        windows = math.ceil(n / 6)
        kinds = [type(step) for step in schedule.steps]
        assert kinds == [DenseStep, DiagonalStep] * (windows - 1) + [DenseStep]
        # the floor(n/2) swaps are one bit reversal of the order, not passes
        assert order == tuple(reversed(range(n)))

    def test_swaps_that_cancel_leave_no_permutation(self):
        # the Hadamard acts on qubit 1 while memory axis 6 holds it
        circuit = Circuit(8, (GateOp.swap(1, 6), GateOp.hadamard(1), GateOp.swap(6, 1)))
        schedule, order = compile_circuit(circuit, NATURAL8)
        assert order == NATURAL8
        assert [step.lo for step in schedule.steps] == [4]

    def test_gates_follow_the_order_they_are_compiled_for(self):
        # memory axis 0 holds qubit 7, so a Hadamard on qubit 7 runs in the
        # first window, and a swap exchanges two entries of the order
        order = (7, 1, 2, 3, 4, 5, 6, 0)
        circuit = Circuit(8, (GateOp.hadamard(7), GateOp.swap(0, 3)))
        schedule, out = compile_circuit(circuit, order)
        assert [step.lo for step in schedule.steps] == [0]
        assert out == (7, 1, 2, 0, 4, 5, 6, 3)
        state = _random_state(8, seed=4)
        expected = circuit_matrix(circuit) @ natural_amps(state)
        state.order = order
        state.amps[:] = state.amps[np.argsort(memory_index(order))]
        assert np.abs(natural_amps(apply_circuit(state, circuit)) - expected).max() <= 1e-12

    def test_hadamard_free_windows_run_as_phase_tables(self):
        circuit = Circuit(8, (GateOp.controlled_phase(0, 1, order=2),
                              GateOp.controlled_phase(5, 4, order=3, dagger=True),
                              GateOp.controlled_phase(2, 6, order=4)))
        assert all(isinstance(step, DiagonalStep)
                   for step in compile_circuit(circuit, NATURAL8)[0].steps)
        assert np.abs(dense_matrix(circuit) - circuit_matrix(circuit)).max() <= 1e-12

    def test_twenty_qubit_inverse_transform_runs_on_one_thread(self):
        # process CPU time counts every BLAS thread, and hypervisor steal only
        # adds wall time; a fresh process keeps out the spinning BLAS threads
        # that the oracle's large matrix products leave behind here, where
        # numpy was imported before spinwhiten could load OpenBLAS with one
        # thread. The timed call is the second one, so one-off start-up work
        # stays out of it
        script = (
            "import time\n"
            "from spinwhiten.qft import phase_encode, qft_circuit\n"
            "from spinwhiten.statevector import apply_circuit\n"
            "state, circuit = phase_encode(0.3, 20), qft_circuit(20, inverse=True)\n"
            "apply_circuit(state, circuit)\n"
            "cpu, wall = time.process_time(), time.perf_counter()\n"
            "apply_circuit(state, circuit)\n"
            "print(time.process_time() - cpu, time.perf_counter() - wall)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=subprocess_env(), check=True)
        cpu, wall = map(float, result.stdout.split())
        assert cpu <= 1.3 * wall


def _crossing_circuit(n, seed, depth=48):
    """Seeded circuit for n <= 12 (two windows: the first ceil(n/2) qubits and
    the rest) whose swaps and crossing controlled phases join one qubit of
    each window, mixed with Hadamards and controlled phases inside one
    window, so swaps fall after other gates and relabel the qubits of later
    ones."""
    rng = np.random.default_rng(seed)
    split = -(-n // 2)
    gates = []
    for _ in range(depth):
        a, b = int(rng.integers(0, split)), int(rng.integers(split, n))
        if rng.integers(0, 2):
            a, b = b, a
        kind = int(rng.integers(0, 4))
        if kind == 0:
            gates.append(GateOp.hadamard(a))
        elif kind == 1:  # a and its neighbour in a's window
            c = a - 1 if a + 1 in (split, n) else a + 1
            gates.append(GateOp.controlled_phase(a, c, order=int(rng.integers(1, 8)),
                                                 dagger=bool(rng.integers(0, 2))))
        elif kind == 2:
            gates.append(GateOp.controlled_phase(a, b, order=int(rng.integers(1, 8)),
                                                 dagger=bool(rng.integers(0, 2))))
        else:
            gates.append(GateOp.swap(a, b))
    return Circuit(n, tuple(gates))


def _phase_run_circuit(n, seed, runs=8):
    """Seeded circuit of controlled-phase runs separated by a Hadamard, swap
    or controlled phase on a random pair. Every fourth run is a single gate;
    the others share an inner qubit q (when n > 2) with partners q - 1 and
    q + 1 first, then random partners that may repeat, each gate with a
    random order, dagger flag and control/target order."""
    rng = np.random.default_rng(seed)
    gates = []
    for r in range(runs):
        q = int(rng.integers(1, n - 1)) if n > 2 else int(rng.integers(0, n))
        others = [k for k in range(n) if k != q]
        if r % 4 == 0:
            partners = [int(rng.choice(others))]
        else:
            partners = [k for k in (q - 1, q + 1) if 0 <= k < n]
            partners += [int(k) for k in rng.choice(others, size=int(rng.integers(0, 2 * n)))]
        for partner in partners:
            pair = (q, partner) if rng.integers(0, 2) else (partner, q)
            gates.append(GateOp.controlled_phase(*pair, order=int(rng.integers(1, 8)),
                                                 dagger=bool(rng.integers(0, 2))))
        breaker = r % 3
        if breaker == 0:
            gates.append(GateOp.hadamard(int(rng.integers(0, n))))
        elif breaker == 1:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(GateOp.swap(int(a), int(b)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(GateOp.controlled_phase(int(a), int(b),
                                                 order=int(rng.integers(1, 8)),
                                                 dagger=bool(rng.integers(0, 2))))
    return Circuit(n, tuple(gates))


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    state = basis_state(n, 0)
    state.amps[:] = amps
    return state


def _random_gate(n, rng):
    kind = rng.integers(0, 3) if n > 1 else 0  # one qubit takes only Hadamards
    q = int(rng.integers(0, n))
    if kind == 0:
        return GateOp.hadamard(q)
    other = int(rng.integers(0, n - 1))
    other = other if other < q else other + 1
    if kind == 1:
        return GateOp.controlled_phase(q, other, order=int(rng.integers(1, 6)),
                                       dagger=bool(rng.integers(0, 2)))
    return GateOp.swap(q, other)


def _random_circuit(n, depth, seed):
    rng = np.random.default_rng(seed)
    return Circuit(n, tuple(_random_gate(n, rng) for _ in range(depth)))


class TestStateOracleAcrossWindowPairs:
    """Registers of 13 or more qubits have three or more windows, so one
    diagonal step can hold tables over several window pairs. They are too
    large for the Kronecker-product oracle; the state oracle applies the
    gates one by one to a flat amplitude vector."""

    @pytest.mark.parametrize("n", [5, 8])
    def test_state_oracle_matches_kronecker_oracle(self, n):
        circuit = _random_circuit(n, 60, seed=70 + n)
        state = _random_state(n, seed=n)
        expected = circuit_matrix(circuit) @ state.amps
        assert np.abs(apply_gates_by_index(circuit, state.amps) - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [13, 14, 16])
    def test_random_circuits_match_state_oracle(self, n):
        circuit = _random_circuit(n, 200, seed=80 + n)
        state = _random_state(n, seed=n)
        expected = apply_gates_by_index(circuit, state.amps)
        assert np.abs(natural_amps(apply_circuit(state, circuit)) - expected).max() <= 1e-12

    @pytest.mark.parametrize("n,rows", [(13, 1), (16, 1), (16, 3)])
    def test_inverse_transform_matches_state_oracle(self, n, rows):
        # a batch register runs the tile rule across rows: at n = 16 the
        # first window's 64 x 1024 view splits into 256-column tiles, the
        # middle one stacks 16 outer rows of 32 x 32 per tile, and the last
        # runs row-major; each row must equal the same row run alone
        circuit = qft_circuit(n, inverse=True)
        states = [_random_state(n, seed=90 + n + 1000 * r) for r in range(rows)]
        batch = apply_circuit(StateVector(n, np.array([state.amps for state in states])),
                              circuit)
        assert batch.order == compile_circuit(circuit, states[0].order)[1]
        for state, row in zip(states, batch.amps):
            expected = apply_gates_by_index(circuit, state.amps)
            alone = natural_amps(apply_circuit(state, circuit))
            assert np.abs(alone - expected).max() <= 1e-12
            assert np.abs(row[memory_index(batch.order)] - alone).max() <= 1e-15

    @pytest.mark.parametrize("circuit", [
        *(qft_circuit(n, inverse=True) for n in (8, 13, 20, 22, 24)),
        *(_random_circuit(n, 200, seed=80 + n) for n in (13, 14, 16)),
    ], ids=lambda circuit: f"n{circuit.num_qubits}-{len(circuit.gates)}gates")
    def test_diagonal_tables_span_at_most_two_windows(self, circuit):
        n = circuit.num_qubits
        window_of = [w for w, size in enumerate(statevector._window_sizes(n))
                     for _ in range(size)]
        for step in compile_circuit(circuit, tuple(range(n)))[0].steps:
            if isinstance(step, DiagonalStep):
                for table in step.tables:
                    assert table.ndim == n and table.size <= 2**12
                    named = [q for q in range(n) if table.shape[q] == 2]
                    assert len({window_of[q] for q in named}) <= 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_every_gate_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    state = _random_state(n, seed)
    gate = _random_gate(n, rng)
    assert abs(np.linalg.norm(_apply_one(state, gate).amps) - 1.0) <= 1e-12


def test_single_gate_deterministic():
    state = _random_state(5, seed=9)
    gate = GateOp.controlled_phase(1, 3, order=4)
    assert np.array_equal(_apply_one(_copy(state), gate).amps,
                          _apply_one(_copy(state), gate).amps)
