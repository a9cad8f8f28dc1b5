"""Transform synthesis vs the direct-matrix oracle, and phase encoding."""

import math
import tracemalloc

import numpy as np
import pytest

from spinwhiten import errors, qft
from spinwhiten.qft import (
    concentration_sweep,
    dft_matrix,
    peak_readout,
    phase_encode,
    phase_encode_block,
    qft_circuit,
    qubit_phasors,
)
from spinwhiten.statevector import (
    TILE_AMPS,
    GateKind,
    apply_circuit,
    dense_matrix,
    probabilities,
)

from oracles import basis_state, exact_phase_state, natural_amps, phase_estimation_distribution


class TestCircuitShape:
    def test_single_qubit_is_one_hadamard(self):
        gates = qft_circuit(1).gates
        assert len(gates) == 1 and gates[0].kind is GateKind.HADAMARD

    def test_two_qubit_gate_count(self):
        kinds = [g.kind for g in qft_circuit(2).gates]
        assert len(kinds) == 4
        assert kinds.count(GateKind.HADAMARD) == 2
        assert kinds.count(GateKind.CONTROLLED_PHASE) == 1
        assert kinds.count(GateKind.SWAP) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("inverse", [False, True])
    def test_counts_and_orders(self, n, inverse):
        gates = qft_circuit(n, inverse=inverse).gates
        kinds = [g.kind for g in gates]
        assert kinds.count(GateKind.HADAMARD) == n
        assert kinds.count(GateKind.CONTROLLED_PHASE) == n * (n - 1) // 2
        assert kinds.count(GateKind.SWAP) == n // 2
        orders = sorted(
            g.order for g in gates if g.kind is GateKind.CONTROLLED_PHASE
        )
        assert orders == sorted(
            m for m in range(2, n + 1) for _ in range(n + 1 - m)
        )
        assert all(
            g.dagger == inverse for g in gates if g.kind is GateKind.CONTROLLED_PHASE
        )

    def test_transform_of_ground_state_is_uniform(self):
        out = apply_circuit(basis_state(2, 0), qft_circuit(2))
        np.testing.assert_allclose(natural_amps(out), np.full(4, 0.5), atol=1e-15)

    def test_size_guard(self):
        with pytest.raises(errors.QubitCountExceeded):
            qft_circuit(0)
        with pytest.raises(errors.QubitCountExceeded):
            qft_circuit(31, inverse=True)


class TestDftMatrix:
    def test_single_qubit_is_hadamard(self):
        np.testing.assert_allclose(
            dft_matrix(1), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_two_qubit_second_row(self):
        np.testing.assert_allclose(
            dft_matrix(2)[1], np.array([1, 1j, -1, -1j]) / 2, atol=1e-15
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitary(self, n):
        matrix = dft_matrix(n)
        gram = matrix @ matrix.conj().T
        assert np.abs(gram - np.eye(1 << n)).max() <= 1e-10

    def test_oracle_scale_guard(self):
        with pytest.raises(errors.OutOfRange, match="dft_matrix limited to 10 qubits"):
            dft_matrix(11)


class TestTransformEquivalence:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_forward_matches_direct_matrix(self, n):
        error = np.abs(dense_matrix(qft_circuit(n)) - dft_matrix(n)).max()
        assert error <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_matches_conjugate_transpose(self, n):
        got = dense_matrix(qft_circuit(n, inverse=True))
        assert np.abs(got - dft_matrix(n).conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 8, 10])
    def test_round_trip_on_random_states(self, n):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = basis_state(n, 0)
        state.amps[:] = amps
        back = apply_circuit(
            apply_circuit(state, qft_circuit(n)), qft_circuit(n, inverse=True)
        )
        # the inverse's swaps undo the forward's: the order is natural again
        assert back.order == tuple(range(n))
        assert np.abs(back.amps - amps).max() <= 1e-9

    @pytest.mark.parametrize("n", [13, 16, 20, 22])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_matches_numpy_fft_on_random_states(self, n, inverse):
        # np.fft shares no code with the engine; n = 13 splits into windows
        # of 5, 4, 4 qubits and n = 22 into 6, 6, 5, 5
        rng = np.random.default_rng(1000 + n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = basis_state(n, 0)
        state.amps[:] = amps
        if inverse:
            expected = np.fft.fft(amps) / np.sqrt(1 << n)
        else:
            expected = np.fft.ifft(amps) * np.sqrt(1 << n)
        del amps
        got = natural_amps(apply_circuit(state, qft_circuit(n, inverse=inverse)))
        assert np.abs(got - expected).max() <= 1e-12


class TestPhaseEncode:
    def test_zero_phase_is_uniform(self):
        for n in (1, 3, 5):
            np.testing.assert_allclose(
                phase_encode(0.0, n).amps, np.full(1 << n, 2.0 ** (-n / 2)), atol=1e-15
            )

    def test_quarter_turn_two_qubits(self):
        np.testing.assert_allclose(
            phase_encode(0.25, 2).amps, np.array([1, 1j, -1, -1j]) / 2, atol=1e-15
        )

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 5), (4, 11), (6, 40)])
    def test_dyadic_encoding_equals_transformed_basis_state(self, n, k):
        direct = phase_encode(k / (1 << n), n)
        via_circuit = apply_circuit(basis_state(n, k), qft_circuit(n))
        assert np.abs(direct.amps - natural_amps(via_circuit)).max() <= 1e-12

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 3), (5, 17), (8, 200)])
    def test_inverse_transform_recovers_dyadic_index(self, n, k):
        state = apply_circuit(phase_encode(k / (1 << n), n), qft_circuit(n, inverse=True))
        outcome, prob = peak_readout(probabilities(state)[0])
        assert outcome == k
        assert prob >= 1 - 1e-12

    def test_allocation_peak_is_one_state(self):
        # the rows double in place: no 2^n-point temporary beside the 16 MiB state
        tracemalloc.start()
        try:
            phase_encode(0.3, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20

    def test_qubit_phasors_match_exact_turns(self):
        # the reference forms 2*pi*f in long double (64-bit significand on
        # x86-64): np.exp(2j * np.pi * f) rounds the double angle, which
        # alone puts it up to 1.05e-15 from the kernel's phasors
        gammas = np.random.default_rng(25).random(10_000)
        turns = np.fmod(np.multiply.outer(gammas, 2.0 ** np.arange(24)), 1.0)
        angles = 8 * np.arctan(np.longdouble(1)) * turns.astype(np.longdouble)
        phasors = qubit_phasors(gammas, 24)
        error = np.hypot(phasors.real - np.cos(angles), phasors.imag - np.sin(angles))
        assert error.max() <= 1e-15

    def test_phase_sample_validation(self):
        with pytest.raises(ValueError):
            phase_encode(1.0, 3)
        with pytest.raises(ValueError):
            phase_encode(-0.1, 3)


class TestPeakReadout:
    def test_exact_dyadic_case(self):
        state = apply_circuit(phase_encode(3 / 8, 3), qft_circuit(3, inverse=True))
        outcome, prob = peak_readout(probabilities(state)[0])
        assert outcome == 3
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_toward_smaller_index(self):
        state = phase_encode(0.0, 2)  # uniform: all outcomes tie at 0.25
        assert peak_readout(probabilities(state)[0]) == (0, pytest.approx(0.25, abs=1e-15))

    def test_rounding_noise_does_not_break_a_tie(self):
        # qft then iqft gives back a uniform distribution, up to rounding
        state = phase_encode(0.3, 5)
        state = apply_circuit(apply_circuit(state, qft_circuit(5)), qft_circuit(5, inverse=True))
        probs = probabilities(state)[0]
        assert np.ptp(probs) > 0  # not bit-exact, so a plain argmax is noise
        assert peak_readout(probs) == (0, pytest.approx(1 / 32, rel=1e-12))

    def test_non_tie_follows_rounding_rule(self):
        gamma, n = 0.3, 4
        state = apply_circuit(phase_encode(gamma, n), qft_circuit(n, inverse=True))
        assert peak_readout(probabilities(state)[0])[0] == round(gamma * (1 << n))


class TestConcentrationSweep:
    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_matches_single_state_path(self, n):
        # the phasors come a group of whole chunks of TILE_AMPS >> n rows at a
        # time, and every chunk is encoded into the one reused buffer: rows on
        # both sides of each chunk and group edge, and the last rows of a
        # partial chunk or group, must hold no stale values
        chunk = TILE_AMPS >> n
        group = chunk * max(1, qft._GROUP_TURNS // (chunk * n))
        for grid in (chunk - 1, group - 1, group, group + 1, 2 * group + 3):
            gammas, argmax, peaks = concentration_sweep(n, grid)
            edges = {0, grid - 1}.union(*({j - 1, j} for j in range(chunk, grid, chunk)))
            for j in sorted(edges):
                state = apply_circuit(phase_encode(gammas[j], n), qft_circuit(n, inverse=True))
                outcome, prob = peak_readout(probabilities(state)[0])
                assert argmax[j] == outcome
                assert peaks[j] == pytest.approx(prob, rel=1e-12)

    def test_ties_follow_peak_readout(self):
        # at odd j, gamma * 16 is a half-integer and two outcomes tie exactly;
        # rounding noise must not pick the larger one
        n, grid = 4, 32
        gammas, argmax, peaks = concentration_sweep(n, grid)
        for j in range(1, grid, 2):
            state = apply_circuit(phase_encode(gammas[j], n), qft_circuit(n, inverse=True))
            outcome, prob = peak_readout(probabilities(state)[0])
            assert argmax[j] == outcome
            assert peaks[j] == pytest.approx(prob, rel=1e-12)
        assert argmax[1::2].tolist() == [*range(15), 0]

    def test_argmax_follows_rounding_rule(self):
        n, grid = 5, 1000
        gammas, argmax, _ = concentration_sweep(n, grid)
        expected = np.floor(gammas * (1 << n) + 0.5).astype(int) % (1 << n)
        assert np.array_equal(argmax, expected)

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            concentration_sweep(4, 1)

    def test_default_sweep_allocation_peak(self):
        # chunks of TILE_AMPS >> n rows hold about 256 KiB of amplitudes; the
        # phasors of a 4096-turn group add a few hundred KiB (1.20 MiB in all;
        # 8192-turn groups would read 1.67 MiB)
        tracemalloc.start()
        try:
            concentration_sweep(8, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_block_encoding_matches_scalar(self):
        block = phase_encode_block(qubit_phasors(np.array([0.3, 0.7]), 3))
        np.testing.assert_allclose(block[0], phase_encode(0.3, 3).amps, atol=1e-15)
        np.testing.assert_allclose(block[1], phase_encode(0.7, 3).amps, atol=1e-15)


class TestClosedFormDistribution:
    """Inverse transform of an encoded phase against the phase-estimation
    distribution, at register sizes far beyond the dense-matrix oracle. Above
    n = 12 the last diagonal steps name more qubits than one phase table
    holds, so they split into runs that share a qubit."""

    @pytest.mark.parametrize("n", [12, 16, 20, 22])
    def test_dyadic_phase(self, n):
        gamma = ((5 << (n - 4)) + 3) / (1 << n)
        state = apply_circuit(phase_encode(gamma, n), qft_circuit(n, inverse=True))
        expected = phase_estimation_distribution(gamma, n)
        assert np.abs(probabilities(state)[0] - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [12, 16, 20, 22])
    @pytest.mark.parametrize("gamma", [1 / 3, 0.3, 0.999999])
    def test_non_dyadic_phase(self, n, gamma):
        state = apply_circuit(phase_encode(gamma, n), qft_circuit(n, inverse=True))
        expected = phase_estimation_distribution(gamma, n)
        assert np.abs(probabilities(state)[0] - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 12, 16, 20, 22])
    @pytest.mark.parametrize("gamma", [1 / 3, 0.3, 0.999999])
    def test_encoder_matches_reduced_closed_form(self, n, gamma):
        # each amplitude is a product of at most n phasors, each within a
        # few ulps of 2*pi in angle
        amps = phase_encode(gamma, n).amps
        error = np.abs(amps - exact_phase_state(gamma, n)).max()
        assert error <= n * 2.0**-50 * 2.0 ** (-n / 2)

    @pytest.mark.parametrize("n", [12, 16, 20, 22])
    @pytest.mark.parametrize("gamma", [2 / 3, 0.9, 1 - 2.0**-40 / 3])
    def test_turns_above_one_half(self, n, gamma):
        # a turn fmod(gamma * 2^k, 1) >= 0.5 reaches the kernel as a uint64
        # >= 2^63, so the float-to-uint64 cast must keep the top bit
        assert any(math.fmod(gamma * 2.0**k, 1.0) >= 0.5 for k in range(n))
        error = np.abs(phase_encode(gamma, n).amps - exact_phase_state(gamma, n)).max()
        assert error <= 5e-17
