"""Spin ensemble: excitation, whitening statistics, receiver phasor sum."""

import tracemalloc

import numpy as np
import pytest

from spinwhiten import errors, rng
from spinwhiten.ensemble import (
    SpinEnsemble,
    Stage,
    gz_whiten,
    pulse90,
    receiver_signal,
    with_seed,
)
from oracles import explicit_receiver_signal, ks_statistic


def _whitened(count, seed):
    return gz_whiten(pulse90(SpinEnsemble.longitudinal(count, seed=seed)))[0]


def _kernel_mean(turns):
    """Mean of the kernel's phasors over turns, summed as rng.phasor_sum
    sums one block: four np.dot products."""
    table_cos, table_sin, cos_r, sin_r = rng.phasor_factors(turns)
    re = np.dot(table_cos, cos_r) - np.dot(table_sin, sin_r)
    im = np.dot(table_sin, cos_r) + np.dot(table_cos, sin_r)
    return complex(re, im) / len(turns)


class TestPulse90:
    def test_tips_all_longitudinal_spins(self):
        ens = pulse90(SpinEnsemble.longitudinal(4, seed=1))
        assert ens == SpinEnsemble(4, seed=1, stage=Stage.TRANSVERSE)

    def test_receiver_after_pulse_is_unity(self):
        ens = pulse90(SpinEnsemble.longitudinal(10, seed=1))
        assert receiver_signal(ens) == pytest.approx(1 + 0j, abs=1e-15)

    def test_idempotent(self):
        once = pulse90(SpinEnsemble.longitudinal(6, seed=2))
        assert pulse90(once) == once
        whitened, _ = gz_whiten(once)
        assert pulse90(whitened) == whitened

    def test_preserves_existing_transverse_phase(self):
        whitened = _whitened(1000, seed=8)
        assert receiver_signal(pulse90(whitened)) == receiver_signal(whitened)


class TestGzWhiten:
    def test_requires_transverse(self):
        with pytest.raises(errors.OutOfRange, match="requires every spin in the transverse plane"):
            gz_whiten(SpinEnsemble.longitudinal(4, seed=0))

    def test_deterministic_per_seed(self):
        ens = pulse90(SpinEnsemble.longitudinal(1000, seed=77))
        first, g1 = gz_whiten(ens)
        second, g2 = gz_whiten(ens)
        assert first == second and g1 == g2
        assert receiver_signal(first) == receiver_signal(second)

    def test_phase_is_two_pi_gamma(self):
        # gamma_0 is draw 0 of the seed's stream; a one-spin ensemble reads
        # out its phasor exp(2*pi*i*gamma_0), and a larger one the mean over
        # the turns gamma_k * 2^64 of draws 0 .. M-1.
        for seed in range(20):
            one, gamma = gz_whiten(pulse90(SpinEnsemble.longitudinal(1, seed=seed)))
            assert gamma == rng.uniforms(seed, 1)[0]
            assert 0 <= gamma < 1
            error = abs(receiver_signal(one) - np.exp(2j * np.pi * gamma))
            assert error <= 2.0 ** -52 * 2 * np.pi + 1e-15
        turns = rng.uniforms(3, 100) * 2.0**64
        assert receiver_signal(_whitened(100, seed=3)) == _kernel_mean(turns.astype(np.uint64))

    def test_uniformity_ks_frozen(self):
        # Frozen from the oracle run at this seed (M = 1e5).
        stat = ks_statistic(rng.uniforms(20260808, 100_000))
        assert stat == pytest.approx(0.0024527240863003175, rel=1e-12)
        assert stat <= 0.01

    def test_million_spin_null_signal_frozen(self):
        # Frozen from the oracle run; 3/sqrt(M) = 0.003 is the criterion bound.
        magnitude = abs(receiver_signal(_whitened(1_000_000, seed=20260808)))
        assert magnitude == pytest.approx(0.0010132203021918583, rel=1e-9)
        assert magnitude <= 0.003

    def test_five_sigma_guard_over_seed_batch(self):
        # P(|mean| > 5/sqrt(M)) = exp(-25) per seed: zero failures expected.
        m = 10_000
        bound = 5 / np.sqrt(m)
        for seed in range(100):
            assert abs(receiver_signal(_whitened(m, seed=seed))) <= bound

    def test_with_seed_switches_stream(self):
        ens = pulse90(SpinEnsemble.longitudinal(64, seed=5))
        w5, g5 = gz_whiten(ens)
        w6, g6 = gz_whiten(with_seed(ens, 6))
        assert g5 != g6
        assert receiver_signal(w5) != receiver_signal(w6)

    def test_million_spin_whitening_allocates_no_spin_array(self):
        # An M-length float64 array alone is 8 MB at M = 10^6.
        tracemalloc.start()
        try:
            receiver_signal(_whitened(1_000_000, seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestReceiverSignal:
    def test_all_longitudinal_gives_zero(self):
        assert receiver_signal(SpinEnsemble.longitudinal(5, seed=0)) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_magnitude_bounded_by_one(self, seed):
        assert abs(receiver_signal(_whitened(1000, seed=seed))) <= 1.0 + 1e-12

    def test_kernel_matches_explicit_sum(self):
        # Table-and-polynomial kernel against per-spin cos/sin summed exactly.
        # 10^6 + 1 is odd, so no power-of-two block length divides it.
        for count, seed in ((1_000_000, 0), (1_000_000, 1), (1_000_000, 20260808),
                            (1_000_001, 9)):
            expected = explicit_receiver_signal(2 * np.pi * rng.uniforms(seed, count))
            assert abs(receiver_signal(_whitened(count, seed)) - expected) <= 1e-12
        # The program's before_whiten value and the whiten benchmark oracle
        # both read exactly 1.0 for a freshly pulsed ensemble.
        for count in (1, 1_000_000, 1_000_001):
            pulsed = pulse90(SpinEnsemble.longitudinal(count, seed=3))
            assert receiver_signal(pulsed) == 1.0


class TestEnsembleValue:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpinEnsemble.longitudinal(0, seed=0)

    def test_len(self):
        assert len(SpinEnsemble.longitudinal(17, seed=0)) == 17
