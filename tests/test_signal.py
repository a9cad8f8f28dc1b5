"""Acquisition baseline: synthesis, averaging, SNR, budget arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest

from spinwhiten import errors, rng, signal
from spinwhiten.signal import (
    DEFAULT_BUDGET,
    FidTrace,
    SpectralLine,
    Spectrum,
    SpinBudget,
    cat_average,
    cat_experiment,
    cat_snr,
    enhancement_report,
    estimate_snr,
    fft,
    loglog_slope,
    spin_budget_chain,
    synth_fid,
)
from oracles import explicit_cat_average, explicit_cat_snr, naive_dft


class TestSynthFid:
    def test_no_lines_no_noise_is_silence(self):
        trace = synth_fid([], 16, dwell_s=1.0)
        assert np.array_equal(trace.samples, np.zeros(16))

    def test_dc_line_is_constant(self):
        trace = synth_fid([SpectralLine(0.0, amp=1.0)], 8, dwell_s=1.0)
        np.testing.assert_allclose(trace.samples, np.ones(8), atol=1e-15)

    def test_on_bin_line_hits_single_bin(self):
        # Oracle: naive DFT of the closed-form trace; an exact-bin tone with
        # no decay puts magnitude L into bin 4 and nothing elsewhere.
        length, dwell = 64, 1.0
        trace = synth_fid([SpectralLine(4 / (length * dwell))], length, dwell)
        oracle = naive_dft(trace.samples)
        assert abs(abs(oracle[4]) - length) <= 1e-9
        spectrum = fft(trace)
        mags = np.abs(spectrum.bins)
        assert mags[4] == pytest.approx(length, rel=1e-12)
        assert np.delete(mags, 4).max() <= 1e-9

    def test_t2_decay_applied(self):
        trace = synth_fid([SpectralLine(0.0, amp=1.0, t2_s=2.0)], 4, dwell_s=1.0)
        np.testing.assert_allclose(
            trace.samples.real, np.exp(-np.arange(4) / 2.0), rtol=1e-12
        )

    def test_noise_reproducible_and_scaled(self):
        a = synth_fid([], 1024, 1.0, noise_sigma=0.5, seed=9)
        b = synth_fid([], 1024, 1.0, noise_sigma=0.5, seed=9)
        assert np.array_equal(a.samples, b.samples)
        rms = np.sqrt(np.mean(np.abs(a.samples) ** 2))
        assert rms == pytest.approx(0.5 * np.sqrt(2), rel=0.1)

    def test_noise_parts_are_consecutive_stream_draws(self):
        # Real parts take normals 0 .. L-1 of the seed's stream, imaginary L .. 2L-1.
        trace = synth_fid([], 8, 1.0, noise_sigma=1.0, seed=2**63 + 1)
        draws = rng.normals(2**63 + 1, 16)
        assert np.array_equal(trace.samples.real, draws[:8])
        assert np.array_equal(trace.samples.imag, draws[8:])

    def test_rejects_line_at_or_above_nyquist(self):
        with pytest.raises(errors.LineAboveNyquist):
            synth_fid([SpectralLine(0.5)], 16, dwell_s=1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(errors.NotPowerOfTwo):
            synth_fid([], 12, dwell_s=1.0)

    def test_line_validation(self):
        with pytest.raises(errors.OutOfRange):
            SpectralLine(0.0, amp=-1.0)
        with pytest.raises(errors.OutOfRange):
            SpectralLine(0.0, t2_s=0.0)

    @pytest.mark.parametrize("freq,amp,t2", [
        (math.nan, 1.0, math.inf),
        (math.inf, 1.0, math.inf),
        (125.0, math.inf, math.inf),
        (125.0, math.nan, math.inf),
        (125.0, 1.0, math.nan),
    ])
    def test_line_rejects_non_finite(self, freq, amp, t2):
        with pytest.raises(errors.OutOfRange):
            SpectralLine(freq, amp, t2)

    @pytest.mark.parametrize("dwell", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_dwell(self, dwell):
        with pytest.raises(errors.OutOfRange, match="dwell"):
            synth_fid([SpectralLine(1.0)], 16, dwell_s=dwell)

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf])
    def test_rejects_bad_noise_sigma(self, sigma):
        with pytest.raises(errors.OutOfRange, match="noise sigma"):
            synth_fid([], 16, 1.0, noise_sigma=sigma)


class TestTraceAndSpectrum:
    def test_bin_width(self):
        spectrum = fft(synth_fid([], 256, dwell_s=1e-3))
        assert spectrum.bin_width_hz == pytest.approx(1 / (256 * 1e-3))

    def test_trace_validation(self):
        with pytest.raises(errors.NotPowerOfTwo):
            FidTrace(np.zeros(3, dtype=complex), 1.0)
        with pytest.raises(errors.OutOfRange):
            FidTrace(np.zeros(4, dtype=complex), 0.0)
        with pytest.raises(errors.OutOfRange):
            FidTrace(np.zeros(4, dtype=complex), math.nan)


class TestCatAverage:
    def test_identical_traces_average_to_themselves(self):
        trace = synth_fid([SpectralLine(0.1)], 32, 1.0)
        averaged = cat_average([trace, trace, trace])
        assert np.array_equal(averaged.samples, trace.samples)

    def test_rejects_empty(self):
        with pytest.raises(errors.EmptyInput):
            cat_average([])
        with pytest.raises(errors.EmptyInput):
            cat_average(iter([]))

    def test_consumes_a_stream(self):
        traces = [synth_fid([], 16, 1.0, noise_sigma=1.0, seed=s) for s in range(5)]
        streamed = cat_average(trace for trace in traces)
        assert np.array_equal(streamed.samples, cat_average(traces).samples)

    def test_rejects_mismatched(self):
        with pytest.raises(errors.LengthMismatch):
            cat_average([synth_fid([], 16, 1.0), synth_fid([], 32, 1.0)])
        with pytest.raises(errors.LengthMismatch):
            cat_average([synth_fid([], 16, 1.0), synth_fid([], 16, 2.0)])

    def test_noise_rms_halves_at_four_averages(self):
        # Monte Carlo over 100 independent seed groups.
        ratios = []
        for group in range(100):
            singles = [
                synth_fid([], 64, 1.0, noise_sigma=1.0, seed=group * 10 + j)
                for j in range(4)
            ]
            averaged = cat_average(singles)
            single_rms = np.sqrt(np.mean(np.abs(singles[0].samples) ** 2))
            avg_rms = np.sqrt(np.mean(np.abs(averaged.samples) ** 2))
            ratios.append(avg_rms / single_rms)
        assert np.mean(ratios) == pytest.approx(0.5, abs=0.05)


class TestEstimateSnr:
    def _flat_spectrum(self, peak=10.0, noise=1.0):
        bins = np.full(64, noise, dtype=complex)
        bins[5] = peak
        return Spectrum(bins, 1.0)

    def test_definition(self):
        report = estimate_snr(self._flat_spectrum(), (4, 7), (16, 48))
        assert report.peak_mag == 10.0
        assert report.noise_rms == pytest.approx(1.0)
        assert report.snr == pytest.approx(10.0)

    def test_zero_noise_floor(self):
        bins = np.zeros(16, dtype=complex)
        bins[2] = 1.0
        with pytest.raises(errors.ZeroNoiseFloor):
            estimate_snr(Spectrum(bins, 1.0), (1, 4), (8, 12))

    def test_window_overlap(self):
        with pytest.raises(errors.WindowOverlap):
            estimate_snr(self._flat_spectrum(), (4, 10), (8, 16))

    def test_empty_window(self):
        with pytest.raises(errors.EmptyWindow):
            estimate_snr(self._flat_spectrum(), (4, 4), (8, 16))

    def test_window_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            estimate_snr(self._flat_spectrum(), (4, 7), (32, 128))

    def test_doubling_amplitude_doubles_snr(self):
        # Same noise seed, only the line amplitude changes.
        def snr_of(amp):
            trace = synth_fid([SpectralLine(125.0, amp)], 256, 1e-3,
                              noise_sigma=1.0, seed=31)
            return estimate_snr(fft(trace), (30, 35), (128, 224)).snr

        assert snr_of(2.0) / snr_of(1.0) == pytest.approx(2.0, rel=0.05)


class TestSpinBudget:
    def test_default_chain_is_exact(self):
        chain = spin_budget_chain()
        assert [stage.label for stage in chain] == [
            "avogadro", "sample_tube", "boltzmann", "solute",
        ]
        assert [stage.population for stage in chain] == [
            10**23, 10**20, 10**14, 10**11,
        ]
        assert [stage.exponent for stage in chain] == [23, 20, 14, 11]

    def test_single_stage(self):
        chain = spin_budget_chain(SpinBudget((("source", 8),)))
        assert len(chain) == 1 and chain[0].population == 10**8

    def test_zero_attenuation_keeps_population(self):
        chain = spin_budget_chain(SpinBudget((("a", 6), ("b", 0), ("c", 0))))
        assert [stage.population for stage in chain] == [10**6] * 3

    def test_concatenation_composes(self):
        first = (("a", 5), ("b", -2))
        second = (("c", -1), ("d", 3))
        whole = spin_budget_chain(SpinBudget(first + second))
        front = spin_budget_chain(SpinBudget(first))
        assert [s.exponent for s in whole[:2]] == [s.exponent for s in front]
        # composition: tail exponents are front-final plus the second chain's own
        tail = spin_budget_chain(SpinBudget(second))
        offset = front[-1].exponent
        assert [s.exponent for s in whole[2:]] == [s.exponent + offset for s in tail]

    def test_negative_cumulative_exponent_is_fractional(self):
        chain = spin_budget_chain(SpinBudget((("a", 1), ("b", -3))))
        assert chain[-1].population == pytest.approx(1e-2)

    def test_rejects_empty(self):
        with pytest.raises(errors.EmptyInput):
            SpinBudget(())


class TestEnhancementReport:
    def test_single_spin(self):
        assert enhancement_report(1)["register_states"] == 2

    def test_fourteen_spins(self):
        report = enhancement_report(14)
        assert report["register_states"] == 16384
        assert report["paper_claimed_factor_at_14"] == 10.0
        assert any("inconsistent" in note for note in report["notes"])

    def test_factor_only_echoed_at_fourteen(self):
        assert enhancement_report(13)["paper_claimed_factor_at_14"] is None

    @pytest.mark.parametrize("n", range(1, 25))
    def test_register_states_exactly_exponential(self, n):
        assert enhancement_report(n)["register_states"] == 2**n

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            enhancement_report(0)
        with pytest.raises(errors.OutOfRange):
            enhancement_report(65)


class TestCatExperiment:
    def test_four_averages_double_snr(self):
        one = cat_snr(1, seed=12)
        four = np.mean([cat_snr(4, seed=s) for s in range(12, 22)])
        assert four / one == pytest.approx(2.0, rel=0.25)

    def test_rows_and_slope(self):
        rows = cat_experiment([1, 4, 16], n_seeds=8, master_seed=3)
        assert [n for n, _, _ in rows] == [1, 4, 16]
        assert loglog_slope(rows) == pytest.approx(0.5, abs=0.1)

    def test_slope_undefined_for_single_point(self):
        assert loglog_slope([(1, 10.0, 1.0)]) is None
        assert loglog_slope([(1, 10.0, 1.0), (1, 12.0, 1.0)]) is None

    def test_rejects_non_finite_noise(self):
        for sigma in (math.nan, math.inf, -1.0):
            with pytest.raises(errors.OutOfRange, match="noise sigma"):
                cat_snr(4, seed=1, noise_sigma=sigma)

    def test_experiment_reproducible(self):
        a = cat_experiment([1, 2], n_seeds=5, master_seed=9)
        b = cat_experiment([1, 2], n_seeds=5, master_seed=9)
        assert a == b


class TestBatchedCatMatchesPerShotSynthesis:
    """cat_snr hashes and Box-Mullers blocks of 32 shots; the oracle builds
    one synth_fid trace per shot. Equality is exact, not approximate."""

    @pytest.mark.parametrize("n_shots", [1, 31, 32, 33, 63, 64, 65, 200])
    @pytest.mark.parametrize("seed", [3, 2**63 + 12345])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_default_line(self, n_shots, seed, noise_sigma):
        got = cat_snr(n_shots, seed, noise_sigma=noise_sigma)
        want = explicit_cat_snr(n_shots, seed, signal.DEFAULT_CAT_LINE, noise_sigma,
                                signal.DEFAULT_CAT_LENGTH, signal.DEFAULT_CAT_DWELL_S)
        assert got == want

    @pytest.mark.parametrize("n_shots", [64, 65, 200])
    @pytest.mark.parametrize("line,length", [
        (SpectralLine(125.0, 0.7, t2_s=0.05), 256),
        (SpectralLine(62.5, 1.0, t2_s=0.2), 512),  # bin 32 of 512
    ])
    def test_finite_t2_and_long_trace(self, n_shots, line, length):
        got = cat_snr(n_shots, 21, line=line, noise_sigma=0.5, length=length)
        want = explicit_cat_snr(n_shots, 21, line, 0.5, length, 1e-3)
        assert got == want

    @pytest.mark.parametrize("n_shots", [63, 65])
    def test_short_trace_average(self, n_shots, monkeypatch):
        # At length 64 the default windows do not fit, so compare the average
        # that reaches the transform before estimate_snr refuses it.
        seen = []
        real_fft = signal.fft
        monkeypatch.setattr(signal, "fft", lambda trace: seen.append(trace) or real_fft(trace))
        line = SpectralLine(125.0, 1.0, t2_s=0.02)
        with pytest.raises(errors.OutOfRange, match="window"):
            cat_snr(n_shots, 8, line=line, noise_sigma=0.5, length=64)
        want = explicit_cat_average(n_shots, 8, line, 0.5, 64, 1e-3)
        assert len(seen) == 1
        assert np.array_equal(seen[0].samples, want.samples)
        assert seen[0].dwell_s == want.dwell_s

    def test_peak_memory_does_not_grow_with_shots(self):
        # 1024 traces of 256 samples alone hold 4 MiB.
        tracemalloc.start()
        try:
            cat_snr(1024, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
