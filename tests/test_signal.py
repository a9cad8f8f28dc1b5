"""Acquisition baseline: synthesis, averaging, SNR, budget arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest

from spinwhiten import errors, rng, signal
from spinwhiten.signal import (
    SpectralLine,
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
        assert np.array_equal(synth_fid([], 16, dwell_s=1.0), np.zeros(16))

    def test_dc_line_is_constant(self):
        samples = synth_fid([SpectralLine(0.0, amp=1.0)], 8, dwell_s=1.0)
        np.testing.assert_allclose(samples, np.ones(8), atol=1e-15)

    def test_on_bin_line_hits_single_bin(self):
        # Oracle: naive DFT of the closed-form trace; an exact-bin tone with
        # no decay puts magnitude L into bin 4 and nothing elsewhere.
        length, dwell = 64, 1.0
        samples = synth_fid([SpectralLine(4 / (length * dwell))], length, dwell)
        oracle = naive_dft(samples)
        assert abs(abs(oracle[4]) - length) <= 1e-9
        mags = np.abs(fft(samples))
        assert mags[4] == pytest.approx(length, rel=1e-12)
        assert np.delete(mags, 4).max() <= 1e-9

    def test_t2_decay_applied(self):
        samples = synth_fid([SpectralLine(0.0, amp=1.0, t2_s=2.0)], 4, dwell_s=1.0)
        np.testing.assert_allclose(samples.real, np.exp(-np.arange(4) / 2.0), rtol=1e-12)

    def test_noise_reproducible_and_scaled(self):
        a = synth_fid([], 1024, 1.0, noise_sigma=0.5, seed=9)
        b = synth_fid([], 1024, 1.0, noise_sigma=0.5, seed=9)
        assert np.array_equal(a, b)
        rms = np.sqrt(np.mean(np.abs(a) ** 2))
        assert rms == pytest.approx(0.5 * np.sqrt(2), rel=0.1)

    def test_noise_parts_are_consecutive_stream_draws(self):
        # Noise sample j is pair j of the seed's stream: draw 2j real, 2j+1 imaginary.
        samples = synth_fid([], 8, 1.0, noise_sigma=1.0, seed=2**63 + 1)
        draws = rng.normals(2**63 + 1, 16)
        assert np.array_equal(samples.real, draws[0::2])
        assert np.array_equal(samples.imag, draws[1::2])

    def test_rejects_line_at_or_above_nyquist(self):
        with pytest.raises(errors.OutOfRange, match="is not below Nyquist"):
            synth_fid([SpectralLine(0.5)], 16, dwell_s=1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(errors.OutOfRange, match="trace length 12 is not a power of two"):
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


class TestCatAverage:
    def test_identical_traces_average_to_themselves(self):
        samples = synth_fid([SpectralLine(0.1)], 32, 1.0)
        block = np.broadcast_to(samples, (3, 32))
        for shots in ([block], [samples[None]] * 3, [block[:2], block[2:]]):
            assert np.array_equal(cat_average(shots), samples)

    def test_rejects_empty(self):
        with pytest.raises(errors.OutOfRange, match="cat_average needs at least one trace"):
            cat_average([])
        with pytest.raises(errors.OutOfRange, match="cat_average needs at least one trace"):
            cat_average(iter([]))
        with pytest.raises(errors.OutOfRange, match="cat_average needs at least one trace"):
            cat_average([np.zeros((0, 16), dtype=complex)])
        with pytest.raises(errors.OutOfRange, match="cat_average needs at least one trace"):
            cat_snr(0, seed=5)  # no block of shots reaches the average

    def test_consumes_a_stream(self):
        shots = [synth_fid([], 16, 1.0, noise_sigma=1.0, seed=s)[None] for s in range(5)]
        assert np.array_equal(cat_average(shot for shot in shots), cat_average(shots))

    def test_blocks_add_rows_in_shot_order(self):
        # Large rows cancel only after the small ones were added to them, so
        # the extended-precision sum rounds differently in any other order.
        gen = np.random.default_rng(4)

        def rows_of(count, lo, hi):
            z = gen.standard_normal((count, 16)) + 1j * gen.standard_normal((count, 16))
            return z * 10.0 ** gen.uniform(lo, hi, (count, 1))

        big, small = rows_of(10, 4, 8), rows_of(21, -8, -4)
        rows = np.concatenate([big, small, -big[::-1]])

        def loop_mean(ordered):
            total = np.zeros(16, dtype=np.clongdouble)
            for row in ordered:
                total += row
            return (total / len(ordered)).astype(np.complex128)

        want = loop_mean(rows)
        assert not np.array_equal(loop_mean(rows[::-1]), want)
        blocks = [rows[:24], rows[24:40], rows[40:]]  # 24, 16 and 1 rows
        assert np.array_equal(cat_average(blocks), want)

    def test_noise_rms_halves_at_four_averages(self):
        # Monte Carlo over 100 independent seed groups.
        ratios = []
        for group in range(100):
            singles = [
                synth_fid([], 64, 1.0, noise_sigma=1.0, seed=group * 10 + j)
                for j in range(4)
            ]
            averaged = cat_average([np.stack(singles)])
            single_rms = np.sqrt(np.mean(np.abs(singles[0]) ** 2))
            avg_rms = np.sqrt(np.mean(np.abs(averaged) ** 2))
            ratios.append(avg_rms / single_rms)
        assert np.mean(ratios) == pytest.approx(0.5, abs=0.05)


class TestEstimateSnr:
    def _flat_spectrum(self, peak=10.0, noise=1.0):
        bins = np.full(64, noise, dtype=complex)
        bins[5] = peak
        return bins

    def test_definition(self):
        assert estimate_snr(self._flat_spectrum(), (4, 7), (16, 48)) == pytest.approx(10.0)

    def test_zero_noise_floor(self):
        bins = np.zeros(16, dtype=complex)
        bins[2] = 1.0
        with pytest.raises(errors.OutOfRange, match="is rounding error of the peak"):
            estimate_snr(bins, (1, 4), (8, 12))

    def test_noise_floor_is_relative_to_the_peak(self):
        # 64 eps of the peak is about 1.4e-14; FFT rounding sits near 3e-16
        with pytest.raises(errors.OutOfRange, match="is rounding error of the peak"):
            estimate_snr(self._flat_spectrum(peak=1e100, noise=1e85), (4, 7), (16, 48))
        snr = estimate_snr(self._flat_spectrum(peak=1e100, noise=1e87), (4, 7), (16, 48))
        assert snr == pytest.approx(1e13)

    def test_noise_far_above_sqrt_of_float_max(self):
        # squaring 1e200 overflows; the RMS is taken on power-of-two scaled bins
        # a noise RMS read as 1e200 exactly, against the exact peak
        assert estimate_snr(self._flat_spectrum(peak=1e201, noise=1e200), (4, 7), (16, 48)) == 10.0

    def test_window_overlap(self):
        with pytest.raises(errors.OutOfRange, match=r"windows \(4, 10\) and \(8, 16\) overlap"):
            estimate_snr(self._flat_spectrum(), (4, 10), (8, 16))

    def test_empty_window(self):
        with pytest.raises(errors.OutOfRange, match=r"peak window \[4, 4\) is empty"):
            estimate_snr(self._flat_spectrum(), (4, 4), (8, 16))

    def test_window_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            estimate_snr(self._flat_spectrum(), (4, 7), (32, 128))

    def test_doubling_amplitude_doubles_snr(self):
        # Same noise seed, only the line amplitude changes.
        def snr_of(amp):
            samples = synth_fid([SpectralLine(125.0, amp)], 256, 1e-3,
                                noise_sigma=1.0, seed=31)
            return estimate_snr(fft(samples), (30, 35), (128, 224))

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
        chain = spin_budget_chain((("source", 8),))
        assert len(chain) == 1 and chain[0].population == 10**8

    def test_zero_attenuation_keeps_population(self):
        chain = spin_budget_chain((("a", 6), ("b", 0), ("c", 0)))
        assert [stage.population for stage in chain] == [10**6] * 3

    def test_concatenation_composes(self):
        first = (("a", 5), ("b", -2))
        second = (("c", -1), ("d", 3))
        whole = spin_budget_chain(first + second)
        front = spin_budget_chain(first)
        assert [s.exponent for s in whole[:2]] == [s.exponent for s in front]
        # composition: tail exponents are front-final plus the second chain's own
        tail = spin_budget_chain(second)
        offset = front[-1].exponent
        assert [s.exponent for s in whole[2:]] == [s.exponent + offset for s in tail]

    def test_negative_cumulative_exponent_is_fractional(self):
        chain = spin_budget_chain((("a", 1), ("b", -3)))
        assert chain[-1].population == pytest.approx(1e-2)

    def test_rejects_empty(self):
        with pytest.raises(errors.OutOfRange, match="budget needs at least one stage"):
            spin_budget_chain(())


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
    """cat_snr hashes and Box-Mullers blocks of _CAT_SHOT_BLOCK shots; the
    oracle builds one synth_fid trace per shot. Equality is exact, not
    approximate."""

    @pytest.mark.parametrize("n_shots", [1, 23, 24, 25, 31, 32, 33, 47, 48, 49, 63, 64, 65, 200])
    @pytest.mark.parametrize("seed", [3, 2**63 + 12345])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_default_line(self, n_shots, seed, noise_sigma, monkeypatch):
        seen = []
        real_fft = signal.fft
        monkeypatch.setattr(signal, "fft", lambda samples: seen.append(samples) or real_fft(samples))
        args = (n_shots, seed, signal.DEFAULT_CAT_LINE, noise_sigma,
                signal.DEFAULT_CAT_LENGTH, signal.DEFAULT_CAT_DWELL_S)
        if noise_sigma:
            assert cat_snr(n_shots, seed, noise_sigma=noise_sigma) == explicit_cat_snr(*args)
        else:
            # without noise the noise window holds only the FFT's rounding
            with pytest.raises(errors.OutOfRange, match="is rounding error of the peak"):
                cat_snr(n_shots, seed, noise_sigma=noise_sigma)
        assert np.array_equal(seen[0], explicit_cat_average(*args))

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
        # At length 64 the noise window does not fit, so compare the average
        # that reaches the transform before estimate_snr refuses it. The
        # line, 468.75 Hz, lands in bin 30 of 64, inside the peak window.
        seen = []
        real_fft = signal.fft
        monkeypatch.setattr(signal, "fft", lambda samples: seen.append(samples) or real_fft(samples))
        line = SpectralLine(468.75, 1.0, t2_s=0.02)
        with pytest.raises(errors.OutOfRange, match="noise window .* outside spectrum"):
            cat_snr(n_shots, 8, line=line, noise_sigma=0.5, length=64)
        want = explicit_cat_average(n_shots, 8, line, 0.5, 64, 1e-3)
        assert len(seen) == 1
        assert np.array_equal(seen[0], want)

    @pytest.mark.parametrize("n_shots", [1, 33, 65])
    def test_noiseless_decaying_line(self, n_shots):
        # without noise every shot equals the clean line; the decay puts
        # signal into the noise window, so an SNR is measured
        line = SpectralLine(125.0, 1.0, t2_s=0.01)
        got = cat_snr(n_shots, 5, line=line, noise_sigma=0.0)
        assert got == explicit_cat_snr(n_shots, 5, line, 0.0, 256, 1e-3)

    def test_misplaced_line_refused_before_any_shot_is_drawn(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rng.normals called")

        monkeypatch.setattr(rng, "normals", refuse)
        with pytest.raises(errors.OutOfRange, match="outside the fixed peak window"):
            cat_snr(100_000, seed=1, line=SpectralLine(-125.0, 1.0))

    def test_peak_memory_does_not_grow_with_shots(self):
        # 1024 traces of 256 samples alone hold 4 MiB.
        tracemalloc.start()
        try:
            cat_snr(1024, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_first_block_of_ten_million_shots_holds_no_per_shot_array(self, monkeypatch):
        # a seed per shot alone would hold 76 MiB; the average stops after one block
        class FirstBlock(Exception):
            pass

        def first_block(shots):
            assert next(iter(shots)).shape == (signal._CAT_SHOT_BLOCK, 256)
            raise FirstBlock

        monkeypatch.setattr(signal, "cat_average", first_block)
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock):
                cat_snr(10**7, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_blocks_draw_into_one_buffer_per_call(self, monkeypatch):
        addresses = []
        real_normals = rng.normals

        def spy(seed, count, buffers=None):
            addresses.append(None if buffers is None else buffers.ctypes.data)
            return real_normals(seed, count, buffers)

        monkeypatch.setattr(rng, "normals", spy)
        cat_snr(200, seed=5)
        assert len(addresses) > 2 and len(set(addresses)) == 1 and None not in addresses

    def test_noisy_shots_are_built_in_the_normals_workspace(self, monkeypatch):
        # each block of traces is its block of normals, scaled in place
        drawn, averaged = [], []
        real_blocks, real_average = rng.normal_blocks, signal.cat_average

        def blocks(*args):
            for draws in real_blocks(*args):
                drawn.append(draws)
                yield draws

        def average(shots):
            return real_average(averaged.append(rows) or rows for rows in shots)

        monkeypatch.setattr(rng, "normal_blocks", blocks)
        monkeypatch.setattr(signal, "cat_average", average)
        cat_snr(60, seed=5)
        assert len(averaged) == len(drawn) == 3
        for rows, draws in zip(averaged, drawn):
            assert rows.dtype == np.complex128 and rows.shape == (len(draws), 256)
            assert np.shares_memory(rows, draws)

    def test_page_faults_do_not_grow_with_shots(self):
        # Buffers allocated per block are handed back to the system and
        # faulted in again by the next block; reused ones are not.
        resource = pytest.importorskip("resource")

        def faults(n_shots):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cat_snr(n_shots, seed=5)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(64), faults(1024)  # warm
        assert min(faults(1024) - faults(64) for _ in range(3)) < 200
