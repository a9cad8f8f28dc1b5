"""Conventional-acquisition baseline and bookkeeping.

Synthesizes free-induction-decay traces from spectral lines plus complex
Gaussian noise, transforms them with the in-repo radix-2 FFT, averages
repeated shots (noise falls as sqrt(N)), and measures SNR as spectral peak
magnitude over the RMS of a signal-free window. The averaging study
synthesizes its clean line once and draws the noise of a block of shots in
one vectorized pass; every shot stays bit-identical to a `synth_fid` call
with that shot's seed, and the average consumes shots as a stream. Also
carries the spin-budget decade arithmetic and the register-size enhancement
report.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import fourier, rng
from .errors import (
    EmptyInput,
    EmptyWindow,
    LengthMismatch,
    LineAboveNyquist,
    NotPowerOfTwo,
    OutOfRange,
    WindowOverlap,
    ZeroNoiseFloor,
)


@dataclass
class FidTrace:
    """Complex time-domain acquisition: samples[j] at t = j * dwell_s."""

    samples: np.ndarray = field(repr=False)
    dwell_s: float = 1.0

    def __post_init__(self):
        if not fourier.is_power_of_two(len(self.samples)) or len(self.samples) < 2:
            raise NotPowerOfTwo(f"trace length {len(self.samples)} is not a power of two >= 2")
        _check_dwell(self.dwell_s)


@dataclass
class Spectrum:
    """Discrete transform of a trace; bin k sits at k / (L * dwell) Hz."""

    bins: np.ndarray = field(repr=False)
    bin_width_hz: float = 1.0


@dataclass(frozen=True)
class SpectralLine:
    """One resonance: frequency, amplitude, decay constant (inf = no decay)."""

    freq_hz: float
    amp: float = 1.0
    t2_s: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.freq_hz):
            raise OutOfRange(f"line frequency must be finite, got {self.freq_hz}")
        if not (math.isfinite(self.amp) and self.amp >= 0):
            raise OutOfRange(f"amplitude must be finite and >= 0, got {self.amp}")
        if not self.t2_s > 0:
            raise OutOfRange(f"T2 must be > 0, got {self.t2_s}")


@dataclass(frozen=True)
class SnrReport:
    peak_mag: float
    noise_rms: float
    snr: float
    n_averages: int = 1


def _check_dwell(dwell_s: float) -> None:
    if not (math.isfinite(dwell_s) and dwell_s > 0):
        raise OutOfRange(f"dwell must be finite and > 0, got {dwell_s}")


def _check_noise_sigma(noise_sigma: float) -> None:
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise OutOfRange(f"noise sigma must be finite and >= 0, got {noise_sigma}")


def _add_noise(clean: np.ndarray, noise_sigma: float, seed: int | np.ndarray) -> np.ndarray:
    """clean plus complex Gaussian noise of std noise_sigma per component.

    The real parts take draws 0 .. L-1 of the stream of `seed`, the imaginary
    parts draws L .. 2L-1. A uint64 seed column of shape (B, 1) gives B noisy
    copies, row b bit-identical to the call with the scalar seed[b].
    """
    length = clean.shape[-1]
    noise = rng.normals(seed, 2 * length)
    # clean + sigma * (re + 1j * im), evaluated in one complex buffer
    samples = np.multiply(1j, noise[..., length:])
    np.add(noise[..., :length], samples, out=samples)
    samples *= noise_sigma
    samples += clean
    return samples


def synth_fid(
    lines: list[SpectralLine],
    length: int,
    dwell_s: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> FidTrace:
    """Sum of decaying phasors plus complex Gaussian noise.

    s(t_j) = sum_l A_l exp(2*pi*i*nu_l*t_j) exp(-t_j / T2_l) + noise, with
    independent Gaussian noise of std `noise_sigma` on each of the real and
    imaginary parts, drawn from the counter-based stream of `seed`.
    """
    if not fourier.is_power_of_two(length) or length < 2:
        raise NotPowerOfTwo(f"trace length {length} is not a power of two >= 2")
    _check_noise_sigma(noise_sigma)
    _check_dwell(dwell_s)
    nyquist = 0.5 / dwell_s
    t = np.arange(length) * dwell_s
    samples = np.zeros(length, dtype=np.complex128)
    for line in lines:
        if abs(line.freq_hz) >= nyquist:
            raise LineAboveNyquist(
                f"line at {line.freq_hz} Hz is not below Nyquist {nyquist} Hz"
            )
        decay = np.exp(-t / line.t2_s) if math.isfinite(line.t2_s) else 1.0
        samples += line.amp * decay * np.exp(2j * np.pi * line.freq_hz * t)
    if noise_sigma > 0:
        samples = _add_noise(samples, noise_sigma, seed)
    return FidTrace(samples, dwell_s)


def fft(trace: FidTrace) -> Spectrum:
    """Forward transform (unnormalized) into the frequency domain."""
    length = len(trace.samples)
    return Spectrum(fourier.fft_forward(trace.samples), 1.0 / (length * trace.dwell_s))


def cat_average(traces: Iterable[FidTrace]) -> FidTrace:
    """Pointwise arithmetic mean of repeated acquisitions.

    Consumes `traces` as a stream, in order, holding only the running sum.
    Accumulates in extended precision so the sum is exact for up to ~2000
    shots; in particular, averaging identical traces reproduces them bit for
    bit instead of drifting by an ulp from double rounding.
    """
    stream = iter(traces)
    first = next(stream, None)
    if first is None:
        raise EmptyInput("cat_average needs at least one trace")
    total = np.zeros(len(first.samples), dtype=np.clongdouble)
    count = 0
    for trace in itertools.chain([first], stream):
        if len(trace.samples) != len(first.samples) or trace.dwell_s != first.dwell_s:
            raise LengthMismatch("all traces must share length and dwell")
        total += trace.samples
        count += 1
    mean = (total / count).astype(np.complex128)
    return FidTrace(mean, first.dwell_s)


def estimate_snr(
    spectrum: Spectrum,
    peak_window: tuple[int, int],
    noise_window: tuple[int, int],
    n_averages: int = 1,
) -> SnrReport:
    """Peak magnitude over a window divided by noise RMS over another.

    Windows are half-open bin ranges [start, stop); they must be non-empty,
    inside the spectrum, and disjoint. A peak, noise RMS or ratio that is not
    finite (the spectrum overflowed) raises OutOfRange.
    """
    mags = np.abs(spectrum.bins)
    for name, (start, stop) in (("peak", peak_window), ("noise", noise_window)):
        if stop <= start:
            raise EmptyWindow(f"{name} window [{start}, {stop}) is empty")
        if start < 0 or stop > len(mags):
            raise OutOfRange(f"{name} window [{start}, {stop}) outside spectrum")
    if peak_window[0] < noise_window[1] and noise_window[0] < peak_window[1]:
        raise WindowOverlap(f"windows {peak_window} and {noise_window} overlap")
    peak_mag = float(mags[peak_window[0]:peak_window[1]].max())
    noise_bins = mags[noise_window[0]:noise_window[1]]
    noise_rms = float(np.sqrt(np.mean(noise_bins * noise_bins)))
    if noise_rms < 1e-300:
        raise ZeroNoiseFloor("noise window RMS is zero")
    snr = peak_mag / noise_rms
    if not all(map(math.isfinite, (peak_mag, noise_rms, snr))):
        raise OutOfRange(f"SNR not finite: peak {peak_mag:g}, noise RMS {noise_rms:g}")
    return SnrReport(peak_mag, noise_rms, snr, n_averages)


# --- spin budget and enhancement bookkeeping --------------------------------

@dataclass(frozen=True)
class SpinBudget:
    """Ordered decade ledger; the first stage is the source population."""

    stages: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.stages:
            raise EmptyInput("budget needs at least one stage")


@dataclass(frozen=True)
class BudgetStage:
    label: str
    exponent: int  # cumulative decade exponent at this stage
    population: int | float  # exact int for exponent >= 0


DEFAULT_BUDGET = SpinBudget(
    stages=(
        ("avogadro", 23),
        ("sample_tube", -3),
        ("boltzmann", -6),
        ("solute", -3),
    )
)


# Cumulative exponents beyond +-300 leave the range of a normal float, and
# far beyond it the exact integer no longer prints (Python caps int-to-str
# conversion at 4300 digits); no physical spin count comes near either.
BUDGET_EXPONENT_LIMIT = 300


def spin_budget_chain(budget: SpinBudget = DEFAULT_BUDGET) -> list[BudgetStage]:
    """Running product of decades: stage populations 10^23 -> 10^20 -> ...

    Populations are exact integers whenever the cumulative exponent is
    non-negative (Python bigints, so 10**23 really is 10**23). A cumulative
    exponent beyond +-BUDGET_EXPONENT_LIMIT raises OutOfRange.
    """
    chain: list[BudgetStage] = []
    exponent = 0
    for label, decade in budget.stages:
        exponent += decade
        if abs(exponent) > BUDGET_EXPONENT_LIMIT:
            raise OutOfRange(
                f"stage {label!r} reaches 10^{exponent}, outside "
                f"10^-{BUDGET_EXPONENT_LIMIT} .. 10^{BUDGET_EXPONENT_LIMIT}"
            )
        population = 10**exponent if exponent >= 0 else 10.0**exponent
        chain.append(BudgetStage(label, exponent, population))
    return chain


def enhancement_report(n_register_spins: int) -> dict:
    """Register-size bookkeeping for the claimed signal enhancement.

    Reports the exact register state count 2^n and, at n = 14, echoes the
    claimed factor-of-10 enhancement together with a note that the claim's
    own spin-count arithmetic (2^14 -> 10^12) does not follow from
    2^14 = 16384. No derived physical enhancement is asserted.
    """
    if not 1 <= n_register_spins <= 64:
        raise OutOfRange(f"register spins {n_register_spins} outside [1, 64]")
    report = {
        "n_register_spins": n_register_spins,
        "register_states": 2**n_register_spins,
        "paper_claimed_factor_at_14": 10.0 if n_register_spins == 14 else None,
        "notes": [
            "register_states grows exactly as 2^n",
            "claimed mapping 2^14 -> 10^12 spins is internally inconsistent "
            "(2^14 = 16384); no enhancement formula is derived here",
        ],
    }
    return report


# --- Monte Carlo averaging experiment ----------------------------------------

DEFAULT_CAT_LENGTH = 256
DEFAULT_CAT_DWELL_S = 1e-3
DEFAULT_CAT_LINE = SpectralLine(freq_hz=125.0, amp=1.0, t2_s=math.inf)
DEFAULT_CAT_NOISE_SIGMA = 1.0
# Line at 125 Hz lands in bin 32 of 256; windows stay clear of it.
DEFAULT_PEAK_WINDOW = (30, 35)
DEFAULT_NOISE_WINDOW = (128, 224)
# Shots whose noise one vectorized hash and Box-Muller pass draws. 32 shots
# of 256 samples hash a 256 KiB block of words. At 64 shots glibc returns the
# 1 MiB of hash buffers to the system after each block, and faulting them back
# in made the study about 15% slower (2-vCPU Xeon, numpy 2.4.6).
_CAT_SHOT_BLOCK = 32


def cat_snr(
    n_shots: int,
    seed: int,
    line: SpectralLine = DEFAULT_CAT_LINE,
    noise_sigma: float = DEFAULT_CAT_NOISE_SIGMA,
    length: int = DEFAULT_CAT_LENGTH,
    dwell_s: float = DEFAULT_CAT_DWELL_S,
) -> float:
    """SNR of the average of n_shots noisy acquisitions of one line.

    Shot j draws its noise from the derived stream mix(seed, j), so any
    (seed, n_shots) pair is reproducible and shots never share noise. Shot j
    is bit-identical to ``synth_fid([line], length, dwell_s, noise_sigma,
    seed=rng.mix(seed, j))``, but the clean line is synthesized once and the
    noise of _CAT_SHOT_BLOCK shots is drawn in one pass; shots stream into
    `cat_average`, so no list of n_shots traces is held. A line whose bin,
    round(freq * length * dwell) mod length, misses DEFAULT_PEAK_WINDOW or
    lands in DEFAULT_NOISE_WINDOW raises OutOfRange.
    """
    _check_noise_sigma(noise_sigma)
    # overflow near the float limit is refused by estimate_snr, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        clean = synth_fid([line], length, dwell_s)
        averaged = cat_average(_cat_shots(clean, n_shots, seed, noise_sigma))
        spectrum = fft(averaged)
        _check_line_bin(line, length, dwell_s)
        report = estimate_snr(
            spectrum, DEFAULT_PEAK_WINDOW, DEFAULT_NOISE_WINDOW, n_averages=n_shots
        )
    return report.snr


def _check_line_bin(line: SpectralLine, length: int, dwell_s: float) -> None:
    """The SNR windows are fixed bins, so the line must fall in the peak
    window and clear of the noise window; else the SNR would measure noise."""
    line_bin = round(line.freq_hz * length * dwell_s) % length
    peak, noise = DEFAULT_PEAK_WINDOW, DEFAULT_NOISE_WINDOW
    if not peak[0] <= line_bin < peak[1] or noise[0] <= line_bin < noise[1]:
        raise OutOfRange(
            f"line at {line.freq_hz:g} Hz falls in bin {line_bin} of {length}, "
            f"outside the fixed peak window [{peak[0]}, {peak[1]})"
        )


def _cat_shots(
    clean: FidTrace, n_shots: int, seed: int, noise_sigma: float
) -> Iterator[FidTrace]:
    """The n_shots noisy copies of `clean`, shot j seeded by mix(seed, j)."""
    if noise_sigma == 0:
        yield from itertools.repeat(clean, n_shots)
        return
    seeds = rng.words(seed, n_shots)
    for lo in range(0, n_shots, _CAT_SHOT_BLOCK):
        block = _add_noise(clean.samples, noise_sigma, seeds[lo:lo + _CAT_SHOT_BLOCK, None])
        for samples in block:
            yield FidTrace(samples, clean.dwell_s)


def cat_experiment(
    n_list: list[int],
    n_seeds: int,
    master_seed: int = 0,
    line: SpectralLine = DEFAULT_CAT_LINE,
    noise_sigma: float = DEFAULT_CAT_NOISE_SIGMA,
    length: int = DEFAULT_CAT_LENGTH,
    dwell_s: float = DEFAULT_CAT_DWELL_S,
) -> list[tuple[int, float, float]]:
    """Mean and std of SNR at each averaging count N over n_seeds repeats."""
    rows = []
    for n_shots in n_list:
        level = rng.mix(master_seed, n_shots)  # two-level derivation: no reuse across N
        snrs = np.array(
            [
                cat_snr(
                    n_shots,
                    seed=rng.mix(level, i),
                    line=line,
                    noise_sigma=noise_sigma,
                    length=length,
                    dwell_s=dwell_s,
                )
                for i in range(n_seeds)
            ]
        )
        rows.append((n_shots, float(snrs.mean()), float(snrs.std())))
    return rows


def loglog_slope(rows: list[tuple[int, float, float]]) -> float | None:
    """OLS slope of log(mean snr) against log(N); None below two distinct N."""
    if len({n for n, _, _ in rows}) < 2:
        return None
    x = np.log([n for n, _, _ in rows])
    y = np.log([mean for _, mean, _ in rows])
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))

