"""Conventional-acquisition baseline and bookkeeping.

Synthesizes free-induction-decay traces from spectral lines plus complex
Gaussian noise, transforms them with `fourier.fft_forward` (the register
engine's inverse quantum Fourier transform, scaled by sqrt(L)), averages
repeated shots (noise falls as sqrt(N)), and measures SNR as spectral peak
magnitude over the RMS of a signal-free window. One helper turns 2L
standard normals into a noisy trace, clean + sigma * noise, in the normals'
own buffer, noise sample j being Box-Muller pair j, draws 2j and 2j+1, read
as one complex number: a `synth_fid` trace from its seed's `rng.normals`,
and the averaging study's shots from the rows of each `rng.normal_blocks`
block. Every shot stays bit-identical to a `synth_fid` call with that
shot's seed, and the average sums the blocks' rows in shot order.
Also carries the spin-budget decade arithmetic and the register-size
enhancement report.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import fourier, rng
from .errors import OutOfRange


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


def _check_noise_sigma(noise_sigma: float) -> None:
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise OutOfRange(f"noise sigma must be finite and >= 0, got {noise_sigma}")


def _noisy(draws: np.ndarray, clean: np.ndarray, noise_sigma: float) -> np.ndarray:
    """clean + noise_sigma * draws.view(complex128), written over the float64
    `draws` and returned as that complex view: noise sample j is draw pair j,
    draw 2j its real part and draw 2j+1 its imaginary part."""
    draws *= noise_sigma
    noisy = draws.view(np.complex128)
    noisy += clean
    return noisy


def synth_fid(
    lines: list[SpectralLine],
    length: int,
    dwell_s: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Complex samples s(t_j), t_j = j * dwell_s: decaying phasors plus noise.

    s(t_j) = sum_l A_l exp(2*pi*i*nu_l*t_j) exp(-t_j / T2_l) + noise, with
    independent Gaussian noise of std `noise_sigma` on each of the real and
    imaginary parts: noise sample j is pair j of the counter-based normal
    stream of `seed`, draw 2j its real part and draw 2j+1 its imaginary part.
    """
    if not fourier.is_power_of_two(length) or length < 2:
        raise OutOfRange(f"trace length {length} is not a power of two >= 2")
    _check_noise_sigma(noise_sigma)
    if not (math.isfinite(dwell_s) and dwell_s > 0):
        raise OutOfRange(f"dwell must be finite and > 0, got {dwell_s}")
    nyquist = 0.5 / dwell_s
    t = np.arange(length) * dwell_s
    samples = np.zeros(length, dtype=np.complex128)
    for line in lines:
        if abs(line.freq_hz) >= nyquist:
            raise OutOfRange(
                f"line at {line.freq_hz} Hz is not below Nyquist {nyquist} Hz"
            )
        decay = np.exp(-t / line.t2_s)  # exactly 1.0 for T2 = inf
        samples += line.amp * decay * np.exp(2j * np.pi * line.freq_hz * t)
    if noise_sigma > 0:
        samples = _noisy(rng.normals(seed, 2 * length), samples, noise_sigma)
    return samples


def fft(samples: np.ndarray) -> np.ndarray:
    """Forward transform (unnormalized): bin k sits at k / (L * dwell) Hz."""
    return fourier.fft_forward(samples)


def cat_average(shots: Iterable[np.ndarray]) -> np.ndarray:
    """Pointwise arithmetic mean of repeated acquisitions.

    `shots` yields (B, L) blocks of traces, none longer than the first,
    consumed as a stream holding only the running sum. Rows are added in
    shot order (a sequential in-place `np.add.accumulate` over the sum
    stacked on the block, in one stack sized by the first block and reused
    for every block) in extended precision, exact for up to ~2000 shots:
    identical traces average to themselves bit for bit instead of drifting
    by an ulp.
    """
    stack, count = None, 0
    for rows in shots:
        if stack is None:
            stack = np.zeros((len(rows) + 1, rows.shape[1]), dtype=np.clongdouble)
        part = stack[:len(rows) + 1]  # row 0 holds the running sum
        part[1:] = rows
        np.add.accumulate(part, axis=0, out=part)
        stack[0] = part[-1]
        count += len(rows)
    if not count:
        raise OutOfRange("cat_average needs at least one trace")
    return (stack[0] / count).astype(np.complex128)


def estimate_snr(
    bins: np.ndarray,
    peak_window: tuple[int, int],
    noise_window: tuple[int, int],
) -> float:
    """Peak magnitude over a window divided by noise RMS over another.

    Windows are half-open bin ranges [start, stop); they must be non-empty,
    inside the spectrum, and disjoint. A peak or noise RMS that is not finite
    (the spectrum overflowed) raises OutOfRange, and so does a noise RMS at
    or below 64 eps of the peak (about 1.4e-14): the transform's own
    rounding leaves about 3e-16 of the peak in every bin, so such a floor
    measures rounding, not noise.
    """
    mags = np.abs(bins)
    for name, (start, stop) in (("peak", peak_window), ("noise", noise_window)):
        if stop <= start:
            raise OutOfRange(f"{name} window [{start}, {stop}) is empty")
        if start < 0 or stop > len(mags):
            raise OutOfRange(f"{name} window [{start}, {stop}) outside spectrum")
    if peak_window[0] < noise_window[1] and noise_window[0] < peak_window[1]:
        raise OutOfRange(f"windows {peak_window} and {noise_window} overlap")
    peak_mag = float(mags[peak_window[0]:peak_window[1]].max())
    noise_bins = mags[noise_window[0]:noise_window[1]]
    exponent = math.frexp(float(noise_bins.max()))[1]  # scaled squares cannot overflow
    noise_rms = math.ldexp(float(np.sqrt(np.mean(np.ldexp(noise_bins, -exponent) ** 2))), exponent)
    if not (math.isfinite(peak_mag) and math.isfinite(noise_rms)):
        raise OutOfRange(f"SNR not finite: peak {peak_mag:g}, noise RMS {noise_rms:g}")
    if noise_rms <= 64 * np.finfo(np.float64).eps * peak_mag:
        raise OutOfRange(f"noise window RMS {noise_rms:g} is rounding error "
                         f"of the peak {peak_mag:g}, not noise")
    return peak_mag / noise_rms


# --- spin budget and enhancement bookkeeping --------------------------------

@dataclass(frozen=True)
class BudgetStage:
    label: str
    exponent: int  # cumulative decade exponent at this stage
    population: int | float  # exact int for exponent >= 0


DEFAULT_STAGES = (
    ("avogadro", 23),
    ("sample_tube", -3),
    ("boltzmann", -6),
    ("solute", -3),
)


# Cumulative exponents beyond +-300 leave the range of a normal float, and
# far beyond it the exact integer no longer prints (Python caps int-to-str
# conversion at 4300 digits); no physical spin count comes near either.
BUDGET_EXPONENT_LIMIT = 300


def spin_budget_chain(stages: tuple[tuple[str, int], ...] = DEFAULT_STAGES) -> list[BudgetStage]:
    """Running product of decades: stage populations 10^23 -> 10^20 -> ...

    `stages` holds (label, decade) pairs, as in DEFAULT_STAGES. Populations
    are exact integers whenever the cumulative exponent is non-negative
    (Python bigints, so 10**23 really is 10**23). No stage, or a cumulative
    exponent beyond +-BUDGET_EXPONENT_LIMIT, raises OutOfRange.
    """
    if not stages:
        raise OutOfRange("budget needs at least one stage")
    chain: list[BudgetStage] = []
    exponent = 0
    for label, decade in stages:
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
    return {
        "n_register_spins": n_register_spins,
        "register_states": 2**n_register_spins,
        "paper_claimed_factor_at_14": 10.0 if n_register_spins == 14 else None,
        "notes": [
            "register_states grows exactly as 2^n",
            "claimed mapping 2^14 -> 10^12 spins is internally inconsistent "
            "(2^14 = 16384); no enhancement formula is derived here",
        ],
    }


# --- Monte Carlo averaging experiment ----------------------------------------

DEFAULT_CAT_LENGTH = 256
DEFAULT_CAT_DWELL_S = 1e-3
DEFAULT_CAT_LINE = SpectralLine(freq_hz=125.0, amp=1.0, t2_s=math.inf)
DEFAULT_CAT_NOISE_SIGMA = 1.0
# Line at 125 Hz lands in bin 32 of 256; windows stay clear of it.
DEFAULT_PEAK_WINDOW = (30, 35)
DEFAULT_NOISE_WINDOW = (128, 224)
# Shots per `rng.normal_blocks` block. rng's workspace for one block, 0.75 MiB
# for 24 shots of 256 samples (the noisy traces are built in its first row),
# and the `cat_average` stack, 8 KiB per shot, are allocated once per call.
# Over default `cat` tasks in one process (2-vCPU Xeon, numpy 2.4.6), blocks
# of 16, 24, 32 and 64 shots came within 6% of each other in CPU time (64
# fastest), but raised the peak RSS over that of the per-block allocations
# they replaced by 0.1, 0.3, 0.8 and 2.3 MB: 24 is the largest of them that
# adds less than 0.5 MB.
_CAT_SHOT_BLOCK = 24


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
    seed=rng.mix(seed, j))``, but the clean line is synthesized once, and
    the normals of _CAT_SHOT_BLOCK shots come as one block of
    `rng.normal_blocks`, turned into noisy traces in place, which
    `cat_average` consumes. No array grows with n_shots, and without noise
    the shots are the clean line itself. A line whose bin,
    round(freq * length * dwell) mod length, misses DEFAULT_PEAK_WINDOW or
    lands in DEFAULT_NOISE_WINDOW raises OutOfRange before any shot is drawn.
    """
    _check_noise_sigma(noise_sigma)
    # overflow near the float limit is refused by estimate_snr, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        clean = synth_fid([line], length, dwell_s)
        _check_line_bin(line, length, dwell_s)
        shots = (_noisy(draws, clean, noise_sigma) for draws
                 in rng.normal_blocks(seed, n_shots, 2 * length, _CAT_SHOT_BLOCK))
        return estimate_snr(fft(cat_average(shots)), DEFAULT_PEAK_WINDOW, DEFAULT_NOISE_WINDOW)


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

