"""Classical Monte Carlo model of the target spins.

An ensemble is a value (count, seed, stage); it stores no per-spin array.
A 90-degree pulse moves a longitudinal ensemble into the transverse plane,
every spin at phase 0. Gradient whitening then gives spin k the phase
2*pi*gamma_k with gamma_k = uniform01(mix(seed, k)): a pure function of
(seed, k) on the counter-based stream, so it is recomputed when read rather
than stored. The receiver observable is the coherent mean of unit phasors,
which whitening drives to O(1/sqrt(M)) — the reason a whitened ensemble
yields no conventional signal.

The phasor kernel (`rng.phasor_factors`) calls no per-spin cos/sin: a
2^12-entry table of exp(2*pi*i*j/2^12) supplies the nearest grid angle and a
short Taylor polynomial rotates by the residual (at most pi/2^12 rad), the
table-driven scheme of Tang (ACM TOMS 1989); `qft.phase_encode_block` takes
a register's n phasors from it, and `rng.normals` its Box-Muller cosines.
`phasor_sum` sums its phasors, and `receiver_signal` streams the whitened
phases into that sum 8192 spins at a time, so memory stays flat in M.
Measured against the explicit cos/sin sum, the mean agrees within 6e-18, and
a freshly pulsed ensemble reads exactly 1.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import NotTransverse, OutOfRange
from .rng import TWO_PI, phasor_factors

# phasor_sum: spins per block (the block's buffers, ~0.5 MB, stay in L2), and
# the |phase| above which an exact fmod runs first (so rint(phi / step) stays
# far inside int64 and the residual angle inside the polynomial's range).
_BLOCK = 8192
_REDUCE_ABOVE = 2.0 ** 20


class Stage(enum.Enum):
    """Where an ensemble's spins are: the three states the pulse sequence visits."""

    LONGITUDINAL = "longitudinal"  # along z: no transverse signal
    TRANSVERSE = "transverse"  # tipped, every phase 0
    WHITENED = "whitened"  # tipped, spin k at phase 2*pi*gamma_k


@dataclass(frozen=True)
class SpinEnsemble:
    """M classical spins as a value: count, whitening stream seed and stage.

    `seed` identifies the whitening stream: spin k receives
    gamma_k = uniform01(mix(seed, k)), independent of every other spin.
    """

    count: int
    seed: int = 0
    stage: Stage = Stage.LONGITUDINAL

    def __post_init__(self):
        if self.count < 1:
            raise OutOfRange(f"spin count must be >= 1, got {self.count}")

    @classmethod
    def longitudinal(cls, count: int, seed: int) -> "SpinEnsemble":
        """Fresh thermal ensemble: every spin along z."""
        return cls(count, seed)

    def __len__(self) -> int:
        return self.count


def pulse90(ensemble: SpinEnsemble) -> SpinEnsemble:
    """Tip longitudinal spins into the transverse plane at phase 0.

    Already-transverse spins keep their phase, so the pulse is idempotent in
    this model.
    """
    if ensemble.stage is Stage.LONGITUDINAL:
        return replace(ensemble, stage=Stage.TRANSVERSE)
    return ensemble


def gz_whiten(ensemble: SpinEnsemble) -> tuple[SpinEnsemble, float]:
    """Randomize every transverse phase to 2*pi*gamma_k, gamma_k ~ U[0, 1).

    Returns the whitened ensemble and gamma_0, spin 0's phase fraction, which
    downstream phase encoding consumes. Requires a transverse ensemble: a
    gradient pulse cannot whiten longitudinal spins.
    """
    if ensemble.stage is Stage.LONGITUDINAL:
        raise NotTransverse("gz_whiten requires every spin in the transverse plane")
    gamma0 = rng.uniform01(rng.mix(ensemble.seed, 0))
    return replace(ensemble, stage=Stage.WHITENED), gamma0


def with_seed(ensemble: SpinEnsemble, seed: int) -> SpinEnsemble:
    """Same spins, different whitening stream."""
    return replace(ensemble, seed=seed)


def receiver_signal(ensemble: SpinEnsemble) -> complex:
    """Coherent coil observable: (1/M) * sum_k exp(i*phi_k).

    A longitudinal ensemble reads 0 and a freshly pulsed one exactly 1. For a
    whitened ensemble the phases 2*pi*gamma_k are hashed one block of 8192
    spins at a time and streamed into the `phasor_sum` kernel, so no
    M-length array is built.
    """
    if ensemble.stage is Stage.LONGITUDINAL:
        return 0j
    if ensemble.stage is Stage.TRANSVERSE:
        return 1 + 0j
    seed, count = ensemble.seed, ensemble.count
    blocks = (rng.uniforms(seed, min(_BLOCK, count - start), start) * TWO_PI
              for start in range(0, count, _BLOCK))
    return _sum_phasor_blocks(blocks) / count


def phasor_sum(phase: np.ndarray) -> complex:
    """sum_k exp(i*phase_k) over a float64 array of radians.

    Each phase is split as phi = a * 2*pi/2^12 + r with a = rint(phi * 2^12
    / (2*pi)): exp(i*phi) is the table entry for a mod 2^12 times
    cos r + i sin r, with cos r = 1 - r^2/2 + r^4/24 and sin r = r - r^3/6
    (truncation below 3e-18 for |r| <= pi/2^12). Spins are summed in blocks
    of 8192 with four `np.dot` products per block. Phases beyond 2^20 rad
    are first reduced exactly by `np.fmod`; each phasor is then
    exp(i*(phi + e)) with |e| <= 2^-52*|phi| + 1e-15. Against the explicit
    `math.fsum` of cos/sin the mean differed by at most 6e-18 over eleven
    whitened 10^6-spin ensembles and ten draws of 10^6 phases from
    [-50, 50] rad. All-zero phases sum to exactly len(phase).
    """
    phase = np.asarray(phase, dtype=np.float64)
    return _sum_phasor_blocks(phase[start:start + _BLOCK]
                              for start in range(0, len(phase), _BLOCK))


def _sum_phasor_blocks(blocks: Iterable[np.ndarray]) -> complex:
    """The `phasor_sum` kernel over a stream of blocks of at most _BLOCK phases.

    Every block reuses the same preallocated buffers. Temporaries made and
    freed per block would be trimmed from the top of the heap by glibc and
    faulted back in on the next block: about 10^4 page faults and 20 ms per
    10^6 spins in a fresh process.
    """
    buffers = np.empty((7, _BLOCK))
    indices = np.empty(_BLOCK, dtype=np.intp)
    re = im = 0.0
    for phase in blocks:
        if phase.max(initial=0.0) > _REDUCE_ABOVE or phase.min(initial=0.0) < -_REDUCE_ABOVE:
            phase = np.fmod(phase, TWO_PI)
        table_cos, table_sin, cos_r, sin_r = phasor_factors(phase, buffers, indices)
        re += np.dot(table_cos, cos_r) - np.dot(table_sin, sin_r)
        im += np.dot(table_sin, cos_r) + np.dot(table_cos, sin_r)
    return complex(re, im)
