"""Engine-run transforms against the O(L^2) definition and np.fft, round
trips, Parseval."""

import numpy as np
import pytest

from spinwhiten import errors
from spinwhiten.fourier import (
    bit_reverse_indices,
    fft_forward,
    fft_inverse,
    is_power_of_two,
)
from spinwhiten.qft import qft_circuit
from spinwhiten.statevector import compile_circuit, memory_index
from oracles import naive_dft, naive_idft


def _random_trace(length, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=length) + 1j * rng.normal(size=length)


def test_impulse_spreads_flat():
    np.testing.assert_allclose(fft_forward(np.array([1, 0, 0, 0])), np.ones(4), atol=1e-15)


def test_constant_concentrates_in_dc_bin():
    np.testing.assert_allclose(fft_forward(np.ones(4)), [4, 0, 0, 0], atol=1e-15)


def test_single_tone_lands_in_its_bin():
    length = 16
    x = np.exp(2j * np.pi * 3 * np.arange(length) / length)
    spectrum = fft_forward(x)
    assert abs(spectrum[3]) == pytest.approx(length, rel=1e-12)
    others = np.abs(np.delete(spectrum, 3))
    assert others.max() <= 1e-12 * length


@pytest.mark.parametrize("length", [2, 4, 8, 64, 256, 1024])
def test_matches_naive_dft(length):
    x = _random_trace(length, seed=length)
    want = naive_dft(x)
    got = fft_forward(x)
    assert np.abs(got - want).max() / np.abs(want).max() <= 1e-9


@pytest.mark.parametrize("bits", range(1, 21))
def test_matches_numpy_fft(bits):
    # np.fft shares no code with the register engine, and reaches the sizes
    # the O(L^2) oracle cannot
    x = _random_trace(1 << bits, seed=bits + 100)
    for got, want in ((fft_forward(x), np.fft.fft(x)), (fft_inverse(x), np.fft.ifft(x))):
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-14


def test_length_one_is_identity():
    x = np.array([0.75 - 2.5j])
    assert np.array_equal(fft_forward(x), x)
    assert np.array_equal(fft_inverse(x), x)


def test_refuses_more_than_2_30_points_before_allocating():
    # a zero-stride view: 2**31 points that take 16 bytes of memory
    x = np.broadcast_to(np.complex128(1.0), (1 << 31,))
    with pytest.raises(errors.QubitCountExceeded):
        fft_forward(x)
    with pytest.raises(errors.QubitCountExceeded):
        fft_inverse(x)


def test_inverse_matches_naive_idft():
    x = _random_trace(128, seed=5)
    np.testing.assert_allclose(fft_inverse(x), naive_idft(x), atol=1e-10)


@pytest.mark.parametrize("length", [2, 8, 128, 4096, 1 << 16])
def test_round_trip(length):
    x = _random_trace(length, seed=length + 1)
    back = fft_inverse(fft_forward(x))
    assert np.abs(back - x).max() / np.abs(x).max() <= 1e-9


@pytest.mark.parametrize("length", [4, 256, 1 << 14])
def test_parseval(length):
    x = _random_trace(length, seed=length + 2)
    spectrum = fft_forward(x)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(spectrum) ** 2) / length
    assert abs(time_energy - freq_energy) / time_energy <= 1e-9


def test_input_left_untouched():
    x = _random_trace(32, seed=9)
    snapshot = x.copy()
    fft_forward(x)
    assert np.array_equal(x, snapshot)


def test_rejects_non_power_of_two():
    with pytest.raises(errors.OutOfRange, match="length 12 is not a power of two"):
        fft_forward(np.zeros(12))
    with pytest.raises(errors.OutOfRange, match="length 0 is not a power of two"):
        fft_forward(np.zeros(0))


def test_bit_reverse_indices_known_case():
    assert bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


@pytest.mark.parametrize("bits", range(1, 13))
def test_bit_reverse_is_the_transform_readout(bits):
    # the inverse transform's swap layer leaves the qubit order reversed
    _, order = compile_circuit(qft_circuit(bits, inverse=True), tuple(range(bits)))
    assert np.array_equal(bit_reverse_indices(1 << bits), memory_index(order))


def test_bit_reverse_is_involution():
    rev = bit_reverse_indices(64)
    assert np.array_equal(rev[rev], np.arange(64))


def test_is_power_of_two():
    assert [is_power_of_two(k) for k in (1, 2, 3, 4, 12, 16)] == [
        True, True, False, True, False, True,
    ]
