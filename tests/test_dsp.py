import numpy as np
import pytest

from audioanom.audio_io import AudioBuffer
from audioanom.dsp import (
    dft,
    frame_signal,
    hann_window,
    idft,
    power_spectrogram,
)
from audioanom.errors import NFftNotPowerOfTwo

from oracles import naive_dft


def test_hann_endpoints_and_midpoints():
    for n in (8, 16, 400):
        w = hann_window(n)
        assert w[0] == 0.0
        assert w[n // 2] == pytest.approx(1.0)
    assert hann_window(8)[2] == pytest.approx(0.5)


def test_dft_impulse():
    np.testing.assert_allclose(dft([1, 0, 0, 0], 4), np.ones(4), atol=1e-12)


def test_dft_constant_is_dc_only():
    np.testing.assert_allclose(dft([1, 1, 1, 1], 4), [4, 0, 0, 0], atol=1e-12)


def test_dft_bin_aligned_cosine():
    x = np.cos(2 * np.pi * np.arange(8) / 8)
    X = dft(x, 8)
    expected = np.zeros(8, dtype=complex)
    expected[1] = expected[7] = 4.0
    np.testing.assert_allclose(X, expected, atol=1e-9)


def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for n_fft in (8, 32, 64):
        x = rng.normal(size=n_fft)
        np.testing.assert_allclose(dft(x, n_fft), naive_dft(x, n_fft),
                                   atol=1e-9)


def test_dft_zero_padding_matches_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=20)
    np.testing.assert_allclose(dft(x, 32), naive_dft(x, 32), atol=1e-9)


def test_dft_requires_power_of_two():
    with pytest.raises(NFftNotPowerOfTwo):
        dft([1, 2, 3], 6)


def test_dft_round_trip():
    rng = np.random.default_rng(13)
    x = rng.normal(size=64)
    np.testing.assert_allclose(idft(dft(x, 64)), x, atol=1e-9)


def test_dft_invariants_on_random_frames():
    # Parseval, linearity, conjugate symmetry on 1000 random frames
    rng = np.random.default_rng(14)
    n_fft = 64
    for _ in range(1000):
        x = rng.normal(size=n_fft)
        y = rng.normal(size=n_fft)
        X, Y = dft(x, n_fft), dft(y, n_fft)

        time_energy = np.sum(x ** 2)
        freq_energy = np.sum(np.abs(X) ** 2) / n_fft
        assert abs(freq_energy - time_energy) <= 1e-6 * time_energy

        a, b = 2.5, -0.7
        np.testing.assert_allclose(dft(a * x + b * y, n_fft),
                                   a * X + b * Y, atol=1e-9)

        np.testing.assert_allclose(X[1:], np.conj(X[1:][::-1]), atol=1e-9)


@pytest.mark.parametrize("sig_len,expected", [(400, 4), (160, 1), (159, 0)])
def test_frame_counts(sig_len, expected):
    buf = AudioBuffer(np.ones(sig_len), 16000)
    fm = frame_signal(buf, frame_len=160, hop=80)
    assert fm.frames.shape == (expected, 160)


def _hann_power(frame, n_fft):
    """|DFT|^2 of the Hann-windowed frame zero-padded to n_fft, bins
    0 .. n_fft/2, by direct summation."""
    windowed = np.asarray(frame) * hann_window(len(frame))
    return np.abs(naive_dft(windowed, n_fft)[:n_fft // 2 + 1]) ** 2


def test_frame_positions_and_window():
    # frames are a read-only view of the samples; power_spectrogram, not
    # frame_signal, applies the Hann window
    x = np.arange(400, dtype=float)
    fm = frame_signal(AudioBuffer(x, 16000), 160, 80)
    np.testing.assert_array_equal(fm.frames[2], x[160:320])
    assert not fm.frames.flags.writeable
    np.testing.assert_allclose(power_spectrogram(fm, 256)[2],
                               _hann_power(x[160:320], 256), rtol=1e-9,
                               atol=1e-6)


def test_spectrogram_zero_frame():
    fm = frame_signal(AudioBuffer(np.zeros(16), 16000), 8, 8)
    np.testing.assert_array_equal(power_spectrogram(fm, 8), 0.0)


def test_spectrogram_constant_frame():
    # the periodic Hann window of 8 sums to 4 and has DFT -2 at bin 1
    fm = frame_signal(AudioBuffer(np.ones(8), 16000), 8, 8)
    power = power_spectrogram(fm, 8)
    np.testing.assert_allclose(power[0], _hann_power(np.ones(8), 8),
                               atol=1e-12)
    np.testing.assert_allclose(power[0], [16.0, 4.0, 0.0, 0.0, 0.0],
                               atol=1e-12)


def test_spectrogram_bin_aligned_cosine_power():
    x = np.cos(2 * np.pi * np.arange(8) / 8)
    fm = frame_signal(AudioBuffer(x, 16000), 8, 8)
    power = power_spectrogram(fm, 8)
    np.testing.assert_allclose(power[0], _hann_power(x, 8), atol=1e-12)
    assert power[0, 1] == pytest.approx(4.0)


def test_spectrogram_power_and_shape():
    # row i is |DFT|^2 of Hann-windowed frame i zero-padded to n_fft, bins
    # 0 .. n_fft/2
    rng = np.random.default_rng(15)
    buf = AudioBuffer(rng.normal(size=2000), 16000)
    fm = frame_signal(buf, 400, 160)
    assert power_spectrogram(fm, 512).shape == (fm.frames.shape[0], 257)
    small = frame_signal(buf, 24, 160)
    power = power_spectrogram(small, 32)
    assert power.shape == (13, 17)
    for frame, row in zip(small.frames, power):
        np.testing.assert_allclose(row, _hann_power(frame, 32),
                                   rtol=1e-9, atol=1e-12)


def test_bin_frequency_mapping():
    # bin b of an n_fft-point spectrum at 16 kHz is b * 16000 / n_fft Hz
    t = np.arange(512) / 16000
    fm = frame_signal(AudioBuffer(np.cos(2 * np.pi * 500.0 * t), 16000),
                      512, 512)
    assert np.argmax(power_spectrogram(fm, 512)[0]) == 16
