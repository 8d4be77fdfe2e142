import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audioanom.audio_io import AudioBuffer
from audioanom.errors import LengthMismatch, TooShortForProfile
from audioanom.preprocess import (
    PAD_DROP_LAST,
    PAD_ZERO_LAST,
    n_segments,
    nlms_cancel,
    normalize,
    segment,
    spectral_subtract,
)

from oracles import (half_padded_stft_frames, loop_noise_profile,
                     loop_spectral_subtract)

SR = 16000
N_FFT = 512
LEAD_MS = 250.0
LEAD = SR // 4   # LEAD_MS in samples at SR


def _snr_db(clean, noisy):
    noise = noisy - clean
    return 10 * np.log10(np.sum(clean ** 2) / np.sum(noise ** 2))


def _close_to(out, expected, x):
    return np.all(np.abs(out - expected) <= 1e-12 * np.maximum(1.0, np.abs(x)))


# --- the noise profile inside spectral_subtract ---

def test_profile_of_silence_is_zero():
    # a silent lead gives N = 0, so no gain is below 1 and even a large
    # alpha passes the noisy rest of the clip through
    rng = np.random.default_rng(3)
    x = np.concatenate([np.zeros(LEAD), rng.uniform(-0.5, 0.5, SR - LEAD)])
    np.testing.assert_array_equal(loop_noise_profile(x, LEAD, N_FFT), 0.0)
    out = spectral_subtract(AudioBuffer(x, SR), LEAD_MS, N_FFT, alpha=10.0,
                            beta=0.01)
    np.testing.assert_allclose(out.samples, x, atol=1e-6)


def test_profile_too_short():
    buf = AudioBuffer(np.zeros(SR), SR)
    with pytest.raises(TooShortForProfile,
                       match="need at least 512 samples of leading noise, "
                             "got 160"):
        spectral_subtract(buf, 10.0, N_FFT, 2.0, 0.01)  # 160 < one frame
    with pytest.raises(TooShortForProfile, match="got 500"):
        spectral_subtract(AudioBuffer(np.zeros(500), SR), 1000.0, N_FFT,
                          2.0, 0.01)   # the lead stops at the clip's end


# --- spectral_subtract ---

def test_alpha_zero_is_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, size=SR)
    buf = AudioBuffer(x, SR)
    out = spectral_subtract(buf, LEAD_MS, N_FFT, alpha=0.0, beta=0.01)
    assert len(out) == len(buf)
    np.testing.assert_allclose(out.samples, x, atol=1e-6)


def test_beta_one_is_identity():
    # the floor beta * M equals M, so every gain is 1 whatever alpha is
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, size=SR)
    out = spectral_subtract(AudioBuffer(x, SR), LEAD_MS, N_FFT, alpha=2.0,
                            beta=1.0)
    assert len(out) == len(x)
    np.testing.assert_allclose(out.samples, x, rtol=0, atol=1e-12)


def test_silence_in_silence_out():
    buf = AudioBuffer(np.zeros(SR), SR)
    out = spectral_subtract(buf, LEAD_MS, N_FFT, alpha=2.0, beta=0.01)
    np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)
    assert np.all(np.isfinite(out.samples))


def test_snr_improvement_on_noisy_tone():
    # 1 kHz tone + white noise at 0 dB SNR; profile from a noise-only lead
    rng = np.random.default_rng(42)
    n = 2 * SR
    lead = SR // 2
    t = np.arange(n - lead) / SR
    tone = 0.1 * np.sin(2 * np.pi * 1000.0 * t)
    tone_rms = np.sqrt(np.mean(tone ** 2))
    noise = rng.normal(0, tone_rms, size=n)  # 0 dB SNR over the tone span

    clean = np.zeros(n)
    clean[lead:] = tone
    noisy = clean + noise

    out = spectral_subtract(AudioBuffer(noisy, SR), lead / SR * 1000.0,
                            N_FFT, alpha=2.0, beta=0.01)
    before = _snr_db(clean[lead:], noisy[lead:])
    after = _snr_db(clean[lead:], out.samples[lead:])
    assert after - before >= 5.0


def test_magnitude_floor_invariant_per_frame():
    # M' >= beta*M and M' <= M on every frame for randomized inputs
    rng = np.random.default_rng(5)
    beta = 0.01
    for _ in range(5):
        x = rng.normal(0, 0.2, size=SR)
        buf = AudioBuffer(x, SR)
        noise = loop_noise_profile(x, LEAD, N_FFT)
        frames = half_padded_stft_frames(x, N_FFT)
        mag = np.abs(np.fft.rfft(frames, axis=1))
        new_mag = np.maximum(mag - 2.0 * noise, beta * mag)
        assert np.all(new_mag >= beta * mag - 1e-12)
        assert np.all(new_mag <= mag + 1e-12)

        out = spectral_subtract(buf, LEAD_MS, N_FFT, alpha=2.0, beta=beta)
        assert np.all(np.isfinite(out.samples))


@pytest.mark.parametrize("n", [512, 513, 1000, 32007])
def test_spectral_subtract_matches_loop_reference(n):
    # leads of exactly one frame, of 11 frames, of the whole clip and of
    # twice the clip, which stops at the clip's end
    rng = np.random.default_rng(n)
    x = rng.normal(0, 0.3, size=n)
    buf = AudioBuffer(x, SR)
    for lead in (N_FFT, N_FFT + 10 * (N_FFT // 2), n, 2 * n):
        if min(lead, n) < N_FFT:
            continue
        noise = loop_noise_profile(x, lead, N_FFT)
        for alpha, beta in ((2.0, 0.01), (0.5, 0.2), (0.0, 0.01)):
            out = spectral_subtract(buf, 1000.0 * lead / SR, N_FFT,
                                    alpha=alpha, beta=beta)
            expected = loop_spectral_subtract(x, noise, alpha, beta, N_FFT)
            assert len(out) == n
            assert _close_to(out.samples, expected, x)


def test_spectral_subtract_uses_profile_n_fft():
    # n_fft = 256 makes 256-point frames, not the default 512
    rng = np.random.default_rng(256)
    x = rng.normal(0, 0.3, size=SR // 4)
    buf = AudioBuffer(x, SR)
    noise = loop_noise_profile(x, SR // 10, 256)
    assert noise.shape == (129,)
    out = spectral_subtract(buf, 100.0, 256, alpha=2.0, beta=0.01)
    expected = loop_spectral_subtract(x, noise, 2.0, 0.01, 256)
    assert len(out) == len(x)
    assert _close_to(out.samples, expected, x)


@settings(max_examples=60, deadline=None)
@given(log2_n_fft=st.integers(3, 9), n=st.integers(1, 3000),
       lead=st.integers(0, 4000), alpha=st.floats(0.0, 4.0),
       beta=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_spectral_subtract_matches_loop_reference_on_random_inputs(
        log2_n_fft, n, lead, alpha, beta, seed):
    n_fft = 2 ** log2_n_fft
    x = np.random.default_rng(seed).normal(0, 0.3, size=n)
    buf = AudioBuffer(x, SR)
    lead_ms = 1000.0 * lead / SR
    if min(lead, n) < n_fft:
        with pytest.raises(TooShortForProfile):
            spectral_subtract(buf, lead_ms, n_fft, alpha, beta)
        return
    out = spectral_subtract(buf, lead_ms, n_fft, alpha, beta)
    noise = loop_noise_profile(x, lead, n_fft)
    assert len(out) == n
    assert _close_to(out.samples,
                     loop_spectral_subtract(x, noise, alpha, beta, n_fft), x)


# --- nlms_cancel ---

def test_nlms_zero_reference_is_identity():
    rng = np.random.default_rng(1)
    primary = AudioBuffer(rng.normal(size=1000), SR)
    reference = AudioBuffer(np.zeros(1000), SR)
    cleaned, state = nlms_cancel(primary, reference, mu=0.5, taps=8)
    np.testing.assert_array_equal(cleaned.samples, primary.samples)
    np.testing.assert_array_equal(state.weights, 0.0)


def test_nlms_tiny_mu_near_identity():
    rng = np.random.default_rng(2)
    primary = AudioBuffer(rng.normal(size=500), SR)
    reference = AudioBuffer(rng.normal(size=500), SR)
    cleaned, _ = nlms_cancel(primary, reference, mu=1e-9, taps=8)
    np.testing.assert_allclose(cleaned.samples, primary.samples, atol=1e-6)


def test_nlms_length_mismatch():
    with pytest.raises(LengthMismatch):
        nlms_cancel(AudioBuffer(np.zeros(10), SR),
                    AudioBuffer(np.zeros(11), SR))


def _misalignment_db(w, w_true):
    pad = np.zeros(max(len(w), len(w_true)))
    a, b = pad.copy(), pad.copy()
    a[:len(w)] = w
    b[:len(w_true)] = w_true
    # tiny floor keeps log10 finite when convergence is exact
    return 10 * np.log10(np.sum((a - b) ** 2) / np.sum(b ** 2) + 1e-300)


def test_nlms_identifies_known_fir():
    # primary = known 8-tap FIR of white reference; weights must converge
    w_true = np.array([0.9, -0.4, 0.25, 0.1, -0.3, 0.2, -0.05, 0.15])
    results = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=5000)
        d = np.convolve(r, w_true)[:5000]
        cleaned, state = nlms_cancel(AudioBuffer(d, SR), AudioBuffer(r, SR),
                                     mu=0.5, taps=8)
        results.append(_misalignment_db(state.weights, w_true))
    assert np.median(results) < -20.0


# --- normalize ---

def test_peak_normalize():
    buf = AudioBuffer([0.1, -0.2], SR)
    result = normalize(buf, "peak", 0.99)
    assert result is not buf and result.samples.any()
    np.testing.assert_allclose(result.samples, [0.495, -0.99])


def test_normalize_silence_flagged():
    # silence is read from the data: no nonzero sample, passed through
    for mode in ("peak", "rms"):
        buf = AudioBuffer(np.zeros(100), SR)
        result = normalize(buf, mode, 0.99)
        assert not result.samples.any()
        assert result is buf


def test_rms_normalize_constant():
    result = normalize(AudioBuffer(np.full(100, 0.5), SR), "rms", 0.1)
    np.testing.assert_allclose(result.samples, 0.1)


def test_rms_normalize_clips():
    result = normalize(AudioBuffer([0.01, 1.0], SR), "rms", 0.9)
    assert np.max(np.abs(result.samples)) <= 1.0


def test_peak_normalize_idempotent_bitwise():
    rng = np.random.default_rng(4)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=256), SR)
    once = normalize(buf, "peak", 0.99)
    twice = normalize(once, "peak", 0.99)
    np.testing.assert_array_equal(once.samples, twice.samples)


# --- segment ---

def test_segment_zero_pad_last():
    buf = AudioBuffer(np.ones(int(2.5 * SR)), SR)
    ss = segment(buf, 1.0, PAD_ZERO_LAST)
    assert len(ss.segments) == 3
    assert all(len(s) == SR for s in ss.segments)
    np.testing.assert_array_equal(ss.segments[2].samples[SR // 2:], 0.0)


def test_segment_exact_fit_both_policies():
    buf = AudioBuffer(np.ones(2 * SR), SR)
    for policy in (PAD_ZERO_LAST, PAD_DROP_LAST):
        ss = segment(buf, 1.0, policy)
        assert len(ss.segments) == 2


def test_segment_short_input():
    buf = AudioBuffer(np.ones(int(0.4 * SR)), SR)
    assert len(segment(buf, 1.0, PAD_DROP_LAST).segments) == 0
    padded = segment(buf, 1.0, PAD_ZERO_LAST)
    assert len(padded.segments) == 1
    assert len(padded.segments[0]) == SR


@pytest.mark.parametrize("policy", [PAD_ZERO_LAST, PAD_DROP_LAST])
@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 29, 30])
def test_n_segments_counts_what_segment_cuts(n, policy):
    buf = AudioBuffer(np.ones(n), 10)
    assert n_segments(n, 10, policy) == len(segment(buf, 1.0, policy).segments)


def test_one_sample_remainder_is_a_zero_padded_segment():
    x = np.arange(1.0, 12.0)   # 11 samples: one whole segment of 10 and 1
    assert n_segments(11, 10, PAD_ZERO_LAST) == 2
    ss = segment(AudioBuffer(x, 10), 1.0, PAD_ZERO_LAST)
    assert [len(s) for s in ss.segments] == [10, 10]
    np.testing.assert_array_equal(ss.segments[1].samples, [11.0] + [0.0] * 9)


def test_segment_concatenation_recovers_input():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=int(2.3 * SR))
    ss = segment(AudioBuffer(x, SR), 1.0, PAD_ZERO_LAST)
    joined = np.concatenate([s.samples for s in ss.segments])
    np.testing.assert_array_equal(joined[:len(x)], x)
    np.testing.assert_array_equal(joined[len(x):], 0.0)
