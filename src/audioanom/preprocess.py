"""Preprocessing pipeline: hybrid noise reduction, normalization, segmentation.

Noise reduction in the pipeline is spectral subtraction (stationary noise).
nlms_cancel adapts against a reference channel, but the pipeline never
calls it: read_wav downmixes stereo, so no reference channel reaches
preprocessing, and NLMS is ill-posed without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .config import PAD_POLICIES, check_settings
from .dsp import hann_window
from .errors import ConfigError, LengthMismatch, TooShortForProfile

DEFAULT_MU = 0.5
DEFAULT_TAPS = 32
NLMS_EPS = 1e-8

PAD_ZERO_LAST, PAD_DROP_LAST = PAD_POLICIES


@dataclass(frozen=True)
class AdaptiveFilterState:
    weights: np.ndarray
    mu: float
    taps: int
    eps: float


@dataclass(frozen=True)
class SegmentSet:
    segments: list


def spectral_subtract(buffer: AudioBuffer, lead_ms: float, n_fft: int,
                      alpha: float, beta: float) -> AudioBuffer:
    """Per-frame magnitude subtraction with over-subtraction and floor.

    M'[k] = max(M[k] - alpha * N[k], beta * M[k]), applied as the real gain
    M'/M so the phase is kept, where N is the mean magnitude of the frames
    lying wholly in the leading lead_ms. Hann frames of n_fft at hop n_fft/2
    over the input padded with hop zeros in front and n_fft behind put every
    sample in the COLA-exact interior. The overlap-add adds all first half
    frames, then all second half frames one hop later, into zeros: per
    sample the same 0 + a + b as adding frame by frame.
    """
    check_settings(lead_ms=lead_ms, n_fft=n_fft, alpha=alpha, beta=beta)
    # cut at the clip's end before rounding, as a long lead overflows
    lead = int(round(min(lead_ms / 1000.0 * buffer.sample_rate, len(buffer))))
    if lead < n_fft:
        raise TooShortForProfile(
            f"need at least {n_fft} samples of leading noise, got {lead}")
    hop = n_fft // 2
    padded = np.concatenate([np.zeros(hop), buffer.samples, np.zeros(n_fft)])
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]
    spec = np.fft.rfft(frames * hann_window(n_fft)[None, :], axis=1)
    mag = np.abs(spec)
    # frame i >= 1 starts at sample (i - 1) * hop
    noise = mag[1:2 + (lead - n_fft) // hop].mean(axis=0)
    gain = mag - alpha * noise[None, :]
    np.maximum(gain, beta * mag, out=gain)
    np.divide(gain, mag, out=gain, where=mag > 0)
    spec *= gain
    out = np.fft.irfft(spec, n=n_fft, axis=1)
    # row i holds padded samples [i*hop, (i+1)*hop), row 0 the front pad:
    # the first half of frame i plus the second half of frame i - 1
    acc = np.zeros((len(out) + 1, hop))
    acc[:-1] += out[:, :hop]
    acc[1:] += out[:, hop:]
    return AudioBuffer(acc[1:].reshape(-1)[:len(buffer)], buffer.sample_rate)


def nlms_cancel(
    primary: AudioBuffer,
    reference: AudioBuffer,
    mu: float = DEFAULT_MU,
    taps: int = DEFAULT_TAPS,
):
    """Normalized LMS noise cancellation against a reference channel.

    Returns (cleaned error signal, final filter state). Weights start at
    zero; the update is mu / (eps + ||r_window||^2) * e[n] * r_window.
    """
    if len(primary) != len(reference):
        raise LengthMismatch(
            f"primary has {len(primary)} samples, reference {len(reference)}")
    if primary.sample_rate != reference.sample_rate:
        raise LengthMismatch("primary and reference sample rates differ")
    if not 0.0 < mu < 2.0:
        raise ConfigError(f"mu must be in (0, 2), got {mu}")
    if taps < 1:
        raise ConfigError(f"taps must be >= 1, got {taps}")

    d = primary.samples
    r = reference.samples
    n = len(d)
    w = np.zeros(taps)
    e = np.empty(n)
    # r_window[j] = r[n - j], newest sample first; zero history before n=0
    rpad = np.concatenate([np.zeros(taps - 1), r])
    for i in range(n):
        win = rpad[i:i + taps][::-1]
        y = w @ win
        e[i] = d[i] - y
        w = w + (mu / (NLMS_EPS + win @ win)) * e[i] * win
    state = AdaptiveFilterState(weights=w, mu=mu, taps=taps, eps=NLMS_EPS)
    return AudioBuffer(e, primary.sample_rate), state


def normalize(buffer: AudioBuffer, mode: str, target: float) -> AudioBuffer:
    """Scale to a target peak or RMS level; silence passes through as is."""
    check_settings(normalize_mode=mode, normalize_target=target)
    x = buffer.samples
    if mode == "peak":
        peak = np.max(np.abs(x)) if len(x) else 0.0
        if peak == 0.0:
            return buffer
        return AudioBuffer(x * (target / peak), buffer.sample_rate)
    rms = float(np.sqrt(np.mean(x ** 2))) if len(x) else 0.0
    if rms == 0.0:
        return buffer
    return AudioBuffer(np.clip(x * (target / rms), -1.0, 1.0),
                       buffer.sample_rate)


def n_segments(n_samples: int, seg_len: int, pad_policy: str) -> int:
    """How many segments of seg_len samples segment() cuts n_samples into:
    the whole ones, plus a zero-padded tail (a whole zero segment for an
    empty clip) unless pad_policy drops it."""
    full, rem = divmod(n_samples, seg_len)
    return full + (pad_policy == PAD_ZERO_LAST and (rem > 0 or n_samples == 0))


def segment(buffer: AudioBuffer, seg_len_s: float,
            pad_policy: str) -> SegmentSet:
    """Cut into consecutive non-overlapping fixed-length segments."""
    check_settings(seg_len_s=seg_len_s, pad_policy=pad_policy)
    span = seg_len_s * buffer.sample_rate
    if not 0.5 < span < math.inf:   # rounds to a whole number >= 1
        raise ConfigError(f"seg_len_s {seg_len_s} at {buffer.sample_rate} Hz "
                          f"spans {span:g} samples, not a finite count >= 1")
    seg_len = int(round(span))
    x = buffer.samples
    full = len(x) // seg_len
    segs = [AudioBuffer(x[i * seg_len:(i + 1) * seg_len], buffer.sample_rate)
            for i in range(full)]
    if n_segments(len(x), seg_len, pad_policy) > full:
        tail = x[full * seg_len:]
        tail = np.concatenate([tail, np.zeros(seg_len - len(tail))])
        segs.append(AudioBuffer(tail, buffer.sample_rate))
    return SegmentSet(segs)
