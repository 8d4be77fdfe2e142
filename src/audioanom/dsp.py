"""Frequency-domain primitives: framing, DFT, Hann-windowed power spectra.

Transforms are restricted to power-of-two sizes; frames shorter than n_fft
are zero-padded. Logs of power add LOG_FLOOR so silence never yields -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .config import check_settings
from .errors import ConfigError

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameMatrix:
    """Unwindowed analysis frames: shape (num_frames, frame_len)."""

    frames: np.ndarray


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann taper: w[k] = 0.5 * (1 - cos(2 pi k / n))."""
    if n < 2:
        raise ConfigError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def dft(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """Full complex spectrum of a real frame, zero-padded to n_fft."""
    check_settings(n_fft=n_fft)
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) > n_fft:
        raise ConfigError(f"frame length {len(frame)} exceeds n_fft {n_fft}")
    return np.fft.fft(frame, n=n_fft)


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of dft; imaginary residue from real input is discarded."""
    check_settings(n_fft=len(spectrum))
    return np.fft.ifft(spectrum).real


def frame_signal(buffer: AudioBuffer, frame_len: int, hop: int) -> FrameMatrix:
    """Fixed-stride frames of a signal: an unwindowed, read-only view.

    Frame i covers samples [i*hop, i*hop + frame_len); the trailing partial
    frame is discarded. A signal shorter than one frame yields zero frames.
    """
    check_settings(frame_len=frame_len, hop=hop)
    x = buffer.samples
    if len(x) < frame_len:
        frames = np.empty((0, frame_len))
    else:
        frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    return FrameMatrix(frames)


def power_spectrogram(fm: FrameMatrix, n_fft: int) -> np.ndarray:
    """One-sided power spectra |rfft|^2 of the Hann-windowed frames over
    bins 0 .. n_fft/2: shape (num_frames, n_fft // 2 + 1)."""
    check_settings(n_fft=n_fft)
    frame_len = fm.frames.shape[1]
    if frame_len > n_fft:
        raise ConfigError(f"frame_len {frame_len} exceeds n_fft {n_fft}")
    windowed = fm.frames * hann_window(frame_len)[None, :]
    return np.abs(np.fft.rfft(windowed, n=n_fft, axis=1)) ** 2
