"""WAV reading/writing and canonicalization to mono float at a target rate.

Accepts PCM 16-bit and IEEE float32 RIFF/WAVE files, mono or stereo.
Everything else errors loudly rather than guessing. Resampling is plain
linear interpolation: deterministic and adequate for anomaly features,
but quality-limited compared to windowed-sinc methods.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAudio,
    IoFailure,
    MalformedContainer,
    UnsupportedEncoding,
)

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples (nominal range [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)


def read_wav(path) -> AudioBuffer:
    """Read a PCM16 or float32 WAV file as a mono AudioBuffer.

    PCM16 samples are scaled by 1/32768; stereo is downmixed by per-sample
    channel mean. Unknown chunks are skipped.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(data) < 12:
        raise MalformedContainer(f"{path}: file too small for a RIFF header")
    if data[0:4] != b"RIFF":
        raise MalformedContainer(f"{path}: missing RIFF magic (got {data[0:4]!r})")
    if data[8:12] != b"WAVE":
        raise MalformedContainer(f"{path}: missing WAVE form type")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedContainer(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedContainer(f"{path}: data chunk overruns file")
            raw = body
        # chunks are word-aligned
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise MalformedContainer(f"{path}: no fmt chunk")
    if raw is None:
        raise MalformedContainer(f"{path}: no data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format == _FMT_EXTENSIBLE:
        raise UnsupportedEncoding(f"{path}: WAVE_FORMAT_EXTENSIBLE not supported")
    if sample_rate == 0:
        raise MalformedContainer(f"{path}: sample rate 0 in fmt chunk")
    if channels not in (1, 2):
        raise UnsupportedEncoding(f"{path}: {channels} channels (only mono/stereo)")

    if audio_format == _FMT_PCM and bits == 16:
        samples = _from_pcm16(np.frombuffer(
            raw[: len(raw) - (len(raw) % (2 * channels))], dtype="<i2"))
    elif audio_format == _FMT_FLOAT and bits == 32:
        samples = np.frombuffer(
            raw[: len(raw) - (len(raw) % (4 * channels))], dtype="<f4"
        ).astype(np.float64)
    else:
        raise UnsupportedEncoding(
            f"{path}: format {audio_format} / {bits}-bit (only PCM16 and float32)"
        )

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    if len(samples) == 0:
        raise EmptyAudio(f"{path}: zero samples")
    if not np.all(np.isfinite(samples)):
        raise MalformedContainer(f"{path}: non-finite sample values")
    return AudioBuffer(samples, int(sample_rate))


def _pcm16(samples: np.ndarray) -> np.ndarray:
    """Little-endian int16 samples; amplitudes are clamped to [-1, 1] first."""
    clipped = np.clip(samples, -1.0, 1.0)
    # symmetric with the read-side 1/32768 scaling so the round trip stays
    # within one LSB; +1.0 saturates at 32767
    return np.clip(np.round(clipped * 32768.0), -32768, 32767).astype("<i2")


def _from_pcm16(ints: np.ndarray) -> np.ndarray:
    return ints.astype(np.float64) / 32768.0


def write_wav(buffer: AudioBuffer, path) -> AudioBuffer:
    """Write a mono PCM16 WAV, amplitudes clamped to [-1, 1] first; returns
    the buffer that read_wav(path) gives back."""
    if len(buffer) == 0:
        raise EmptyAudio("refusing to write an empty buffer")
    ints = _pcm16(buffer.samples)
    data_bytes = ints.tobytes()

    header = b"RIFF" + struct.pack("<I", 36 + len(data_bytes)) + b"WAVE"
    fmt = b"fmt " + struct.pack(
        "<IHHIIHH", 16, _FMT_PCM, 1, buffer.sample_rate,
        buffer.sample_rate * 2, 2, 16,
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(fmt)
            fh.write(b"data" + struct.pack("<I", len(data_bytes)))
            fh.write(data_bytes)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return AudioBuffer(_from_pcm16(ints), buffer.sample_rate)


def resample_linear(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample by linear interpolation between neighboring input samples."""
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == buffer.sample_rate:
        return buffer
    n_in = len(buffer)
    if n_in == 0:
        raise EmptyAudio("refusing to resample an empty buffer")
    n_out = max(1, int(round(n_in * target_rate / buffer.sample_rate)))
    # output index i maps to input position i * (in_rate / out_rate)
    positions = np.arange(n_out) * (buffer.sample_rate / target_rate)
    positions = np.clip(positions, 0.0, n_in - 1)
    samples = np.interp(positions, np.arange(n_in), buffer.samples)
    return AudioBuffer(samples, target_rate)
