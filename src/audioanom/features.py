"""Traditional feature extraction: MFCCs, spectral centroid, zero-crossing rate.

Per-frame values are aggregated to a fixed 30-feature clip vector
(MFCC_mean_1..13, MFCC_std_1..13, ZCR_mean/std, Centroid_mean/std) using
population standard deviation so single-frame clips stay well defined.

A segment is framed twice, plain and pre-emphasized, and each frame matrix
gets one power spectrum, which applies the Hann window: the MFCCs are
defined on the emphasized spectrum and the centroid on the plain one, so two
spectra are inherent. ZCR reads the plain, unwindowed frames.

The settings (frame_len, hop, n_fft, n_mels, n_coeffs, fmin, fmax,
pre_emphasis) come from a PipelineConfig, which checks them when it is made;
the mel bank is laid out once per (config, sample rate) and shared. No step
calls BLAS, so no OpenBLAS kernel choice moves the features.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .audio_io import AudioBuffer
from .config import PipelineConfig, check_settings
from .dsp import LOG_FLOOR, frame_signal, power_spectrogram
from .errors import (ConfigError, DegenerateFilter, FrameTooShort,
                     LabelOutOfRange, MalformedFeatureFile, NonFiniteFeature,
                     SignalTooShort)
from .files import read_csv, write_csv


@dataclass(frozen=True)
class FeatureVector:
    names: tuple
    values: np.ndarray
    clip_id: str
    label: Optional[str] = None


@dataclass
class FeatureSet:
    vectors: list = field(default_factory=list)
    names: tuple = ()
    class_names: tuple = ()

    def matrix(self) -> np.ndarray:
        """(n_vectors, n_features) values; (0, n_features) when empty."""
        X = np.array([v.values for v in self.vectors], dtype=np.float64)
        return X.reshape(len(self.vectors), len(self.names))

    def labels(self) -> np.ndarray:
        """Labels as integer indices into class_names."""
        index = {c: i for i, c in enumerate(self.class_names)}
        for v in self.vectors:
            if v.label not in index:
                raise LabelOutOfRange(
                    f"clip {v.clip_id!r} has label {v.label!r}, not one of "
                    f"{list(self.class_names)}")
        return np.array([index[v.label] for v in self.vectors], dtype=np.intp)

    @classmethod
    def of(cls, names: tuple, rows, ids, labels) -> "FeatureSet":
        """The table whose row i holds the values rows[i] of clip ids[i],
        labeled labels[i], under `names`, which every row shares; its class
        names are the sorted distinct labels of its labeled rows."""
        vectors = [FeatureVector(names, x, clip_id, label)
                   for x, clip_id, label in zip(rows, ids, labels)]
        return cls(vectors, names, tuple(sorted(set(labels) - {None})))

    def subset(self, indices) -> "FeatureSet":
        return FeatureSet([self.vectors[i] for i in indices],
                          self.names, self.class_names)


def require_finite(X: np.ndarray, vectors) -> None:
    """Raise NonFiniteFeature naming the clip and column of the first NaN or
    infinity in X, whose row i holds the values of vectors[i]."""
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        v, j = vectors[bad[0, 0]], bad[0, 1]
        raise NonFiniteFeature(f"clip {v.clip_id!r}: value {v.values[j]} "
                               f"in column {v.names[j]!r}")


def pre_emphasis(buffer: AudioBuffer, coeff: float) -> AudioBuffer:
    """First-order high-pass: y[n] = x[n] - coeff * x[n-1], y[0] = x[0]."""
    check_settings(pre_emphasis=coeff)
    x = buffer.samples
    if len(x) == 0 or coeff == 0.0:
        return buffer
    y = np.concatenate([[x[0]], x[1:] - coeff * x[:-1]])
    return AudioBuffer(y, buffer.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: PipelineConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters, peak amplitude 1, shape (n_mels, n_fft/2 + 1).

    Filter centers sit at n_mels points equally spaced on the mel scale
    between fmin and fmax (plus the two edge points).
    """
    fmax = cfg.fmax if cfg.fmax is not None else sample_rate / 2
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax),
                          cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)

    center_bins = np.floor(hz_pts[1:-1] * cfg.n_fft / sample_rate).astype(int)
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * sample_rate / cfg.n_fft
    lo, center, hi = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    # a band narrower than float spacing divides by 0; fmax maps 0/0 to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
    fb = np.fmax(0.0, np.minimum(rising, falling))
    # monotonic, so a repeat is a neighbour; np.unique would import numpy.ma
    if np.any(center_bins[1:] == center_bins[:-1]) or not fb.any(axis=1).all():
        raise DegenerateFilter(
            f"n_mels={cfg.n_mels} mel filters collapse onto shared FFT bins "
            f"or onto none, at n_fft={cfg.n_fft}, sample_rate={sample_rate}")
    return fb


@functools.lru_cache(maxsize=None)
def _mel_bank(cfg: PipelineConfig, sample_rate: int) -> tuple:
    """mel_filterbank's nonzero weights as (bins, weights, starts): filter m
    weighs bin bins[j] by weights[j] for j from starts[m] to the next start.
    Built once per (config, sample_rate); shared, so read-only."""
    fb = mel_filterbank(cfg, sample_rate)
    filters, bins = np.nonzero(fb)
    layout = (bins, fb[filters, bins],
              np.searchsorted(filters, np.arange(len(fb))))
    for a in layout:
        a.flags.writeable = False
    return layout


def mfcc(buffer: AudioBuffer,
         cfg: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """Frame-level MFCCs, shape (num_frames, n_coeffs).

    Chain: pre-emphasis, framing, Hann-windowed power spectrum, mel bank,
    log (1e-10 floor), orthonormal DCT-II, keep the first n_coeffs. Neither
    the mel sum over the bank's nonzero weights nor the einsum calls BLAS.
    """
    emphasized = pre_emphasis(buffer, cfg.pre_emphasis)
    fm = frame_signal(emphasized, cfg.frame_len, cfg.hop)
    if fm.frames.shape[0] == 0:
        raise SignalTooShort(
            f"need at least {cfg.frame_len} samples, got {len(buffer)}")
    bins, weights, starts = _mel_bank(cfg, buffer.sample_rate)
    energies = np.add.reduceat(
        power_spectrogram(fm, cfg.n_fft)[:, bins] * weights, starts, axis=1)
    log_e = np.log(energies + LOG_FLOOR)
    # orthonormal DCT-II basis, first n_coeffs rows only
    n = cfg.n_mels
    k = np.arange(cfg.n_coeffs)[:, None]
    scale = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    basis = scale * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    return np.einsum("fm,km->fk", log_e, basis)


def zero_crossing_rate(frame: np.ndarray) -> np.ndarray:
    """Fraction of consecutive-sample sign changes along the last axis.

    Exact zeros inherit the previous nonzero sign; leading zeros count as
    positive, so runs of silence never register as crossings. A
    (..., frame_len) array gives one rate per frame, shape (...).
    """
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1] if frame.ndim else 0
    if n < 2:
        raise FrameTooShort(f"need >= 2 samples for ZCR, got {n}")
    # Key sample j as 2j+2 if positive, 2j+1 if negative, 0 if zero or NaN.
    # The running maximum holds the last nonzero sample's key: odd if it was
    # negative, 0 (positive) before any. int32 (n < 2**30) halves the time.
    positive = frame > 0
    key = ((positive | (frame < 0)) * (2 * np.arange(n, dtype=np.int32) + 1)
           + positive)
    negative = np.maximum.accumulate(key, axis=-1) & 1
    rates = np.count_nonzero(negative[..., 1:] != negative[..., :-1],
                             axis=-1) / (n - 1)
    return np.asarray(rates)


def spectral_centroid(power_bins: np.ndarray, sample_rate: int,
                      n_fft: int) -> np.ndarray:
    """Power-weighted mean frequency in Hz along the last axis, one per
    spectrum; an all-zero spectrum gives 0 Hz."""
    power_bins = np.asarray(power_bins, dtype=np.float64)
    n_bins = power_bins.shape[-1] if power_bins.ndim else 0
    if n_bins != n_fft // 2 + 1:
        raise ConfigError(f"expected {n_fft // 2 + 1} bins, got {n_bins}")
    total = power_bins.sum(axis=-1)
    freqs = np.arange(n_bins) * sample_rate / n_fft
    return np.divide((freqs * power_bins).sum(axis=-1), total,
                     out=np.zeros_like(total), where=total != 0.0)


def feature_schema(n_coeffs: int) -> tuple:
    """The 2 * n_coeffs + 4 feature names, in column order."""
    names = [f"MFCC_mean_{i}" for i in range(1, n_coeffs + 1)]
    names += [f"MFCC_std_{i}" for i in range(1, n_coeffs + 1)]
    names += ["ZCR_mean", "ZCR_std", "Centroid_mean", "Centroid_std"]
    return tuple(names)


def extract_clip_features(segment: AudioBuffer,
                          cfg: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """The segment's per-frame MFCC/ZCR/centroid aggregated to its
    2 * n_coeffs + 4 float64 values, in feature_schema order."""
    coeffs = mfcc(segment, cfg)

    fm = frame_signal(segment, cfg.frame_len, cfg.hop)
    zcrs = zero_crossing_rate(fm.frames)
    centroids = spectral_centroid(power_spectrogram(fm, cfg.n_fft),
                                  segment.sample_rate, cfg.n_fft)

    return np.concatenate([
        coeffs.mean(axis=0),
        coeffs.std(axis=0),       # population std
        [zcrs.mean(), zcrs.std(),
         centroids.mean(), centroids.std()],
    ])


# --- FeatureSet CSV files ---

def save_featureset(fs: FeatureSet, path) -> None:
    """Stream fs to path row by row as a CSV with header
    clip_id,label,<features>; full float precision."""
    write_csv(path, ["clip_id", "label", *fs.names],
              ([v.clip_id, v.label if v.label is not None else "",
                *[repr(float(x)) for x in v.values]] for v in fs.vectors))


def load_featureset(path) -> FeatureSet:
    """Parse save_featureset's format; MalformedFeatureFile names the path,
    the clip and the column of a fault."""
    header, lines = read_csv(path, MalformedFeatureFile)
    if header[:2] != ["clip_id", "label"]:
        raise MalformedFeatureFile(f"{path}: header must start with "
                                   f"clip_id,label, got {header[:2]}")
    names = tuple(header[2:])
    if not names:
        raise MalformedFeatureFile(f"{path}: header names no feature column")
    rows = [row for _, row in lines]
    for row in rows:
        if len(row) < len(header):
            raise MalformedFeatureFile(f"{path}: clip {row[0]!r} has no "
                                       f"value in column {header[len(row)]!r}")
        if len(row) > len(header):
            raise MalformedFeatureFile(
                f"{path}: clip {row[0]!r} has {len(row) - 2} values for "
                f"{len(names)} feature columns")
    try:
        # numpy converts each string with Python's float
        X = np.array([row[2:] for row in rows], dtype=np.float64)
    except ValueError:
        X = np.array([[_feature_value(x, row[0], name, path)
                       for x, name in zip(row[2:], names)] for row in rows])
    X = X.reshape(len(rows), len(names))
    fs = FeatureSet.of(names, X, [row[0] for row in rows],
                       [row[1] or None for row in rows])
    require_finite(X, fs.vectors)
    return fs


def _feature_value(x: str, clip_id: str, name: str, path) -> float:
    try:
        return float(x)
    except ValueError:
        raise MalformedFeatureFile(f"{path}: clip {clip_id!r}: {x!r} in "
                                   f"column {name!r} is not a number") from None
