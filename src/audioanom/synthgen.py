"""Deterministic synthetic two-class corpus: "normal" vs "anomalous" speech
proxies.

Normal clips are stable harmonic tones (f0 in 110-220 Hz, 3 harmonics) in
mild white noise. Anomalous clips add a reflecting random walk on f0
(slur-like pitch instability), slow amplitude wobble (2-6 Hz), 6 dB extra
noise, and a -6 dB/octave spectral tilt on the harmonics.

These are licensing-clean stand-ins for dysarthric-speech recordings, not a
clinical claim. Per-clip RNG streams derive from (seed, clip index), so any
subset of the corpus regenerates identically.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .audio_io import AudioBuffer, write_wav
from .config import LEAD_SILENCE_S, PipelineConfig
from .errors import MalformedManifest
from .files import read_csv, write_csv
from .parallel import pool_map


F0_MIN_HZ = 110.0
F0_MAX_HZ = 220.0
N_HARMONICS = 3
WOBBLE_MIN_HZ = 2.0
WOBBLE_MAX_HZ = 6.0
WOBBLE_DEPTH = 0.5

# benchmarks/bench_setup.py builds its corpora with
# generate_corpus(CorpusSpec(n_per_class=..., seed=...), ...); the config
# has the same field names and defaults, so those corpora are unchanged
CorpusSpec = PipelineConfig


def _reflect(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold values into [lo, hi] by reflection at the edges."""
    span = hi - lo
    folded = np.mod(values - lo, 2 * span)
    return lo + np.where(folded <= span, folded, 2 * span - folded)


def _synthesize(cfg: PipelineConfig, label: str,
                rng: np.random.Generator) -> AudioBuffer:
    sr = cfg.sample_rate
    n = int(round(cfg.clip_s * sr))
    n_lead = int(round(LEAD_SILENCE_S * sr))
    t_len = n - n_lead

    f0_start = rng.uniform(F0_MIN_HZ, F0_MAX_HZ)
    if label == "anomalous":
        walk = np.cumsum(rng.normal(0.0, cfg.jitter_sigma_hz, size=t_len))
        f0 = _reflect(f0_start + walk, F0_MIN_HZ, F0_MAX_HZ)
    else:
        f0 = np.full(t_len, f0_start)

    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    phase = phase0 + 2.0 * np.pi * np.cumsum(f0) / sr
    tone = np.zeros(t_len)
    for h in range(1, N_HARMONICS + 1):
        amp = 0.6 ** (h - 1)
        if label == "anomalous":
            amp /= h  # extra -6 dB/octave tilt
        tone += amp * np.sin(h * phase)

    if label == "anomalous":
        wobble_hz = rng.uniform(WOBBLE_MIN_HZ, WOBBLE_MAX_HZ)
        wobble_phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(t_len) / sr
        tone *= 1.0 + WOBBLE_DEPTH * np.sin(
            2.0 * np.pi * wobble_hz * t + wobble_phase)

    tone_rms = np.sqrt(np.mean(tone ** 2))
    snr_db = cfg.snr_db - (6.0 if label == "anomalous" else 0.0)
    noise_rms = tone_rms / (10.0 ** (snr_db / 20.0))
    noise = rng.normal(0.0, noise_rms, size=n)

    x = noise.copy()
    x[n_lead:] += tone
    # keep everything inside [-0.95, 0.95] without losing determinism
    peak = np.max(np.abs(x))
    if peak > 0.9:
        x *= 0.9 / peak
    return AudioBuffer(x, sr)


def render_clip(cfg: PipelineConfig, i: int) -> tuple:
    """Clip i of the corpus as (clip_id, label, buffer); even indices are
    normal, odd anomalous."""
    label = ("normal", "anomalous")[i % 2]
    buf = _synthesize(cfg, label, np.random.default_rng([cfg.seed, i]))
    return f"clip_{i:04d}_{label}", label, buf


def _write_clip(cfg: PipelineConfig, out_dir, i) -> tuple:
    """Write clip i's WAV into out_dir; returns its manifest row."""
    clip_id, label, buf = render_clip(cfg, i)
    path = os.path.join(out_dir, clip_id + ".wav")
    write_wav(buf, path)
    return clip_id, path, label


def generate_corpus(cfg: PipelineConfig, out_dir) -> list:
    """Write 2 * n_per_class WAVs, one clip per pool_map task, plus
    manifest.csv; returns the manifest rows as (clip_id, path, label) in
    clip order. ConfigError names an invalid setting; a failure is the
    lowest failing clip's."""
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    rows = pool_map(functools.partial(_write_clip, cfg, out_dir),
                    range(2 * cfg.n_per_class))
    write_manifest(rows, os.path.join(out_dir, "manifest.csv"))
    return rows


def write_manifest(rows, path) -> None:
    """Manifest CSV with paths stored relative to the manifest's directory,
    so identically-generated corpora are byte-identical wherever they live."""
    base = os.path.dirname(os.path.abspath(path))
    write_csv(path, ["clip_id", "path", "label"],
              ([clip_id, os.path.relpath(file_path, base), label]
               for clip_id, file_path, label in rows))


def load_manifest(path) -> list:
    """Read a manifest CSV; relative paths resolve against its directory.
    MalformedManifest names the file and the line of a fault: a row that is
    not clip_id,path,label, or a clip id that is repeated or holds a line
    break, a path separator or NUL, or a path that holds NUL."""
    base = os.path.dirname(os.path.abspath(path))
    header, lines = read_csv(path, MalformedManifest)
    if header != ["clip_id", "path", "label"]:
        raise MalformedManifest(f"{path}: header must be "
                                f"clip_id,path,label, got {header}")
    rows, seen = [], {}   # clip id -> its line
    for line, row in lines:
        at = f"{path}: line {line}"
        if len(row) != 3:
            raise MalformedManifest(f"{at}: clip {row[0]!r} has {len(row)} "
                                    "fields, not clip_id,path,label")
        clip_id, file_path, label = row
        # a line break in an id or label would end a row of the CSVs the
        # later stages write
        if any(c in clip_id + label for c in "\r\n"):
            raise MalformedManifest(f"{at}: clip id {clip_id!r} or label "
                                    f"{label!r} holds a line break")
        # preprocess writes <out>/<clip_id>_segNNN.wav: an id must name one
        # file of its own inside --out
        if any(c and c in clip_id for c in ("/", os.sep, os.altsep, "\0")):
            raise MalformedManifest(f"{at}: clip id {clip_id!r} holds a "
                                    "path separator or NUL")
        if clip_id in seen:
            raise MalformedManifest(f"{at}: clip id {clip_id!r} repeats "
                                    f"line {seen[clip_id]}")
        if "\0" in file_path:
            raise MalformedManifest(f"{at}: path {file_path!r} holds NUL")
        seen[clip_id] = line
        rows.append((clip_id, os.path.join(base, file_path), label))
    return rows
