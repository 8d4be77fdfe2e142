"""Flat, versioned pipeline configuration.

Every tunable that a stage reads lives here with its default, in the one
settings type of the program; config files are flat JSON key/value
documents. Unknown keys are rejected, and each value is checked against its
field's type and then against the stages' preconditions at load time, so a
typo or an impossible setting fails before any audio is touched.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError

CONFIG_FORMAT_VERSION = 1
LEAD_SILENCE_S = 0.3   # noise-only lead of a synthetic clip
PAD_POLICIES = ("zero-pad-last", "drop-last")
NORMALIZE_MODES = ("peak", "rms")
# |snr_db| bound: far beyond PCM16's 96 dB, and far inside the ~6150 dB at
# which a clip's noise, its tone's RMS over 10**(dB/20), overflows
SNR_DB_LIMIT = 1000.0
# jitter_sigma_hz bound: far beyond the 110 Hz band the pitch walk reflects
# in, and low enough that the walk of any clip that fits in memory stays
# finite (at 1e308 its cumsum overflows and the clip turns to NaN)
JITTER_SIGMA_HZ_LIMIT = 1e6


@dataclass(frozen=True)   # a cache key of features._mel_bank
class PipelineConfig:
    version: int = CONFIG_FORMAT_VERSION

    # audio / dsp
    sample_rate: int = 16000
    frame_len: int = 400
    hop: int = 160
    n_fft: int = 512

    # noise reduction
    alpha: float = 2.0
    beta: float = 0.01
    lead_ms: float = 250.0

    # normalization / segmentation
    normalize_mode: str = "peak"
    normalize_target: float = 0.99
    seg_len_s: float = 1.0
    pad_policy: str = "zero-pad-last"

    # features
    n_mels: int = 26
    n_coeffs: int = 13
    fmin: float = 0.0
    fmax: Optional[float] = None
    pre_emphasis: float = 0.97

    # models
    n_trees: int = 100
    mtry: Optional[int] = None     # None -> round(sqrt(n_features))
    max_depth: Optional[int] = None
    min_samples_leaf: int = 1
    svm_lambda: float = 1e-2
    svm_epochs: int = 50
    forest_weight: float = 0.5
    svm_weight: float = 0.5

    # evaluation / corpus
    test_frac: float = 0.3
    seed: int = 42
    n_per_class: int = 100
    clip_s: float = 2.0
    snr_db: float = 20.0          # normal-class SNR; anomalous gets 6 dB less
    jitter_sigma_hz: float = 0.3  # per-sample random-walk step on f0

    def validate(self) -> "PipelineConfig":
        for key, (kind, optional) in FIELD_TYPES.items():
            value = getattr(self, key)
            # a number must fit a float, as the stages compute in floats;
            # bool is an int subclass, and comparisons take ints of any size
            if not (value is None and optional
                    or kind is str and isinstance(value, str)
                    or kind is not str and type(value) is not bool
                    and isinstance(value, (int, kind))
                    and -_FLOAT_MAX <= value <= _FLOAT_MAX):
                wanted = _TYPE_NAMES[kind] + (" or null" if optional else "")
                raise ConfigError(f"config key {key!r}: {value!r} is not "
                                  f"{wanted}")
        fmax = self.fmax if self.fmax is not None else self.sample_rate / 2
        checks = [
            (self.version == CONFIG_FORMAT_VERSION,
             f"version must be {CONFIG_FORMAT_VERSION}"),
            (self.sample_rate > 0, "sample_rate must be positive"),
            (self.frame_len >= 2, "frame_len must be >= 2"),
            (self.hop >= 1, "hop must be >= 1"),
            (self.n_fft >= 2 and self.n_fft & (self.n_fft - 1) == 0,
             "n_fft must be a power of two"),
            (self.frame_len <= self.n_fft, "frame_len must be <= n_fft"),
            (self.alpha >= 0, "alpha must be >= 0"),
            (0 <= self.beta <= 1, "beta must be in [0, 1]"),
            (self.lead_ms > 0, "lead_ms must be positive"),
            *((length * self.sample_rate <= _FLOAT_MAX,
               f"{key} must span a finite number of samples at sample_rate")
              for key, length in (("clip_s", self.clip_s),
                                  ("seg_len_s", self.seg_len_s),
                                  ("lead_ms", self.lead_ms / 1000.0))),
            (self.normalize_mode in NORMALIZE_MODES,
             "normalize_mode must be " + " or ".join(NORMALIZE_MODES)),
            (self.normalize_target > 0, "normalize_target must be positive"),
            (self.seg_len_s * self.sample_rate >= self.frame_len,
             "seg_len_s must hold at least frame_len samples"),
            (self.pad_policy in PAD_POLICIES,
             "pad_policy must be " + " or ".join(PAD_POLICIES)),
            (1 <= self.n_coeffs <= self.n_mels,
             "need 1 <= n_coeffs <= n_mels"),
            (0 <= self.fmin < fmax <= self.sample_rate / 2,
             f"need 0 <= fmin < fmax <= Nyquist, got [{self.fmin}, {fmax}]"),
            (0 <= self.pre_emphasis < 1, "pre_emphasis must be in [0, 1)"),
            (self.n_trees >= 1, "n_trees must be >= 1"),
            (self.mtry is None or self.mtry >= 1, "mtry must be >= 1"),
            (self.max_depth is None or self.max_depth >= 1,
             "max_depth must be >= 1"),
            (self.min_samples_leaf >= 1, "min_samples_leaf must be >= 1"),
            (self.svm_lambda > 0, "svm_lambda must be positive"),
            (self.svm_epochs >= 0, "svm_epochs must be >= 0"),
            (self.forest_weight >= 0 and self.svm_weight >= 0
             and 0 < self.forest_weight + self.svm_weight <= _FLOAT_MAX,
             "ensemble weights must be non-negative with a positive, "
             "finite sum"),
            (0 < self.test_frac < 1, "test_frac must be in (0, 1)"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.n_per_class >= 1, "n_per_class must be >= 1"),
            (self.clip_s * self.sample_rate
             >= round(LEAD_SILENCE_S * self.sample_rate) + 1,
             f"clip_s must exceed the {LEAD_SILENCE_S} s noise-only lead"),
            (abs(self.snr_db) <= SNR_DB_LIMIT,
             f"snr_db must be within +-{SNR_DB_LIMIT:g} dB, so that the "
             "noise level of each class is a positive, finite float"),
            (0 <= self.jitter_sigma_hz <= JITTER_SIGMA_HZ_LIMIT,
             f"jitter_sigma_hz must be in [0, {JITTER_SIGMA_HZ_LIMIT:g}] Hz, "
             "so that the pitch walk stays finite"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = sorted(d.keys() - FIELD_TYPES.keys())
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**d).validate()


# name -> (int, float or str; whether None is allowed), from the annotations
FIELD_TYPES = {name: ((get_args(hint) or (hint,))[0], bool(get_args(hint)))
               for name, hint in get_type_hints(PipelineConfig).items()}
_TYPE_NAMES = {int: "a finite integer", float: "a finite number",
               str: "a string"}
_FLOAT_MAX = sys.float_info.max
