"""Flat, versioned pipeline configuration and the one rule of each setting.

Every tunable that a stage reads is a field here, declared once with its
default and its rule: its type, finiteness and range. Config files are flat
JSON key/value documents, and unknown keys are rejected. check_settings
applies the rules when a config is made, before the checks that relate two
fields, and in each stage function that takes a setting as an argument, so
a bad value meets one message wherever it is refused.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError, NFftNotPowerOfTwo

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


def _at_least(low: int) -> tuple:
    return f"an integer >= {low}", lambda v: v >= low


def _choice(choices: tuple) -> tuple:
    return " or ".join(map(repr, choices)), lambda v: v in choices


_POSITIVE = ("a finite number > 0", lambda v: v > 0)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: v >= 0)


def _setting(default, rule: tuple) -> dataclasses.Field:
    """A field's default and its rule: (the values the setting takes, as
    its refusal words them; whether a value of its type is one of them)."""
    return dataclasses.field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)   # a cache key of features._mel_bank
class PipelineConfig:
    version: int = _setting(CONFIG_FORMAT_VERSION,
                            _choice((CONFIG_FORMAT_VERSION,)))

    # audio / dsp
    sample_rate: int = _setting(16000, _at_least(1))
    frame_len: int = _setting(400, _at_least(2))
    hop: int = _setting(160, _at_least(1))
    n_fft: int = _setting(512, ("an integer power of two >= 2",
                                lambda v: v >= 2 and v & (v - 1) == 0))

    # noise reduction
    alpha: float = _setting(2.0, _NON_NEGATIVE)
    beta: float = _setting(0.01, ("in [0, 1]", lambda v: 0 <= v <= 1))
    lead_ms: float = _setting(250.0, _POSITIVE)

    # normalization / segmentation
    normalize_mode: str = _setting("peak", _choice(NORMALIZE_MODES))
    normalize_target: float = _setting(0.99, _POSITIVE)
    seg_len_s: float = _setting(1.0, _POSITIVE)
    pad_policy: str = _setting("zero-pad-last", _choice(PAD_POLICIES))

    # features
    n_mels: int = _setting(26, _at_least(1))
    n_coeffs: int = _setting(13, _at_least(1))
    fmin: float = _setting(0.0, _NON_NEGATIVE)
    fmax: Optional[float] = _setting(None, _POSITIVE)
    pre_emphasis: float = _setting(0.97, ("in [0, 1)", lambda v: 0 <= v < 1))

    # models
    n_trees: int = _setting(100, _at_least(1))
    # None -> round(sqrt(n_features))
    mtry: Optional[int] = _setting(None, _at_least(1))
    max_depth: Optional[int] = _setting(None, _at_least(1))
    min_samples_leaf: int = _setting(1, _at_least(1))
    svm_lambda: float = _setting(1e-2, _POSITIVE)
    svm_epochs: int = _setting(50, _at_least(0))
    forest_weight: float = _setting(0.5, _NON_NEGATIVE)
    svm_weight: float = _setting(0.5, _NON_NEGATIVE)

    # evaluation / corpus
    test_frac: float = _setting(0.3, ("in (0, 1)", lambda v: 0 < v < 1))
    seed: int = _setting(42, _at_least(0))
    n_per_class: int = _setting(100, _at_least(1))
    clip_s: float = _setting(2.0, _POSITIVE)
    # the normal class's SNR; the anomalous class gets 6 dB less
    snr_db: float = _setting(20.0, (
        f"within +-{SNR_DB_LIMIT:g} dB, so that the noise level of each "
        "class is a positive, finite float", lambda v: abs(v) <= SNR_DB_LIMIT))
    # the per-sample step of the random walk on f0
    jitter_sigma_hz: float = _setting(0.3, (
        f"in [0, {JITTER_SIGMA_HZ_LIMIT:g}] Hz, so that the pitch walk stays "
        "finite", lambda v: 0 <= v <= JITTER_SIGMA_HZ_LIMIT))

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "PipelineConfig":
        check_settings(**{name: getattr(self, name) for name in RULES})
        fmax = self.fmax if self.fmax is not None else self.sample_rate / 2
        checks = [
            (self.frame_len <= self.n_fft, "frame_len must be <= n_fft"),
            *((length * self.sample_rate <= _FLOAT_MAX,
               f"{key} must span a finite number of samples at sample_rate")
              for key, length in (("clip_s", self.clip_s),
                                  ("seg_len_s", self.seg_len_s),
                                  ("lead_ms", self.lead_ms / 1000.0))),
            (self.seg_len_s * self.sample_rate >= self.frame_len,
             "seg_len_s must hold at least frame_len samples"),
            (self.n_coeffs <= self.n_mels, "need 1 <= n_coeffs <= n_mels"),
            (self.fmin < fmax <= self.sample_rate / 2,
             f"need 0 <= fmin < fmax <= Nyquist, got [{self.fmin}, {fmax}]"),
            (0 < self.forest_weight + self.svm_weight <= _FLOAT_MAX,
             "ensemble weights must be non-negative with a positive, "
             "finite sum"),
            (self.clip_s * self.sample_rate
             >= round(LEAD_SILENCE_S * self.sample_rate) + 1,
             f"clip_s must exceed the {LEAD_SILENCE_S} s noise-only lead"),
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
        return cls(**d)


# name -> (int, float or str; whether None is allowed), from the annotations
FIELD_TYPES = {name: ((get_args(hint) or (hint,))[0], bool(get_args(hint)))
               for name, hint in get_type_hints(PipelineConfig).items()}
RULES = {f.name: f.metadata["rule"]
         for f in dataclasses.fields(PipelineConfig)}
_FLOAT_MAX = sys.float_info.max


def check_settings(**settings) -> None:
    """Refuse the first value that its setting does not take, with a
    ConfigError (NFftNotPowerOfTwo for n_fft) that states the setting's
    rule and names the value."""
    for name, value in settings.items():
        kind, optional = FIELD_TYPES[name]
        wanted, ok = RULES[name]
        # a number must fit a float, as the stages compute in floats; bool
        # is an int subclass, and comparisons take ints of any size
        if not (value is None and optional
                or kind is str and isinstance(value, str) and ok(value)
                or kind is not str and type(value) is not bool
                and isinstance(value, (int, kind))
                and -_FLOAT_MAX <= value <= _FLOAT_MAX and ok(value)):
            message = (f"{name} must be {wanted}"
                       f"{' or null' if optional else ''}, got {value!r}")
            if name == "n_fft":
                raise NFftNotPowerOfTwo(message)
            raise ConfigError(message)
