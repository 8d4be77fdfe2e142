"""Each library function's argument guards: the error class and message a
bad argument raises. A guard of an argument that is a PipelineConfig
setting applies that setting's one rule, from config.py, so it refuses a
bad value with the class and message that PipelineConfig gives the same
value; the property test below checks this for every such guard. The
checks that depend on the data, and the guards of arguments that are no
setting, follow their own rules."""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from audioanom.audio_io import AudioBuffer, resample_linear, write_wav
from audioanom.config import PipelineConfig, check_settings
from audioanom.dsp import (FrameMatrix, dft, frame_signal, hann_window,
                           power_spectrogram)
from audioanom.errors import (ConfigError, EmptyAudio, LengthMismatch,
                              NFftNotPowerOfTwo)
from audioanom.evaluate import cross_validate, stratified_split
from audioanom.features import FeatureSet, FeatureVector, pre_emphasis
from audioanom.models import train_forest
from audioanom.pipeline import run_pipeline
from audioanom.preprocess import (PAD_ZERO_LAST, nlms_cancel, normalize,
                                  segment, spectral_subtract)
from audioanom.synthgen import render_clip

SR = 16000


def audio(n, rate=SR):
    return AudioBuffer(np.zeros(n), rate)


def table():
    names = ("f0",)
    return FeatureSet([FeatureVector(names, np.array([float(i)]),
                                     clip_id=f"c{i}", label="AB"[i % 2])
                       for i in range(4)], names, ("A", "B"))


GUARDS = {
    "audio-buffer-rate": (lambda: audio(4, 0), ConfigError,
                          "sample_rate must be an integer >= 1, got 0"),
    "audio-buffer-rate-nan": (lambda: audio(4, math.nan), ConfigError,
                              "sample_rate must be an integer >= 1, got nan"),
    "write-wav-empty": (lambda: write_wav(audio(0), os.devnull), EmptyAudio,
                        "refusing to write an empty buffer"),
    "resample-target": (lambda: resample_linear(audio(4), 0), ConfigError,
                        "sample_rate must be an integer >= 1, got 0"),
    "resample-target-nan": (lambda: resample_linear(audio(4), math.nan),
                            ConfigError,
                            "sample_rate must be an integer >= 1, got nan"),
    "resample-empty": (lambda: resample_linear(audio(0, 8000), SR),
                       EmptyAudio, "refusing to resample an empty buffer"),
    "hann-window": (lambda: hann_window(1), ConfigError,
                    "window length must be >= 2, got 1"),
    "dft-long-frame": (lambda: dft(np.zeros(5), 4), ConfigError,
                       "frame length 5 exceeds n_fft 4"),
    "frame-len": (lambda: frame_signal(audio(10), 1, 1), ConfigError,
                  "frame_len must be an integer >= 2, got 1"),
    "frame-hop": (lambda: frame_signal(audio(10), 2, 0), ConfigError,
                  "hop must be an integer >= 1, got 0"),
    "frame-hop-float": (lambda: frame_signal(audio(10), 2, 1.5), ConfigError,
                        "hop must be an integer >= 1, got 1.5"),
    "power-spectrogram": (
        lambda: power_spectrogram(FrameMatrix(np.zeros((1, 8))), 4),
        ConfigError, "frame_len 8 exceeds n_fft 4"),
    "power-spectrogram-n-fft-float": (
        lambda: power_spectrogram(FrameMatrix(np.zeros((1, 8))), 512.0),
        NFftNotPowerOfTwo,
        "n_fft must be an integer power of two >= 2, got 512.0"),
    "pre-emphasis-nan": (lambda: pre_emphasis(audio(4), math.nan),
                         ConfigError, "pre_emphasis must be in [0, 1), "
                         "got nan"),
    "split-test-frac": (lambda: stratified_split(table(), 1.0, 0),
                        ConfigError, "test_frac must be in (0, 1), got 1.0"),
    "cv-k": (lambda: cross_validate(table(), 1, None, 0), ConfigError,
             "k must be >= 2, got 1"),
    "forest-n-trees": (lambda: train_forest(table(), 0, seed=0), ConfigError,
                       "n_trees must be an integer >= 1, got 0"),
    "forest-n-trees-float": (lambda: train_forest(table(), 1.5, seed=0),
                             ConfigError,
                             "n_trees must be an integer >= 1, got 1.5"),
    "forest-n-trees-bool": (lambda: train_forest(table(), True, seed=0),
                            ConfigError,
                            "n_trees must be an integer >= 1, got True"),
    "subtract-alpha": (lambda: spectral_subtract(audio(SR), 100, 256, -1, 0),
                       ConfigError, "alpha must be a finite number >= 0, "
                       "got -1"),
    "subtract-alpha-nan": (
        lambda: spectral_subtract(audio(SR), 100, 256, math.nan, 0),
        ConfigError, "alpha must be a finite number >= 0, got nan"),
    "subtract-n-fft-float": (
        lambda: spectral_subtract(audio(SR), 100, 256.0, 1, 0),
        NFftNotPowerOfTwo,
        "n_fft must be an integer power of two >= 2, got 256.0"),
    # was TooShortForProfile, which the pipeline skips
    "subtract-lead-ms": (lambda: spectral_subtract(audio(SR), 0, 256, 1, 0),
                         ConfigError, "lead_ms must be a finite number > 0, "
                         "got 0"),
    "subtract-beta": (lambda: spectral_subtract(audio(SR), 100, 256, 1, 2),
                      ConfigError, "beta must be in [0, 1], got 2"),
    "nlms-rates": (lambda: nlms_cancel(audio(4), audio(4, 8000)),
                   LengthMismatch, "primary and reference sample rates differ"),
    "nlms-mu": (lambda: nlms_cancel(audio(4), audio(4), mu=2), ConfigError,
                "mu must be in (0, 2), got 2"),
    "nlms-taps": (lambda: nlms_cancel(audio(4), audio(4), taps=0),
                  ConfigError, "taps must be >= 1, got 0"),
    "normalize-target": (lambda: normalize(audio(4), "peak", 0), ConfigError,
                         "normalize_target must be a finite number > 0, "
                         "got 0"),
    "normalize-target-nan": (
        lambda: normalize(AudioBuffer(np.ones(4), SR), "peak", math.nan),
        ConfigError, "normalize_target must be a finite number > 0, got nan"),
    "normalize-mode": (lambda: normalize(audio(4), "loud", 1), ConfigError,
                       "normalize_mode must be 'peak' or 'rms', got 'loud'"),
    "segment-length": (lambda: segment(audio(100), 0, PAD_ZERO_LAST),
                       ConfigError, "seg_len_s must be a finite number > 0, "
                       "got 0"),
    "segment-length-nan": (
        lambda: segment(audio(100), math.nan, PAD_ZERO_LAST), ConfigError,
        "seg_len_s must be a finite number > 0, got nan"),
    "segment-length-inf": (
        lambda: segment(audio(100), math.inf, PAD_ZERO_LAST), ConfigError,
        "seg_len_s must be a finite number > 0, got inf"),
    # positive, but rounds to 0 samples
    "segment-sub-sample": (lambda: segment(audio(100), 1e-5, PAD_ZERO_LAST),
                           ConfigError, "seg_len_s 1e-05 at 16000 Hz spans "
                           "0.16 samples, not a finite count >= 1"),
    # finite, but more samples than a float holds
    "segment-overflow": (lambda: segment(audio(100), 1e308, PAD_ZERO_LAST),
                         ConfigError, "seg_len_s 1e+308 at 16000 Hz spans "
                         "inf samples, not a finite count >= 1"),
    "segment-pad-policy": (lambda: segment(audio(100), 1, "wrap"),
                           ConfigError, "pad_policy must be 'zero-pad-last' "
                           "or 'drop-last', got 'wrap'"),
    # unrefused, run_pipeline would write a model_ensemble.json that
    # load_model refuses, and render_clip a clip with no finite sample
    "pipeline-negative-weight": (
        lambda: run_pipeline(PipelineConfig(
            n_per_class=4, n_trees=3, svm_epochs=1, forest_weight=-1.0,
            svm_weight=2.0), "out"),
        ConfigError, "forest_weight must be a finite number >= 0, got -1.0"),
    "render-clip-snr": (
        lambda: render_clip(PipelineConfig(snr_db=-7000.0, n_per_class=1), 0),
        ConfigError, "snr_db must be within +-1000 dB, so that the noise "
        "level of each class is a positive, finite float, got -7000.0"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_bad_argument_raises_its_named_error(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # where a call that is not refused writes
    call, error, message = GUARDS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


# setting -> calls of the stage guards that apply its rule to a value
STAGE_GUARDS = {
    "sample_rate": (lambda v: audio(4, v),
                    lambda v: resample_linear(audio(4), v)),
    "frame_len": (lambda v: frame_signal(audio(10), v, 1),),
    "hop": (lambda v: frame_signal(audio(10), 2, v),),
    "n_fft": (lambda v: dft(np.zeros(2), v),
              lambda v: power_spectrogram(FrameMatrix(np.zeros((1, 2))), v),
              lambda v: spectral_subtract(audio(SR), 100, v, 1, 0)),
    "lead_ms": (lambda v: spectral_subtract(audio(SR), v, 256, 1, 0),),
    "alpha": (lambda v: spectral_subtract(audio(SR), 100, 256, v, 0),),
    "beta": (lambda v: spectral_subtract(audio(SR), 100, 256, 1, v),),
    "normalize_mode": (lambda v: normalize(audio(4), v, 1),),
    "normalize_target": (lambda v: normalize(audio(4), "peak", v),),
    "seg_len_s": (lambda v: segment(audio(100), v, PAD_ZERO_LAST),),
    "pad_policy": (lambda v: segment(audio(100), 1, v),),
    "pre_emphasis": (lambda v: pre_emphasis(audio(4), v),),
    "test_frac": (lambda v: stratified_split(table(), v, 0),),
    "n_trees": (lambda v: train_forest(table(), v, seed=0),),
    "mtry": (lambda v: train_forest(table(), 1, mtry=v, seed=0),),
}

VALUES = (st.sampled_from([0, -1, 1.5, 512.0, 2**64, 10**400, math.nan,
                           math.inf, -math.inf, 1e308, -1e-300, True, False,
                           None, "", "peak", "wrap", [], {}])
          | st.floats() | st.integers(-2, 2) | st.text(max_size=3))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(STAGE_GUARDS)), value=VALUES)
def test_stage_guards_refuse_what_the_config_refuses_alike(name, value):
    try:
        check_settings(**{name: value})
    except ConfigError as exc:
        rule = exc
    else:
        assume(False)   # a value the setting takes
    for call in (lambda v: PipelineConfig(**{name: v}), *STAGE_GUARDS[name]):
        with pytest.raises(ConfigError) as exc:
            call(value)
        assert type(exc.value) is type(rule)
        assert str(exc.value) == str(rule)
