"""Each library function's argument guards: the error class and message a
bad argument raises. The CLI's config validation keeps most of these
arguments in range, so nothing else reaches these lines. A bad
PipelineConfig setting is refused when the config is made, so no stage
sees it."""

import os

import numpy as np
import pytest

from audioanom.audio_io import AudioBuffer, resample_linear, write_wav
from audioanom.config import PipelineConfig
from audioanom.dsp import (FrameMatrix, dft, frame_signal, hann_window,
                           power_spectrogram)
from audioanom.errors import ConfigError, EmptyAudio, LengthMismatch
from audioanom.evaluate import cross_validate, stratified_split
from audioanom.features import FeatureSet, FeatureVector
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
                          "sample_rate must be positive, got 0"),
    "write-wav-empty": (lambda: write_wav(audio(0), os.devnull), EmptyAudio,
                        "refusing to write an empty buffer"),
    "resample-target": (lambda: resample_linear(audio(4), 0), ConfigError,
                        "target_rate must be positive, got 0"),
    "resample-empty": (lambda: resample_linear(audio(0, 8000), SR),
                       EmptyAudio, "refusing to resample an empty buffer"),
    "hann-window": (lambda: hann_window(1), ConfigError,
                    "window length must be >= 2, got 1"),
    "dft-long-frame": (lambda: dft(np.zeros(5), 4), ConfigError,
                       "frame length 5 exceeds n_fft 4"),
    "frame-len": (lambda: frame_signal(audio(10), 1, 1), ConfigError,
                  "frame_len must be >= 2, got 1"),
    "frame-hop": (lambda: frame_signal(audio(10), 2, 0), ConfigError,
                  "hop must be >= 1, got 0"),
    "power-spectrogram": (
        lambda: power_spectrogram(FrameMatrix(np.zeros((1, 8))), 4),
        ConfigError, "frame_len 8 exceeds n_fft 4"),
    "split-test-frac": (lambda: stratified_split(table(), 1.0, 0),
                        ConfigError, "test_frac must be in (0, 1), got 1.0"),
    "cv-k": (lambda: cross_validate(table(), 1, None, 0), ConfigError,
             "k must be >= 2, got 1"),
    "forest-n-trees": (lambda: train_forest(table(), 0, seed=0), ConfigError,
                       "n_trees must be >= 1, got 0"),
    "subtract-alpha": (lambda: spectral_subtract(audio(SR), 100, 256, -1, 0),
                       ConfigError, "alpha must be >= 0, got -1"),
    "subtract-beta": (lambda: spectral_subtract(audio(SR), 100, 256, 1, 2),
                      ConfigError, "beta must be in [0, 1], got 2"),
    "nlms-rates": (lambda: nlms_cancel(audio(4), audio(4, 8000)),
                   LengthMismatch, "primary and reference sample rates differ"),
    "nlms-mu": (lambda: nlms_cancel(audio(4), audio(4), mu=2), ConfigError,
                "mu must be in (0, 2), got 2"),
    "nlms-taps": (lambda: nlms_cancel(audio(4), audio(4), taps=0),
                  ConfigError, "taps must be >= 1, got 0"),
    "normalize-target": (lambda: normalize(audio(4), "peak", 0), ConfigError,
                         "target must be positive, got 0"),
    "normalize-mode": (lambda: normalize(audio(4), "loud", 1), ConfigError,
                       "unknown normalization mode 'loud'"),
    "segment-length": (lambda: segment(audio(100), 0, PAD_ZERO_LAST),
                       ConfigError, "seg_len_s must be at least one sample, "
                       "got 0 at 16000 Hz"),
    # positive, but rounds to 0 samples
    "segment-sub-sample": (lambda: segment(audio(100), 1e-5, PAD_ZERO_LAST),
                           ConfigError, "seg_len_s must be at least one "
                           "sample, got 1e-05 at 16000 Hz"),
    "segment-pad-policy": (lambda: segment(audio(100), 1, "wrap"),
                           ConfigError, "unknown pad policy 'wrap'"),
    # unrefused, run_pipeline would write a model_ensemble.json that
    # load_model refuses, and render_clip a clip with no finite sample
    "pipeline-negative-weight": (
        lambda: run_pipeline(PipelineConfig(
            n_per_class=4, n_trees=3, svm_epochs=1, forest_weight=-1.0,
            svm_weight=2.0), "out"),
        ConfigError, "ensemble weights must be non-negative with a positive, "
        "finite sum"),
    "render-clip-snr": (
        lambda: render_clip(PipelineConfig(snr_db=-7000.0, n_per_class=1), 0),
        ConfigError, "snr_db must be within +-1000 dB, so that the noise "
        "level of each class is a positive, finite float"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_bad_argument_raises_its_named_error(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # where a call that is not refused writes
    call, error, message = GUARDS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
