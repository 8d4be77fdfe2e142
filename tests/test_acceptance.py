"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from audioanom.audio_io import AudioBuffer
from audioanom.config import PipelineConfig
from audioanom.dsp import dft, idft
from audioanom.features import (
    extract_clip_features,
    feature_schema,
    mfcc,
)
from audioanom.models import train_forest, feature_importance
from audioanom.evaluate import confusion_matrix, metrics
from audioanom.features import FeatureSet, FeatureVector
from audioanom.pipeline import run_pipeline
from audioanom.preprocess import spectral_subtract, nlms_cancel

from oracles import (half_padded_stft_frames, loop_noise_profile,
                     loop_spectral_subtract, mel_points_hz, recount_metrics)

SR = 16000


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def _oracle_mfcc_matrix(x, sr, cfg: PipelineConfig):
    """Independent MFCC chain: explicit DFT and DCT matrices, direct
    filterbank sums. Shares no transform code with the package."""
    fmax = cfg.fmax if cfg.fmax is not None else sr / 2
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - cfg.pre_emphasis * x[:-1]

    k = np.arange(cfg.frame_len)
    window = 0.5 * (1 - np.cos(2 * np.pi * k / cfg.frame_len))

    n = cfg.n_fft
    dft_matrix = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)

    pts = mel_points_hz(cfg.n_mels, cfg.fmin, fmax)
    n_bins = n // 2 + 1
    freqs = np.arange(n_bins) * sr / n
    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, center, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (center - lo)
        down = (hi - freqs) / (hi - center)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)

    nm = cfg.n_mels
    i = np.arange(nm)
    dct_matrix = np.cos(np.pi * np.outer(np.arange(nm), 2 * i + 1) / (2 * nm))
    scales = np.full(nm, np.sqrt(2.0 / nm))
    scales[0] = np.sqrt(1.0 / nm)

    num_frames = 1 + (len(y) - cfg.frame_len) // cfg.hop
    out = np.zeros((num_frames, cfg.n_coeffs))
    for f in range(num_frames):
        frame = np.zeros(n)
        frame[:cfg.frame_len] = y[f * cfg.hop:f * cfg.hop + cfg.frame_len] * window
        spectrum = dft_matrix @ frame
        power = np.abs(spectrum[:n_bins]) ** 2
        energies = fb @ power
        log_e = np.log(energies + 1e-10)
        out[f] = (scales * (dct_matrix @ log_e))[:cfg.n_coeffs]
    return out


def test_criterion_1_mfcc_oracle_equivalence():
    start = time.perf_counter()
    cfg = PipelineConfig()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 0.5, size=SR)
        got = mfcc(AudioBuffer(x, SR), cfg)
        expected = _oracle_mfcc_matrix(x, SR, cfg)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 30.0
    _report("criterion 1 (MFCC oracle equivalence)",
            f"max abs diff {worst:.2e} over 10 clips in {elapsed:.1f}s")


def test_criterion_2_dft_conformance():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    n_fft = 512
    for _ in range(1000):
        x = rng.normal(size=n_fft)
        X = dft(x, n_fft)
        time_energy = np.sum(x ** 2)
        assert abs(np.sum(np.abs(X) ** 2) / n_fft - time_energy) \
            <= 1e-6 * time_energy
        np.testing.assert_allclose(X[1:], np.conj(X[1:][::-1]), atol=1e-9)
        np.testing.assert_allclose(idft(X), x, atol=1e-9)

    y = rng.normal(size=n_fft)
    a, b = 1.3, -2.1
    np.testing.assert_allclose(dft(a * x + b * y, n_fft),
                               a * dft(x, n_fft) + b * dft(y, n_fft),
                               atol=1e-9)

    cos8 = np.cos(2 * np.pi * np.arange(8) / 8)
    expected = np.zeros(8, dtype=complex)
    expected[1] = expected[7] = 4.0
    np.testing.assert_allclose(dft(cos8, 8), expected, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 2 (DFT conformance)",
            f"1000 frames, all invariants within tolerance in {elapsed:.1f}s")


def test_criterion_3_spectral_subtraction_efficacy():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    n = 2 * SR
    lead = SR // 2
    t = np.arange(n - lead) / SR
    tone = 0.1 * np.sin(2 * np.pi * 1000.0 * t)
    tone_rms = np.sqrt(np.mean(tone ** 2))
    noise = rng.normal(0, tone_rms, size=n)
    clean = np.zeros(n)
    clean[lead:] = tone
    noisy = clean + noise

    buf = AudioBuffer(noisy, SR)
    out = spectral_subtract(buf, lead / SR * 1000.0, 512, alpha=2.0,
                            beta=0.01)

    def snr(ref, sig):
        return 10 * np.log10(np.sum(ref ** 2) / np.sum((sig - ref) ** 2))

    gain = snr(clean[lead:], out.samples[lead:]) - snr(clean[lead:],
                                                       noisy[lead:])
    assert gain >= 5.0

    frames = half_padded_stft_frames(noisy, 512)
    mag = np.abs(np.fft.rfft(frames, axis=1))
    noise = loop_noise_profile(noisy, lead, 512)
    new_mag = np.maximum(mag - 2.0 * noise, 0.01 * mag)
    assert np.all(new_mag >= 0.01 * mag - 1e-12)
    expected = loop_spectral_subtract(noisy, noise, 2.0, 0.01, 512)
    assert np.all(np.abs(out.samples - expected)
                  <= 1e-12 * np.maximum(1.0, np.abs(noisy)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 3 (spectral subtraction efficacy)",
            f"SNR gain {gain:.1f} dB (>= 5), floor invariant on all frames, "
            f"{elapsed:.1f}s")


def test_criterion_4_nlms_convergence():
    start = time.perf_counter()
    w_true = np.array([0.9, -0.4, 0.25, 0.1, -0.3, 0.2, -0.05, 0.15])
    misalignments = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=5000)
        d = np.convolve(r, w_true)[:5000]
        _, state = nlms_cancel(AudioBuffer(d, SR), AudioBuffer(r, SR),
                               mu=0.5, taps=8)
        err = np.sum((state.weights - w_true) ** 2) / np.sum(w_true ** 2)
        misalignments.append(10 * np.log10(err + 1e-300))
    median = float(np.median(misalignments))
    elapsed = time.perf_counter() - start
    assert median < -20.0
    assert elapsed < 10.0
    _report("criterion 4 (NLMS convergence)",
            f"median misalignment {median:.1f} dB (< -20) over 20 seeds, "
            f"{elapsed:.1f}s")


# 14, 24 and 27 are the seeds of 0-39 that failed when svm_lambda was 1e-3
@pytest.mark.parametrize("seed", [14, 24, 27, 42])
def test_criterion_5_end_to_end_separability(tmp_path, seed):
    start = time.perf_counter()
    cfg = PipelineConfig(n_per_class=100, seed=seed).validate()
    paths = run_pipeline(cfg, tmp_path / "run")

    accs = {}
    for name in ("forest", "svm", "ensemble"):
        with open(paths[f"report_{name}"]) as fh:
            accs[name] = float(json.load(fh)["accuracy"])
    assert accs["forest"] >= 0.95
    assert accs["ensemble"] >= max(accs["forest"], accs["svm"]) - 0.02

    with open(paths["report_ensemble"]) as fh:
        report = json.load(fh)
    assert len(report["confusion_matrix"]) == 2
    for cls in report["class_names"]:
        assert "precision" in report["per_class"][cls]
        assert "recall" in report["per_class"][cls]
    assert len(report["importance_top10"]) == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(f"criterion 5 (end-to-end separability, seed {seed})",
            f"forest {accs['forest']:.3f}, svm {accs['svm']:.3f}, "
            f"ensemble {accs['ensemble']:.3f}, {elapsed:.1f}s")


def test_criterion_6_metrics_correctness():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 50))
        y_true = rng.integers(0, k, size=n).tolist()
        y_pred = rng.integers(0, k, size=n).tolist()
        cm = confusion_matrix(y_true, y_pred, k)
        report = metrics(cm, seed=0)
        ref_cm, ref_acc, ref_p, ref_r = recount_metrics(y_true, y_pred, k)
        np.testing.assert_array_equal(cm.counts, ref_cm)
        assert abs(report.accuracy - ref_acc) <= 1e-12
        for c in range(k):
            assert abs(report.per_class[c][0] - ref_p[c]) <= 1e-12
            assert abs(report.per_class[c][1] - ref_r[c]) <= 1e-12
        rows = cm.counts.sum(axis=1)
        weighted = sum(report.per_class[c][1] * rows[c] / cm.total
                       for c in range(k))
        assert abs(report.accuracy - weighted) <= 1e-12
    _report("criterion 6 (metrics correctness)",
            "1000 random label sets match brute-force recount; "
            "weighted-recall identity within 1e-12")


def test_criterion_7_determinism(tmp_path):
    from audioanom.cli import main

    args = ["pipeline", "--n-per-class", "6", "--seed", "42",
            "--n-trees", "10", "--svm-epochs", "10"]
    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    # the same settings from a config file instead of flags
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_per_class": 6, "seed": 42, "n_trees": 10,
                               "svm_epochs": 10}))
    assert main(["pipeline", "--config", str(cfg), "--out", str(outs[2])]) == 0

    compared = 0
    for name in ("features.csv", "model_forest.json", "model_svm.json",
                 "model_ensemble.json", "report_forest.json",
                 "report_svm.json", "report_ensemble.json"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref
        compared += 1
    _report("criterion 7 (determinism)",
            f"{compared} artifacts byte-identical across 3 runs")


def test_criterion_8_importance_sanity():
    rng = np.random.default_rng(808)
    n = 200
    X = rng.normal(size=(n, 10))
    labels = ["anomalous" if x[0] > 0.0 else "normal" for x in X]
    names = tuple(f"f{i}" for i in range(10))
    vectors = [FeatureVector(names, X[i], clip_id=f"c{i}", label=labels[i])
               for i in range(n)]
    data = FeatureSet(vectors, names, ("anomalous", "normal"))
    forest = train_forest(data, n_trees=30, mtry=3, seed=8)
    ranked = feature_importance(forest)
    assert ranked[0][0] == "f0"
    total = sum(v for _, v in ranked)
    assert abs(total - 1.0) <= 1e-9
    _report("criterion 8 (importance sanity)",
            f"informative feature ranks first with weight {ranked[0][1]:.3f}; "
            f"importances sum to {total:.12f}")


def test_criterion_9_loudness_invariance():
    rng = np.random.default_rng(909)
    x = rng.uniform(-0.45, 0.45, size=SR)  # 2x gain stays below clipping
    cfg = PipelineConfig()
    base_mfcc = mfcc(AudioBuffer(x, SR), cfg)
    names = feature_schema(cfg.n_coeffs)
    base = dict(zip(names, extract_clip_features(AudioBuffer(x, SR), cfg)))
    for g in (0.5, 2.0):
        scaled_mfcc = mfcc(AudioBuffer(g * x, SR), cfg)
        np.testing.assert_allclose(scaled_mfcc[:, 1:], base_mfcc[:, 1:],
                                   atol=1e-6)
        assert np.max(np.abs(scaled_mfcc[:, 0] - base_mfcc[:, 0])) > 1e-3

        values = dict(zip(names,
                          extract_clip_features(AudioBuffer(g * x, SR), cfg)))
        for name in ("ZCR_mean", "ZCR_std", "Centroid_mean", "Centroid_std"):
            assert abs(values[name] - base[name]) <= \
                1e-9 * max(1.0, abs(base[name]))
    _report("criterion 9 (loudness invariance)",
            "gains 0.5/2.0 shift only MFCC coefficient 1; ZCR and centroid "
            "unchanged")
