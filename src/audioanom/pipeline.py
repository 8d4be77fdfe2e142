"""End-to-end wiring of the stages: preprocess clips into segments, extract
features, train the three models, evaluate, and run the whole chain from a
single config + seed. The CLI is a thin wrapper around these functions.
"""

from __future__ import annotations

import contextlib
import functools
import os

from .audio_io import AudioBuffer, read_wav, resample_linear, write_wav
from .config import PipelineConfig
from .errors import ConfigError, SignalTooShort, TooShortForProfile
from .evaluate import (
    EvaluationReport,
    _round_half_up,
    emit_report,
    metrics,
    predict_confusion,
    stratified_split,
)
from .features import (
    FeatureSet,
    _mel_bank,
    extract_clip_features,
    feature_schema,
    save_featureset,
)
from .models import (
    EnsembleModel,
    RandomForest,
    _check_mtry,
    feature_importance,
    save_model,
    train_forest,
    train_svm,
)
from .parallel import pool_map
from .preprocess import n_segments, normalize, segment, spectral_subtract
from .synthgen import render_clip, write_manifest


def preprocess_clip(buf: AudioBuffer, cfg: PipelineConfig):
    """Noise reduction -> normalization -> segmentation for one clip.

    Clips too short to estimate a noise profile skip spectral subtraction
    rather than failing: short inputs are degraded, not rejected.
    """
    buf = resample_linear(buf, cfg.sample_rate)
    with contextlib.suppress(TooShortForProfile):
        buf = spectral_subtract(buf, cfg.lead_ms, cfg.n_fft, cfg.alpha,
                                cfg.beta)
    buf = normalize(buf, cfg.normalize_mode, cfg.normalize_target)
    return segment(buf, cfg.seg_len_s, cfg.pad_policy).segments


def _write_segments(clip_id, label, segments, out_dir) -> tuple:
    """Write one clip's segments as WAVs; returns their manifest rows and
    the written segments, as read_wav reads them back."""
    seg_rows, written = [], []
    for j, seg in enumerate(segments):
        seg_id = f"{clip_id}_seg{j:03d}"
        seg_path = os.path.join(out_dir, seg_id + ".wav")
        written.append(write_wav(seg, seg_path))
        seg_rows.append((seg_id, seg_path, label))
    return seg_rows, written


def _preprocess_row(cfg: PipelineConfig, out_dir, row) -> list:
    """Write one manifest clip's segment WAVs into out_dir; returns their
    manifest rows."""
    clip_id, path, label = row
    segments = preprocess_clip(read_wav(path), cfg)
    return _write_segments(clip_id, label, segments, out_dir)[0]


def preprocess_manifest(rows, cfg: PipelineConfig, out_dir) -> list:
    """Write every manifest clip's segment WAVs into out_dir, one clip per
    pool_map task; returns the segment manifest rows sorted by (clip_id,
    segment index). A failure is the lowest failing clip's."""
    os.makedirs(out_dir, exist_ok=True)
    clips = pool_map(functools.partial(_preprocess_row, cfg, out_dir),
                     sorted(rows, key=lambda r: r[0]))
    return [seg_row for clip_seg_rows in clips for seg_row in clip_seg_rows]


def write_segment_manifest(seg_rows, path) -> None:
    write_manifest(seg_rows, path)


def _row_values(cfg: PipelineConfig, row):
    """The feature values of one (segment) manifest row; SignalTooShort
    names the clip and file of a segment shorter than one frame."""
    seg_id, path, _ = row
    try:
        return extract_clip_features(
            resample_linear(read_wav(path), cfg.sample_rate), cfg)
    except SignalTooShort as exc:
        raise SignalTooShort(f"clip {seg_id!r} ({path}): {exc}") from exc


def extract_manifest(rows, cfg: PipelineConfig) -> FeatureSet:
    """The feature table of the (segment) manifest rows, in row order, one
    row per pool_map task; a failure is the lowest failing row's."""
    rows = list(rows)
    values = pool_map(functools.partial(_row_values, cfg), rows)
    return FeatureSet.of(feature_schema(cfg.n_coeffs), values,
                         [r[0] for r in rows], [r[2] for r in rows])


def _run_clip(cfg: PipelineConfig, corpus_dir, seg_dir, i) -> tuple:
    """Clip i through synth, preprocess and extract, writing its corpus and
    segment WAVs. Returns its manifest row, its segment rows and their
    feature values, which equal the file-based stages' because every stage
    reads the samples its WAVs hold: those write_wav returns, already at
    cfg.sample_rate since preprocess_clip resampled them."""
    clip_id, label, buf = render_clip(cfg, i)
    path = os.path.join(corpus_dir, clip_id + ".wav")
    segments = preprocess_clip(write_wav(buf, path), cfg)
    seg_rows, written = _write_segments(clip_id, label, segments, seg_dir)
    return ((clip_id, path, label), seg_rows,
            [extract_clip_features(seg, cfg) for seg in written])


def _front_end(cfg: PipelineConfig, corpus_dir, seg_dir) -> tuple:
    """synth -> preprocess -> extract, one clip per pool_map task. Returns
    the corpus rows in clip order and the segment rows and feature set in
    clip_id order, as generate_corpus, preprocess_manifest and
    extract_manifest give them; a failure is the lowest failing clip's."""
    os.makedirs(corpus_dir, exist_ok=True)
    os.makedirs(seg_dir, exist_ok=True)
    clips = pool_map(functools.partial(_run_clip, cfg, corpus_dir, seg_dir),
                     range(2 * cfg.n_per_class))
    seg_rows, values = [], []
    for _, clip_seg_rows, clip_values in sorted(clips, key=lambda c: c[0][0]):
        seg_rows += clip_seg_rows
        values += clip_values
    features = FeatureSet.of(feature_schema(cfg.n_coeffs), values,
                             [r[0] for r in seg_rows],
                             [r[2] for r in seg_rows])
    return [row for row, _, _ in clips], seg_rows, features


def train_models(train: FeatureSet, cfg: PipelineConfig) -> dict:
    """Fit forest, SVM, and their soft-voting ensemble."""
    forest = train_forest(train, n_trees=cfg.n_trees, mtry=cfg.mtry,
                          max_depth=cfg.max_depth,
                          min_samples_leaf=cfg.min_samples_leaf,
                          seed=cfg.seed)
    svm = train_svm(train, lam=cfg.svm_lambda, epochs=cfg.svm_epochs,
                    seed=cfg.seed)
    # saved weights sum to 1 as far as floats allow, and load as saved
    total = cfg.forest_weight + cfg.svm_weight
    ensemble = EnsembleModel([(forest, cfg.forest_weight / total),
                              (svm, cfg.svm_weight / total)])
    return {"forest": forest, "svm": svm, "ensemble": ensemble}


def _forest_of(model):
    if isinstance(model, RandomForest):
        return model
    if isinstance(model, EnsembleModel):
        for member, _ in model.members:
            if isinstance(member, RandomForest):
                return member
    return None


def evaluate_model(model, test: FeatureSet,
                   config_echo: dict) -> EvaluationReport:
    """The report of model on test; config_echo holds the config fields
    that made it, seed among them."""
    cm = predict_confusion(model, test)
    forest = _forest_of(model)
    top10 = feature_importance(forest)[:10] if forest is not None else None
    return metrics(cm, importance_top10=top10, config_echo=config_echo,
                   seed=config_echo["seed"])


def _check_split_rows(cfg: PipelineConfig) -> None:
    """Raise ConfigError when the synthetic corpus, cut into segments and
    split, would leave a class without training or test rows."""
    per_clip = n_segments(int(round(cfg.clip_s * cfg.sample_rate)),
                          int(round(cfg.seg_len_s * cfg.sample_rate)),
                          cfg.pad_policy)
    cut = (f"clip_s {cfg.clip_s} s cut at seg_len_s {cfg.seg_len_s} s with "
           f"pad_policy {cfg.pad_policy!r}")
    if per_clip == 0:
        raise ConfigError(f"each clip of {cut} gives no segment")
    rows = cfg.n_per_class * per_clip
    n_test = _round_half_up(cfg.test_frac * rows)
    if not 0 < n_test < rows:
        raise ConfigError(
            f"n_per_class {cfg.n_per_class} clips of {cut} give {rows} rows "
            f"per class, and test_frac {cfg.test_frac} puts {n_test} of them "
            f"in the test set: no {'test' if n_test == 0 else 'training'} "
            "rows are left")


def run_pipeline(cfg: PipelineConfig, out_dir) -> dict:
    """synth -> preprocess -> extract -> split -> train -> evaluate.

    Returns the paths of everything written. Deterministic for a fixed
    (config, seed): rerunning yields byte-identical files.
    """
    # settings that leave the split a class without rows, an mtry beyond
    # the feature count or a degenerate mel bank fail here, before any file
    # is written; the forked workers inherit the cached bank
    _check_split_rows(cfg)
    _check_mtry(cfg.mtry, len(feature_schema(cfg.n_coeffs)))
    _mel_bank(cfg, cfg.sample_rate)
    os.makedirs(out_dir, exist_ok=True)
    corpus_dir = os.path.join(out_dir, "corpus")
    seg_dir = os.path.join(out_dir, "segments")

    rows, seg_rows, features = _front_end(cfg, corpus_dir, seg_dir)
    write_manifest(rows, os.path.join(corpus_dir, "manifest.csv"))
    seg_manifest = os.path.join(out_dir, "segments.csv")
    write_segment_manifest(seg_rows, seg_manifest)

    features_csv = os.path.join(out_dir, "features.csv")
    save_featureset(features, features_csv)

    train, test = stratified_split(features, cfg.test_frac, cfg.seed)
    train_csv = os.path.join(out_dir, "train.csv")
    test_csv = os.path.join(out_dir, "test.csv")
    save_featureset(train, train_csv)
    save_featureset(test, test_csv)

    models = train_models(train, cfg)
    paths = {
        "corpus_dir": corpus_dir,
        "segment_manifest": seg_manifest,
        "features_csv": features_csv,
        "train_csv": train_csv,
        "test_csv": test_csv,
    }
    for name, model in models.items():
        model_path = os.path.join(out_dir, f"model_{name}.json")
        save_model(model, model_path)
        report = evaluate_model(model, test, cfg.to_dict())
        report_path = os.path.join(out_dir, f"report_{name}.json")
        emit_report(report, report_path)
        paths[f"model_{name}"] = model_path
        paths[f"report_{name}"] = report_path
    return paths
