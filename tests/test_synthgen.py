import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audioanom.audio_io import AudioBuffer, read_wav, write_wav
from audioanom.config import (JITTER_SIGMA_HZ_LIMIT, SNR_DB_LIMIT,
                              PipelineConfig)
from audioanom.dsp import frame_signal
from audioanom.errors import ConfigError, MalformedManifest
from audioanom.features import zero_crossing_rate
from audioanom.synthgen import generate_corpus, load_manifest, render_clip


def small_spec(**kwargs):
    defaults = dict(n_per_class=5, seed=42, clip_s=1.0)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_corpus_counts_and_manifest(tmp_path):
    rows = generate_corpus(small_spec(), tmp_path / "corpus")
    assert len(rows) == 10
    labels = [label for _, _, label in rows]
    assert labels.count("normal") == 5
    assert labels.count("anomalous") == 5
    manifest = load_manifest(tmp_path / "corpus" / "manifest.csv")
    assert [tuple(r) for r in manifest] == rows


def test_corpus_byte_identical_regeneration(tmp_path):
    rows1 = generate_corpus(small_spec(), tmp_path / "a")
    rows2 = generate_corpus(small_spec(), tmp_path / "b")
    for (_, p1, _), (_, p2, _) in zip(rows1, rows2):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_corpus_different_seed_differs(tmp_path):
    rows1 = generate_corpus(small_spec(seed=1), tmp_path / "a")
    rows2 = generate_corpus(small_spec(seed=2), tmp_path / "b")
    assert open(rows1[0][1], "rb").read() != open(rows2[0][1], "rb").read()


def test_samples_within_bounds(tmp_path):
    rows = generate_corpus(small_spec(n_per_class=10), tmp_path / "corpus")
    for _, path, _ in rows:
        buf = read_wav(path)
        assert np.max(np.abs(buf.samples)) <= 0.95


def test_invalid_spec_rejected(tmp_path):
    with pytest.raises(ConfigError, match="n_per_class"):
        PipelineConfig(n_per_class=0).validate()
    with pytest.raises(ConfigError, match="0.3 s noise-only lead"):
        PipelineConfig(clip_s=0.2).validate()
    with pytest.raises(ConfigError, match="0.3 s noise-only lead"):
        generate_corpus(PipelineConfig(clip_s=0.2), tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("snr_db", [-SNR_DB_LIMIT, SNR_DB_LIMIT])
def test_extreme_snr_renders_finite_nonzero_clips(tmp_path, snr_db):
    # both classes at the most extreme accepted level on each side: the
    # float clip and the samples its WAV holds are finite and not all zero
    cfg = PipelineConfig(snr_db=snr_db, n_per_class=1).validate()
    for i in (0, 1):
        _, label, buf = render_clip(cfg, i)
        written = write_wav(buf, tmp_path / f"{label}.wav")
        for samples in (buf.samples, written.samples):
            assert np.all(np.isfinite(samples)) and samples.any(), label
    with pytest.raises(ConfigError, match="snr_db"):
        PipelineConfig(snr_db=np.nextafter(snr_db, 2 * snr_db)).validate()


def test_extreme_jitter_renders_finite_nonzero_clip(tmp_path):
    # the pitch walk at the largest accepted step stays finite
    cfg = PipelineConfig(jitter_sigma_hz=JITTER_SIGMA_HZ_LIMIT,
                         n_per_class=1).validate()
    _, label, buf = render_clip(cfg, 1)
    assert label == "anomalous"
    written = write_wav(buf, tmp_path / "anomalous.wav")
    for samples in (buf.samples, written.samples):
        assert np.all(np.isfinite(samples)) and samples.any()
    with pytest.raises(ConfigError, match="jitter_sigma_hz"):
        PipelineConfig(jitter_sigma_hz=np.nextafter(
            JITTER_SIGMA_HZ_LIMIT, np.inf)).validate()


def _frame_zcr_variance(buf, skip_s=0.3):
    # skip the noise-only lead: both classes share it, and its noise ZCR
    # would swamp the tonal jitter being measured
    tonal = AudioBuffer(buf.samples[int(skip_s * buf.sample_rate):],
                        buf.sample_rate)
    fm = frame_signal(tonal, 400, 160)
    zcrs = [float(zero_crossing_rate(fr)) for fr in fm.frames]
    return np.var(zcrs)


def test_anomalous_class_has_more_pitch_instability(tmp_path):
    # f0 jitter shows up as higher frame-to-frame zero-crossing variance
    rows = generate_corpus(small_spec(n_per_class=20, clip_s=2.0),
                           tmp_path / "corpus")
    by_label = {"normal": [], "anomalous": []}
    for _, path, label in rows:
        by_label[label].append(_frame_zcr_variance(read_wav(path)))
    assert np.mean(by_label["anomalous"]) > np.mean(by_label["normal"])


VALID_MANIFEST = (b"clip_id,path,label\nc0,c0.wav,normal\n"
                  b"c1,sub/c1.wav,anomalous\n\"c,2\",\"a b.wav\",normal\n")
MANIFEST_BYTES = [bytes([c]) for c in b',"\n\r\0/\\ \t\xff\xfe']


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("manifests")


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_manifest_loads_or_is_malformed(manifest_dir, data):
    # any other exception would reach the CLI as a traceback
    raw = VALID_MANIFEST
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(raw)))
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        byte = data.draw(st.sampled_from(MANIFEST_BYTES))
        if edit == "insert":
            raw = raw[:at] + byte + raw[at:]
        else:
            raw = raw[:at] + (byte if edit == "replace" else b"") + \
                raw[at + 1:]
    path = manifest_dir / "manifest.csv"
    path.write_bytes(raw)
    try:
        rows = load_manifest(path)
    except MalformedManifest:
        return
    ids = [clip_id for clip_id, _, _ in rows]
    assert len(set(ids)) == len(ids)
    for clip_id, file_path, label in rows:
        assert not any(c in clip_id for c in "\r\n/\0")
        assert "\0" not in file_path and not any(c in label for c in "\r\n")
