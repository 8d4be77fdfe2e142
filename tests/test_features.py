import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from audioanom import features
from audioanom.audio_io import AudioBuffer, read_wav
from audioanom.config import PipelineConfig
from audioanom.dsp import frame_signal, hann_window
from audioanom.errors import (DegenerateFilter, FrameTooShort,
                              MalformedFeatureFile, NonFiniteFeature,
                              SignalTooShort)
from audioanom.features import (
    extract_clip_features,
    feature_schema,
    FeatureSet,
    FeatureVector,
    hz_to_mel,
    load_featureset,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    pre_emphasis,
    save_featureset,
    spectral_centroid,
    zero_crossing_rate,
)

from audioanom.pipeline import preprocess_clip
from audioanom.synthgen import generate_corpus

from oracles import float_cells, mel_points_hz, naive_dct2_ortho, naive_mfcc

SR = 16000


# --- pre_emphasis ---

def test_pre_emphasis_zero_coeff_identity():
    buf = AudioBuffer([0.1, 0.2, 0.3], SR)
    assert pre_emphasis(buf, 0.0) is buf


def test_pre_emphasis_constant():
    out = pre_emphasis(AudioBuffer(np.ones(5), SR), 0.97)
    np.testing.assert_allclose(out.samples, [1.0, 0.03, 0.03, 0.03, 0.03])


def test_pre_emphasis_alternating():
    out = pre_emphasis(AudioBuffer([1, -1, 1, -1], SR), 0.97)
    np.testing.assert_allclose(out.samples, [1.0, -1.97, 1.97, -1.97])


# --- mel scale ---

def test_mel_of_zero():
    assert hz_to_mel(0.0) == 0.0


def test_mel_of_700():
    assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))


def test_mel_inverse_composition():
    for f in (100.0, 1000.0, 4000.0):
        assert mel_to_hz(hz_to_mel(f)) == pytest.approx(f, rel=1e-9)


# --- mel_filterbank ---

def test_filterbank_rows_nonnegative_unimodal():
    fb = mel_filterbank(PipelineConfig(), SR)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    for row in fb:
        support = np.nonzero(row)[0]
        assert len(support) > 0
        diffs = np.diff(row[support[0]:support[-1] + 1])
        # rises then falls: once a difference goes negative it stays negative
        signs = np.sign(diffs)
        if len(signs):
            first_fall = np.argmax(signs < 0) if np.any(signs < 0) else len(signs)
            assert np.all(signs[:first_fall] >= 0)
            assert np.all(signs[first_fall:] <= 0)


def test_filterbank_interior_overlap_bounds():
    cfg = PipelineConfig()
    fb = mel_filterbank(cfg, SR)
    pts = mel_points_hz(cfg.n_mels, 0.0, SR / 2)
    freqs = np.arange(257) * SR / cfg.n_fft
    interior = (freqs > pts[1]) & (freqs < pts[-2])
    sums = fb.sum(axis=0)[interior]
    assert np.all(sums > 0)
    assert np.all(sums <= 2.0 + 1e-12)


def test_filterbank_centers_match_independent_recomputation():
    cfg = PipelineConfig()
    fb = mel_filterbank(cfg, SR)
    centers_hz = mel_points_hz(cfg.n_mels, 0.0, SR / 2)[1:-1]
    expected_bins = np.floor(centers_hz * cfg.n_fft / SR).astype(int)
    # the filter's peak bin is the last bin at or below its center frequency
    for m, center_bin in enumerate(expected_bins):
        peak_bin = np.argmax(fb[m])
        assert abs(peak_bin - center_bin) <= 1


def test_filterbank_degenerate_config_rejected():
    with pytest.raises(DegenerateFilter):
        mel_filterbank(PipelineConfig(n_mels=26, n_coeffs=13, n_fft=64), SR)
    # one filter between two FFT bins, or in a band so narrow that its
    # weights come out 0/0, weighs no bin
    for fmin, fmax in ((10.0, 20.0), (0.0, 1e-300)):
        with pytest.raises(DegenerateFilter, match="onto none"):
            mel_filterbank(PipelineConfig(n_mels=1, n_coeffs=1, fmin=fmin,
                                          fmax=fmax), SR)


@pytest.fixture
def fresh_mel_cache():
    features._mel_bank.cache_clear()
    yield
    features._mel_bank.cache_clear()


def test_filterbank_built_once_per_config(monkeypatch, fresh_mel_cache):
    built = []

    def counting(config, sample_rate):
        built.append((config, sample_rate))
        return mel_filterbank(config, sample_rate)

    monkeypatch.setattr(features, "mel_filterbank", counting)
    rng = np.random.default_rng(29)
    for _ in range(3):
        extract_clip_features(AudioBuffer(rng.normal(0, 0.1, size=SR), SR))
    assert built == [(PipelineConfig(), SR)]
    other = PipelineConfig(n_mels=20)
    extract_clip_features(AudioBuffer(rng.normal(0, 0.1, size=SR), SR), other)
    mfcc(AudioBuffer(rng.normal(0, 0.1, size=SR), SR), other)
    assert built == [(PipelineConfig(), SR), (other, SR)]


def _dense(layout, n_bins):
    """The (n_filters, n_bins) bank a _mel_bank layout stands for."""
    bins, weights, starts = layout
    fb = np.zeros((len(starts), n_bins))
    fb[np.repeat(np.arange(len(starts)),
                 np.diff(starts, append=len(bins))), bins] = weights
    return fb


def test_cached_filterbank_is_read_only(fresh_mel_cache):
    layout = features._mel_bank(PipelineConfig(), SR)
    fb = mel_filterbank(PipelineConfig(), SR)
    np.testing.assert_array_equal(_dense(layout, fb.shape[1]), fb)
    for a in layout:
        with pytest.raises(ValueError):
            a[0] = 1


@settings(deadline=None)
@given(st.data())
def test_sparse_mel_projection_matches_dense_bank(data):
    sr = data.draw(st.integers(100, 48000))
    nyquist = sr / 2
    fmin = data.draw(st.floats(0, nyquist, exclude_max=True))
    cfg = PipelineConfig(
        sample_rate=sr, frame_len=2, n_fft=2 ** data.draw(st.integers(1, 11)),
        n_mels=data.draw(st.integers(1, 40)), n_coeffs=1, fmin=fmin,
        fmax=data.draw(st.none() | st.floats(fmin, nyquist,
                                             exclude_min=True)))
    cfg.validate()
    try:
        fb = mel_filterbank(cfg, sr)
    except DegenerateFilter:
        assume(False)
    layout = features._mel_bank.__wrapped__(cfg, sr)
    bins, weights, starts = layout
    np.testing.assert_array_equal(_dense(layout, fb.shape[1]), fb)
    # reduceat sums an empty run as the next run's first term, not as 0
    assert np.all(np.diff(starts, append=len(bins)) > 0)
    assert np.all(np.isfinite(weights))
    power = np.random.default_rng(data.draw(st.integers(0, 2 ** 32))).random(
        (data.draw(st.integers(1, 5)), fb.shape[1]))
    # the projection mfcc computes, against the dense matrix product
    np.testing.assert_allclose(
        np.add.reduceat(power[:, bins] * weights, starts, axis=1),
        power @ fb.T, rtol=1e-12, atol=0)


# --- mfcc ---

def test_mfcc_silence_is_dc_only():
    buf = AudioBuffer(np.zeros(SR), SR)
    coeffs = mfcc(buf)
    expected_c1 = np.sqrt(26) * np.log(1e-10)
    np.testing.assert_allclose(coeffs[:, 0], expected_c1, rtol=1e-9)
    np.testing.assert_allclose(coeffs[:, 1:], 0.0, atol=1e-9)


def test_mfcc_shape_and_finiteness():
    rng = np.random.default_rng(21)
    buf = AudioBuffer(rng.normal(0, 0.1, size=SR), SR)
    coeffs = mfcc(buf)
    assert coeffs.shape == (1 + (SR - 400) // 160, 13)
    assert np.all(np.isfinite(coeffs))


def test_mfcc_too_short():
    with pytest.raises(SignalTooShort):
        mfcc(AudioBuffer(np.zeros(100), SR))


def test_mfcc_matches_naive_oracle():
    # short clips keep the O(n^2) oracle fast; full-length run lives in the
    # acceptance suite
    rng = np.random.default_rng(22)
    for _ in range(3):
        x = rng.uniform(-0.5, 0.5, size=1200)
        got = mfcc(AudioBuffer(x, SR))
        expected = naive_mfcc(x, SR)
        assert np.max(np.abs(got - expected)) < 1e-6


def test_mfcc_amplitude_shift_covariance():
    # gain changes only the DC cepstral coefficient
    rng = np.random.default_rng(23)
    x = rng.uniform(-0.4, 0.4, size=SR)
    base = mfcc(AudioBuffer(x, SR))
    for g in (0.5, 2.0):
        scaled = mfcc(AudioBuffer(g * x, SR))
        np.testing.assert_allclose(scaled[:, 1:], base[:, 1:], atol=1e-6)
        shift = scaled[:, 0] - base[:, 0]
        np.testing.assert_allclose(shift, shift[0], atol=1e-6)


# --- zero_crossing_rate ---

def test_zcr_constant():
    assert float(zero_crossing_rate(np.full(100, 0.5))) == 0.0


def test_zcr_alternating():
    assert float(zero_crossing_rate(np.array([1.0, -1.0, 1.0, -1.0]))) == 1.0


def test_zcr_one_period_sine():
    # one full period of 1 kHz at 16 kHz, started mid-arc so the period
    # wraps: positive run, negative run, positive run again.
    # x[n] = sin(2 pi (n + 2) / 16): positive for n = 0..6, negative for
    # n = 7..14, positive at n = 15 -> 2 sign changes over 15 gaps.
    x = np.sin(2 * np.pi * (np.arange(16) + 2) / 16)
    assert float(zero_crossing_rate(x)) == pytest.approx(2 / 15)


def test_zcr_zeros_inherit_previous_sign():
    assert float(zero_crossing_rate(np.array([0.0, 0.0, 1.0, 0.0, -1.0]))) \
        == pytest.approx(1 / 4)


def test_zcr_scale_invariance():
    rng = np.random.default_rng(24)
    x = rng.normal(size=400)
    assert float(zero_crossing_rate(3.7 * x)) == float(zero_crossing_rate(x))


def test_zcr_too_short():
    with pytest.raises(FrameTooShort):
        zero_crossing_rate(np.array([1.0]))


@pytest.mark.parametrize("length", [2, 5, 400])
def test_zcr_matrix_equals_rows(length):
    rng = np.random.default_rng(length)
    rows = rng.normal(size=(6, length))
    rows[0, :length // 2] = 0.0                    # leading zeros
    rows[1] = 0.0                                  # all zero
    rows[2] = np.where(np.arange(length) % 2, -1.0, 1.0)   # alternating
    rows[3, ::3] = 0.0                             # zeros inside
    rows[4] = np.abs(rows[4])                      # no crossings
    got = zero_crossing_rate(rows)
    assert got.shape == (6,)
    np.testing.assert_array_equal(
        got, [zero_crossing_rate(row) for row in rows])
    stacked = zero_crossing_rate(np.stack([rows, rows[::-1]]))
    np.testing.assert_array_equal(stacked, [got, got[::-1]])


# --- spectral_centroid ---

def test_centroid_single_bin():
    bins = np.zeros(257)
    bins[16] = 5.0
    hz = spectral_centroid(bins, SR, 512)
    assert hz.shape == ()
    assert float(hz) == pytest.approx(500.0)


def test_centroid_silent():
    # an all-zero spectrum gives 0 Hz, not the NaN of 0/0
    with np.errstate(all="raise"):
        hz = spectral_centroid(np.zeros(257), SR, 512)
    assert hz.shape == ()
    assert float(hz) == 0.0


def test_centroid_flat_spectrum():
    hz = spectral_centroid(np.ones(257), SR, 512)
    assert float(hz) == pytest.approx(4000.0)


def test_centroid_matrix_equals_rows():
    rng = np.random.default_rng(30)
    power = rng.uniform(0, 1, size=(7, 257)) ** 4
    power[3] = 0.0
    power[5, 1:] = 0.0
    got = spectral_centroid(power, SR, 512)
    rows = [spectral_centroid(row, SR, 512) for row in power]
    assert got.shape == (7,)
    np.testing.assert_array_equal(got, rows)
    # the silent row and the DC-only row both sit at 0 Hz, and only they
    assert (got == 0.0).tolist() == [False, False, False, True, False, True,
                                     False]


def test_centroid_wrong_bin_count():
    with pytest.raises(ValueError):
        spectral_centroid(np.ones((4, 256)), SR, 512)


def test_centroid_scale_invariant_and_bounded():
    rng = np.random.default_rng(25)
    bins = rng.uniform(0, 1, size=257)
    a = spectral_centroid(bins, SR, 512)
    b = spectral_centroid(10.0 * bins, SR, 512)
    assert float(a) == pytest.approx(float(b), rel=1e-12)
    assert 0 <= float(a) <= SR / 2


# --- extract_clip_features ---

def test_schema_is_30_named_features():
    names = feature_schema(13)
    assert len(names) == 30
    assert "MFCC_mean_12" in names
    assert "MFCC_mean_5" in names
    assert names[-4:] == ("ZCR_mean", "ZCR_std", "Centroid_mean",
                          "Centroid_std")
    assert len(feature_schema(4)) == 12


def test_single_frame_clip_has_zero_stds():
    rng = np.random.default_rng(26)
    buf = AudioBuffer(rng.normal(0, 0.1, size=400), SR)
    values = dict(zip(feature_schema(13), extract_clip_features(buf)))
    for name in values:
        if name.endswith("_std") or "_std_" in name:
            assert values[name] == 0.0


def test_silence_clip_features():
    values = dict(zip(feature_schema(13),
                      extract_clip_features(AudioBuffer(np.zeros(SR), SR))))
    for i in range(2, 14):
        assert values[f"MFCC_mean_{i}"] == pytest.approx(0.0, abs=1e-9)
    assert values["ZCR_mean"] == 0.0


def _per_frame_reference(segment, cfg):
    """The clip vector computed one frame at a time from frame_signal and
    zero_crossing_rate and spectral_centroid on one frame each."""
    sr = segment.sample_rate
    raw = frame_signal(segment, cfg.frame_len, cfg.hop)
    emphasized = frame_signal(pre_emphasis(segment, cfg.pre_emphasis),
                              cfg.frame_len, cfg.hop)
    window = hann_window(cfg.frame_len)
    fb = mel_filterbank(cfg, sr)
    coeffs, zcrs, centroids = [], [], []
    for plain, emph in zip(raw.frames, emphasized.frames):
        zcrs.append(float(zero_crossing_rate(plain)))
        power = np.abs(np.fft.rfft(plain * window, n=cfg.n_fft)) ** 2
        centroids.append(float(spectral_centroid(power, sr, cfg.n_fft)))
        power = np.abs(np.fft.rfft(emph * window, n=cfg.n_fft)) ** 2
        log_e = np.log(fb @ power + 1e-10)
        coeffs.append(naive_dct2_ortho(log_e)[:cfg.n_coeffs])
    coeffs = np.array(coeffs)
    return (np.concatenate([coeffs.mean(axis=0), coeffs.std(axis=0)]),
            np.array(zcrs), np.array(centroids))


def test_front_end_matches_per_frame_reference(tmp_path):
    rows = generate_corpus(PipelineConfig(n_per_class=1, seed=31, clip_s=1.5),
                           tmp_path)
    segments = []
    for _, path, _ in rows:
        segments += preprocess_clip(read_wav(path), PipelineConfig())
    assert len(segments) == 4
    assert np.all(segments[1].samples[SR // 2:] == 0.0)   # zero-padded tail
    segments += [AudioBuffer(np.zeros(SR), SR),              # silent
                 AudioBuffer(segments[0].samples[1000:1400], SR)]  # 1 frame
    cfg = PipelineConfig()
    n = cfg.n_coeffs
    for seg in segments:
        got = extract_clip_features(seg, cfg)
        mfcc_cols, zcrs, centroids = _per_frame_reference(seg, cfg)
        assert np.all(np.abs(got[:2 * n] - mfcc_cols)
                      <= 1e-12 * np.maximum(1.0, np.abs(mfcc_cols)))
        np.testing.assert_array_equal(got[2 * n:2 * n + 2],
                                      [zcrs.mean(), zcrs.std()])
        np.testing.assert_array_equal(got[2 * n + 2:],
                                      [centroids.mean(), centroids.std()])


def test_extraction_deterministic():
    rng = np.random.default_rng(27)
    x = rng.normal(0, 0.1, size=SR)
    a = extract_clip_features(AudioBuffer(x, SR))
    b = extract_clip_features(AudioBuffer(x.copy(), SR))
    np.testing.assert_array_equal(a, b)


# --- CSV round trip ---

def test_featureset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(28)
    names = feature_schema(13)
    vectors = []
    for i in range(5):
        label = "normal" if i % 2 == 0 else "anomalous"
        vectors.append(FeatureVector(names, rng.normal(size=30),
                                     clip_id=f"clip{i}", label=label))
    fs = FeatureSet(vectors, names, ("anomalous", "normal"))
    path = tmp_path / "fs.csv"
    save_featureset(fs, path)
    back = load_featureset(path)
    # one header line, then one line per clip of full-precision values
    text = "".join(
        [",".join(["clip_id", "label", *names]) + "\n"]
        + [",".join([v.clip_id, v.label, *map(repr, v.values.tolist())])
           + "\n" for v in vectors])
    assert path.read_bytes() == text.encode("utf-8")
    assert back.names == names
    assert back.class_names == ("anomalous", "normal")
    for original, parsed in zip(fs.vectors, back.vectors):
        assert parsed.clip_id == original.clip_id
        assert parsed.label == original.label
        np.testing.assert_array_equal(parsed.values, original.values)


def test_featureset_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "fs.csv"
    path.write_bytes(b"clip_id,label,a\nc0,normal,1.5\n\n"
                     b"c1,anomalous,2.5\n\n")
    fs = load_featureset(path)
    assert [v.clip_id for v in fs.vectors] == ["c0", "c1"]
    np.testing.assert_array_equal(fs.matrix(), [[1.5], [2.5]])


# csv.writer leaves a lone "\r" unquoted when the line terminator is "\n",
# and csv.reader then refuses the line; these tests are about values, ids and
# labels, not about that framing.
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\r"), max_size=8)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("feature_csvs")


@settings(deadline=None)
@given(st.data())
def test_featureset_csv_round_trip_is_bit_identical(csv_dir, data):
    n_features = data.draw(st.integers(0, 4))
    names = tuple(data.draw(st.lists(CSV_TEXT, min_size=n_features,
                                     max_size=n_features)))
    rows = data.draw(st.lists(st.tuples(
        CSV_TEXT, st.none() | CSV_TEXT.filter(bool),
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=n_features, max_size=n_features)), max_size=5))
    vectors = [FeatureVector(names, np.array(values, dtype=np.float64),
                             clip_id=clip_id, label=label)
               for clip_id, label, values in rows]
    labels = tuple(sorted({label for _, label, _ in rows} - {None}))
    path = csv_dir / "fs.csv"
    save_featureset(FeatureSet(vectors, names, labels), path)
    back = load_featureset(path)
    assert back.names == names
    assert back.class_names == labels
    assert [(v.clip_id, v.label) for v in back.vectors] == \
        [(clip_id, label) for clip_id, label, _ in rows]
    expected = np.array([values for _, _, values in rows], dtype=np.float64)
    assert back.matrix().tobytes() == expected.tobytes()


EDGE_TOKENS = ["nan", "-NaN", "inf", "-Infinity", "infinity", "1_0", "1__0",
               "_1", "1_", "1_000.000_1", "0x10", "", " ", " 2.5\t",
               "\u00a01", "1e999", "1e-400", "4.9e-324", "-0.0",
               "\u0661\u0662", "1e", ".", "1,5", "--1", "\x00", "\x1c3"]
CELL_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.tuples(st.sampled_from(["", " ", "\t", "\u00a0"]),
              st.floats(allow_nan=False).map(repr),
              st.sampled_from(["", " ", "\n"])).map("".join),
    st.sampled_from(EDGE_TOKENS),
    st.text("0123456789_.eE+- ", max_size=6),
    CSV_TEXT,
)


def check_cells_parse_like_float(path, cells, n_cols):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clip_id", "label",
                         *[f"f{j}" for j in range(n_cols)]])
        writer.writerows([f"c{i}", "normal", *row]
                         for i, row in enumerate(cells))
    expected, bad = float_cells(cells, n_cols)
    if bad is not None:
        i, j = bad
        with pytest.raises(MalformedFeatureFile) as exc:
            load_featureset(path)
        assert str(exc.value) == (f"{path}: clip 'c{i}': {cells[i][j]!r} in "
                                  f"column 'f{j}' is not a number")
    elif not np.isfinite(expected).all():
        i, j = np.argwhere(~np.isfinite(expected))[0]
        with pytest.raises(NonFiniteFeature) as exc:
            load_featureset(path)
        assert str(exc.value).startswith(f"clip 'c{i}': value ")
        assert str(exc.value).endswith(f" in column 'f{j}'")
    else:
        fs = load_featureset(path)
        assert fs.matrix().tobytes() == expected.tobytes()


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_feature_csv_edge_token_parses_like_float(csv_dir, token):
    check_cells_parse_like_float(csv_dir / "t.csv",
                                 [["0.5", token], [token, "1"]], 2)


@settings(deadline=None)
@given(st.data())
def test_feature_csv_cells_parse_like_float(csv_dir, data):
    n_cols = data.draw(st.integers(0, 3))
    cells = data.draw(st.lists(st.lists(CELL_TOKENS, min_size=n_cols,
                                        max_size=n_cols), max_size=4))
    check_cells_parse_like_float(csv_dir / "t.csv", cells, n_cols)
