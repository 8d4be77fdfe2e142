import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audioanom.audio_io import AudioBuffer, read_wav, resample_linear, write_wav
from audioanom.errors import (AudioAnomError, EmptyAudio, IoFailure,
                              MalformedContainer, UnsupportedEncoding)


def _wav_bytes(fmt_code, channels, rate, bits, payload, magic=b"RIFF"):
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, channels, rate,
                                rate * channels * bits // 8,
                                channels * bits // 8, bits)
    data = b"data" + struct.pack("<I", len(payload)) + payload
    body = b"WAVE" + fmt + data
    return magic + struct.pack("<I", len(body)) + body


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "mono.wav"
    payload = struct.pack("<3h", 0, 16384, -16384)
    path.write_bytes(_wav_bytes(1, 1, 16000, 16, payload))
    buf = read_wav(path)
    assert buf.sample_rate == 16000
    np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -0.5])


def test_stereo_downmix_mean(tmp_path):
    path = tmp_path / "stereo.wav"
    payload = struct.pack("<2h", 16384, -16384)  # L=0.5, R=-0.5
    path.write_bytes(_wav_bytes(1, 2, 16000, 16, payload))
    buf = read_wav(path)
    np.testing.assert_array_equal(buf.samples, [0.0])


def test_stereo_duplicate_equals_mono(tmp_path):
    values = (np.arange(5) * 1000).astype(np.int16)
    mono = tmp_path / "m.wav"
    stereo = tmp_path / "s.wav"
    mono.write_bytes(_wav_bytes(1, 1, 8000, 16, values.tobytes()))
    stereo.write_bytes(_wav_bytes(1, 2, 8000, 16,
                                  np.repeat(values, 2).tobytes()))
    np.testing.assert_array_equal(read_wav(mono).samples,
                                  read_wav(stereo).samples)


def test_float32_supported(tmp_path):
    path = tmp_path / "f32.wav"
    payload = np.array([0.25, -0.75], dtype="<f4").tobytes()
    path.write_bytes(_wav_bytes(3, 1, 44100, 32, payload))
    buf = read_wav(path)
    np.testing.assert_allclose(buf.samples, [0.25, -0.75])
    assert buf.sample_rate == 44100


def test_rifx_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    payload = struct.pack("<h", 0)
    path.write_bytes(_wav_bytes(1, 1, 16000, 16, payload, magic=b"RIFX"))
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_unsupported_bit_depth(tmp_path):
    path = tmp_path / "pcm8.wav"
    path.write_bytes(_wav_bytes(1, 1, 16000, 8, b"\x80\x80"))
    with pytest.raises(UnsupportedEncoding):
        read_wav(path)


def test_empty_audio_rejected(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(_wav_bytes(1, 1, 16000, 16, b""))
    with pytest.raises(EmptyAudio):
        read_wav(path)


def test_unknown_chunks_skipped(tmp_path):
    payload = struct.pack("<h", 16384)
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    junk = b"LIST" + struct.pack("<I", 4) + b"junk"
    data = b"data" + struct.pack("<I", len(payload)) + payload
    body = b"WAVE" + junk + fmt + data
    path = tmp_path / "chunky.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    np.testing.assert_array_equal(read_wav(path).samples, [0.5])


def test_odd_sized_chunk_is_followed_by_its_pad_byte(tmp_path):
    # RIFF chunks are word-aligned: a 3-byte LIST body is followed by one
    # pad byte, which is not part of the next chunk
    payload = struct.pack("<2h", 16384, -8192)
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    odd = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\0"
    data = b"data" + struct.pack("<I", len(payload)) + payload
    body = b"WAVE" + fmt + odd + data
    path = tmp_path / "odd.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    np.testing.assert_array_equal(read_wav(path).samples, [0.5, -0.25])


def test_write_zero_and_clamp(tmp_path):
    path = tmp_path / "w.wav"
    write_wav(AudioBuffer([0.0, 1.5, -2.0], 16000), path)
    raw = path.read_bytes()
    pcm = np.frombuffer(raw[44:], dtype="<i2")
    np.testing.assert_array_equal(pcm, [0, 32767, -32768])


def test_round_trip_within_one_lsb(tmp_path):
    rng = np.random.default_rng(7)
    original = rng.uniform(-1.0, 1.0, size=1000)
    path = tmp_path / "rt.wav"
    write_wav(AudioBuffer(original, 16000), path)
    recovered = read_wav(path).samples
    assert np.max(np.abs(recovered - original)) <= 1.0 / 32767


def test_write_returns_what_read_reads_back(tmp_path):
    rng = np.random.default_rng(8)
    original = np.concatenate([rng.uniform(-1.2, 1.2, size=1000),
                               [0.0, 1.0, -1.0, 0.5 / 32768, -0.5 / 32768]])
    path = tmp_path / "wr.wav"
    written = write_wav(AudioBuffer(original, 8000), path)
    back = read_wav(path)
    assert written.sample_rate == back.sample_rate == 8000
    assert written.samples.dtype == back.samples.dtype == np.float64
    np.testing.assert_array_equal(written.samples, back.samples)


def test_resample_identity():
    buf = AudioBuffer(np.arange(10) / 10.0, 16000)
    assert resample_linear(buf, 16000) is buf


def test_resample_constant():
    buf = AudioBuffer(np.full(100, 0.3), 8000)
    out = resample_linear(buf, 16000)
    np.testing.assert_allclose(out.samples, 0.3)
    assert out.sample_rate == 16000


def test_resample_ramp_interpolation():
    # hand evaluation: output index i sits at input position i/2
    out = resample_linear(AudioBuffer([0.0, 1.0], 8000), 16000)
    np.testing.assert_allclose(out.samples, [0.0, 0.5, 1.0, 1.0])


def test_resample_duration_and_bounds():
    rng = np.random.default_rng(3)
    buf = AudioBuffer(rng.uniform(-0.8, 0.8, size=16000), 16000)
    out = resample_linear(buf, 11025)
    assert abs(len(out) / 11025 - len(buf) / 16000) <= 1.0 / 11025
    # linear interpolation is a convex combination of neighbors
    assert out.samples.max() <= buf.samples.max() + 1e-12
    assert out.samples.min() >= buf.samples.min() - 1e-12


VALID_WAVS = [
    _wav_bytes(1, 1, 16000, 16, struct.pack("<4h", 0, 1000, -1000, 32767)),
    _wav_bytes(3, 2, 8000, 32,
               np.array([0.5, -0.5, 0.25, 0.0], dtype="<f4").tobytes()),
]
# (offset, width) of the header fields: RIFF size, fmt chunk size, format,
# channels, sample rate, byte rate, block align, bits, data chunk size
HEADER_FIELDS = [(4, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4),
                 (32, 2), (34, 2), (40, 4)]
EDGE_VALUES = [0, 1, 2, 3, 16, 32, 0xFFFE, 0xFFFF, 2**31, 2**32 - 1]


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_read_wav_mutated_bytes_raise_only_named_errors(wav_dir, data):
    # any other exception would reach the CLI as a traceback
    raw = bytearray(data.draw(st.sampled_from(VALID_WAVS)))
    for _ in range(data.draw(st.integers(0, 3))):
        offset, width = data.draw(st.sampled_from(HEADER_FIELDS))
        value = data.draw(st.sampled_from(EDGE_VALUES)
                          | st.integers(0, 2**32 - 1)) % 2 ** (8 * width)
        raw[offset:offset + width] = value.to_bytes(width, "little")
    for _ in range(data.draw(st.integers(0, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(
            st.integers(0, 255))
    cut = data.draw(st.integers(0, len(raw)))
    raw = raw[:cut] + data.draw(st.binary(max_size=16))
    path = wav_dir / "mutated.wav"
    path.write_bytes(bytes(raw))
    try:
        buf = read_wav(path)
    except AudioAnomError:
        return
    assert len(buf) > 0 and buf.sample_rate > 0
    assert np.all(np.isfinite(buf.samples))


def test_write_under_a_file_is_an_io_failure(tmp_path):
    (tmp_path / "file.txt").write_text("mine\n")
    path = tmp_path / "file.txt" / "clip.wav"
    with pytest.raises(IoFailure, match=r"cannot write .*clip\.wav: "
                       r"\[Errno 20\] Not a directory"):
        write_wav(AudioBuffer(np.zeros(4), 8000), path)
