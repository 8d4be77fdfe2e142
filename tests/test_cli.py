import argparse
import contextlib
import copy
import csv
import dataclasses
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import re
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audioanom.audio_io import AudioBuffer, write_wav
from audioanom import cli, parallel, pipeline, synthgen
from audioanom.cli import COMMANDS, CONFIG_ENV, CONFIG_READS, build_parser, main
from audioanom.config import FIELD_TYPES, PipelineConfig
from audioanom.errors import ConfigError, IoFailure
from audioanom.synthgen import load_manifest

SR = 16000


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--n-per-class", "3", "--seed", "42",
                 "--out", str(out)]) == 0
    return out


def test_synth_outputs(corpus):
    rows = load_manifest(corpus / "manifest.csv")
    assert len(rows) == 6
    labels = [r[2] for r in rows]
    assert labels.count("normal") == 3
    wavs = sorted(p for p in os.listdir(corpus) if p.endswith(".wav"))
    assert len(wavs) == 6


def test_synth_invalid_n(tmp_path, capsys):
    assert main(["synth", "--n-per-class", "0",
                 "--out", str(tmp_path / "c")]) == 2
    assert "n_per_class" in capsys.readouterr().err


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--n-per-class", "2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_preprocess_segment_counts(tmp_path):
    clip = tmp_path / "clip.wav"
    rng = np.random.default_rng(0)
    write_wav(AudioBuffer(rng.uniform(-0.5, 0.5, int(2.5 * SR)), SR), clip)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"clip_id,path,label\nc0,{clip},normal\n")
    out = tmp_path / "segments"
    assert main(["preprocess", "--manifest", str(manifest),
                 "--out", str(out)]) == 0
    rows = load_manifest(out / "segments.csv")
    assert len(rows) == 3


def test_preprocess_missing_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("clip_id,path,label\nc0,/nonexistent/x.wav,normal\n")
    assert main(["preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s")]) == 1
    assert "x.wav" in capsys.readouterr().err


def test_preprocess_zero_sample_rate_is_bad_input(tmp_path, capsys):
    # a PCM16 header claiming 0 Hz: a fault in the input file, not the config
    payload = struct.pack("<100h", *range(100))
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 0, 0, 2, 16)
    body = b"WAVE" + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    clip = tmp_path / "zero_rate.wav"
    clip.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"clip_id,path,label\nc0,{clip},normal\n")
    assert main(["preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / "s")]) == 1
    assert "zero_rate.wav" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("", ["empty"]),
    ("a,b\n", ["clip_id,path,label", "['a', 'b']"]),
    ("clip_id,path,label\nc0,x.wav\n", ["line 2", "'c0'", "2 fields"]),
], ids=["empty", "header", "short_row"])
def test_extract_malformed_manifest_names_file(tmp_path, capsys, text, named):
    bad = tmp_path / "manifest.csv"
    bad.write_text(text)
    assert main(["extract", "--manifest", str(bad),
                 "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    for fragment in named:
        assert fragment in err
    assert not (tmp_path / "f.csv").exists()


def test_preprocess_rerun_byte_identical(corpus, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    manifest = str(corpus / "manifest.csv")
    assert main(["preprocess", "--manifest", manifest, "--out", str(out1)]) == 0
    assert main(["preprocess", "--manifest", manifest, "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.fixture(scope="module")
def extracted(corpus, tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    segs = work / "segments"
    assert main(["preprocess", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(segs)]) == 0
    features = work / "features.csv"
    assert main(["extract", "--manifest", str(segs / "segments.csv"),
                 "--out", str(features)]) == 0
    return work, features


def test_extract_schema_and_rows(extracted, corpus):
    work, features = extracted
    with open(features) as fh:
        rows = list(csv.reader(fh))
    assert "MFCC_mean_12" in rows[0]
    seg_rows = load_manifest(work / "segments" / "segments.csv")
    assert len(rows) - 1 == len(seg_rows)


def test_extract_rerun_identical(extracted, tmp_path):
    work, features = extracted
    again = tmp_path / "again.csv"
    assert main(["extract",
                 "--manifest", str(work / "segments" / "segments.csv"),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == features.read_bytes()


def test_train_and_evaluate(extracted, tmp_path):
    _, features = extracted
    models = tmp_path / "models"
    assert main(["train", "--features", str(features), "--out", str(models),
                 "--n-trees", "10", "--svm-epochs", "10"]) == 0
    for name in ("forest", "svm", "ensemble"):
        assert (models / f"model_{name}.json").exists()

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--model", str(models / "model_ensemble.json"),
                 "--test", str(features), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert "accuracy" in report
    assert "confusion_matrix" in report
    for cls in report["class_names"]:
        assert "precision" in report["per_class"][cls]
        assert "recall" in report["per_class"][cls]
    assert len(report["importance_top10"]) == 10


def test_train_splits_adjacent_doubles(tmp_path):
    # the midpoint of two adjacent doubles rounds up to the upper one; a
    # threshold there sent both rows left, and the node split them again
    table = tmp_path / "adjacent.csv"
    table.write_text("clip_id,label,x\na0,normal,1.0000000000000002\n"
                     "b0,anomalous,1.0000000000000004\n")
    models = tmp_path / "models"
    assert main(["train", "--features", str(table),
                 "--out", str(models)]) == 0
    report = tmp_path / "report.json"
    assert main(["evaluate", "--model", str(models / "model_forest.json"),
                 "--test", str(table), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["accuracy"] == "1.0000"


_CLI = ("import sys; from audioanom.cli import main; "
        "sys.exit(main(sys.argv[1:]))")


def _cli_child(argv, one_cpu) -> None:
    """Run the CLI on argv in a child process, pinned to one of this
    process's CPUs when one_cpu, so pool_map runs its tasks in-process."""
    import audioanom
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(audioanom.__file__))}
    cpu = {min(os.sched_getaffinity(0))}
    subprocess.run([sys.executable, "-c", _CLI, *map(str, argv)], check=True,
                   env=env, timeout=120,
                   preexec_fn=(lambda: os.sched_setaffinity(0, cpu))
                   if one_cpu else None)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pins a child process to one CPU")
def test_train_writes_the_same_models_on_one_cpu(extracted, tmp_path):
    # on one CPU the forest's trees grow in-process, otherwise on the pool
    _, features = extracted
    for out, one_cpu in ((tmp_path / "one", True), (tmp_path / "all", False)):
        _cli_child(["train", "--features", features, "--out", out,
                    "--n-trees", "12", "--svm-epochs", "2"], one_cpu)
    for name in ("forest", "svm", "ensemble"):
        model = f"model_{name}.json"
        assert (tmp_path / "one" / model).read_bytes() == \
            (tmp_path / "all" / model).read_bytes(), model


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pins a child process to one CPU")
def test_stepwise_stages_write_the_same_files_on_one_cpu(tmp_path):
    # on one CPU synth, preprocess and extract run in-process, otherwise
    # their clips and rows are mapped on the pool
    def files(root):
        return sorted(os.path.relpath(os.path.join(d, name), root)
                      for d, _, names in os.walk(root) for name in names)

    for root, one_cpu in ((tmp_path / "one", True), (tmp_path / "all", False)):
        _cli_child(["synth", "--out", root / "corpus", "--n-per-class", "3",
                    "--seed", "5"], one_cpu)
        _cli_child(["preprocess", "--manifest", root / "corpus" /
                    "manifest.csv", "--out", root / "segments"], one_cpu)
        _cli_child(["extract", "--manifest", root / "segments" /
                    "segments.csv", "--out", root / "features.csv"], one_cpu)
    names = files(tmp_path / "one")
    # 6 clips and their manifest, 12 segments and theirs, one feature table
    assert len(names) == 7 + 13 + 1
    assert files(tmp_path / "all") == names
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "all" / name).read_bytes(), name


def test_evaluate_schema_mismatch(extracted, tmp_path, capsys):
    _, features = extracted
    models = tmp_path / "models"
    assert main(["train", "--features", str(features), "--out", str(models),
                 "--n-trees", "2", "--svm-epochs", "1"]) == 0
    # corrupt one column name
    text = features.read_text()
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace("MFCC_mean_3", "MFCC_zzz_3"))
    assert main(["evaluate", "--model", str(models / "model_forest.json"),
                 "--test", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert "MFCC_zzz_3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_forest(extracted, tmp_path_factory):
    _, features = extracted
    models = tmp_path_factory.mktemp("models")
    assert main(["train", "--features", str(features), "--out", str(models),
                 "--n-trees", "2", "--svm-epochs", "1"]) == 0
    return models / "model_forest.json"


def test_evaluate_header_only_csv(extracted, small_forest, tmp_path, capsys):
    _, features = extracted
    empty = tmp_path / "empty.csv"
    empty.write_text(features.read_text().split("\n", 1)[0] + "\n")
    assert main(["evaluate", "--model", str(small_forest),
                 "--test", str(empty), "--out", str(tmp_path / "r.json")]) == 1
    assert "zero instances" in capsys.readouterr().err


def test_extract_empty_manifest_keeps_the_feature_columns(
        small_forest, tmp_path, capsys):
    # an empty table still has its 30 feature columns, so scoring it meets
    # the empty confusion matrix, not a schema mismatch
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("clip_id,path,label\n")
    features = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest),
                 "--out", str(features)]) == 0
    header = features.read_text()
    assert header.startswith("clip_id,label,MFCC_mean_1,")
    assert header.endswith(",Centroid_std\n") and header.count(",") == 31
    assert main(["evaluate", "--model", str(small_forest), "--test",
                 str(features), "--out", str(tmp_path / "r.json")]) == 1
    assert "error: confusion matrix holds zero instances" in \
        capsys.readouterr().err


def test_evaluate_empty_label_names_clip(extracted, small_forest, tmp_path,
                                        capsys):
    _, features = extracted
    with open(features) as fh:
        rows = list(csv.reader(fh))
    rows[2][1] = ""
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["evaluate", "--model", str(small_forest),
                 "--test", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    assert rows[2][0] in capsys.readouterr().err


@pytest.mark.parametrize("model", ["forest", "svm"])
def test_evaluate_nan_feature_names_clip_and_column(extracted, small_forest,
                                                   tmp_path, capsys, model):
    _, features = extracted
    with open(features) as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("MFCC_mean_3")
    rows[1][column] = "nan"
    bad = tmp_path / "nan.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows[:3])
    model_path = small_forest.parent / f"model_{model}.json"
    assert main(["evaluate", "--model", str(model_path), "--test", str(bad),
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert rows[1][0] in err and "MFCC_mean_3" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("text, named", [
    ("", ["empty"]),
    ("id,label,a,b\nc0,normal,1,2\n", ["clip_id,label"]),
    ("clip_id,label,a,b\nc0,normal,1,abc\n", ["'c0'", "'b'", "'abc'"]),
    ("clip_id,label,a,b\nc0,normal,1\n", ["'c0'", "'b'"]),
    ("clip_id,label,a,b\nc0,normal,1,2,3\n", ["'c0'", "3 values"]),
], ids=["empty", "header", "non_numeric", "short_row", "long_row"])
def test_train_malformed_features_names_file(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["train", "--features", str(bad),
                 "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    for fragment in named:
        assert fragment in err


@pytest.mark.parametrize("doc, named", [
    ({"kind": "linear_svm"}, ["linear_svm", "'weights'"]),
    ({"kind": "mystery"}, ["'mystery'"]),
    ("format_version 2", ["format_version 2"]),
    ("not json", []),
], ids=["missing_keys", "unknown_kind", "format_version", "not_json"])
def test_evaluate_malformed_model_names_file(extracted, small_forest,
                                            tmp_path, capsys, doc, named):
    _, features = extracted
    bad = tmp_path / "model.json"
    if doc == "format_version 2":
        doc = {**json.loads(small_forest.read_text()), "format_version": 2}
    bad.write_text("{" if doc == "not json" else json.dumps(doc))
    assert main(["evaluate", "--model", str(bad), "--test", str(features),
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    for fragment in named:
        assert fragment in err
    assert not (tmp_path / "r.json").exists()


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a call that runs longer than `seconds` instead of hanging; the
    error is no OSError, which `main` would map to exit 1."""
    def hung(signum, frame):
        raise RuntimeError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SPLIT = {"feature": 0, "threshold": 0.0, "left": 1, "right": 2}
LEAF_A, LEAF_B = {"proba": [1.0, 0.0]}, {"proba": [0.0, 1.0]}


def _tree_1(*nodes):
    def mutate(forest):
        forest["trees"][1]["nodes"] = list(nodes)
        return forest
    return mutate


def _ensemble(*weights):
    def mutate(forest):
        return {"format_version": 1, "kind": "ensemble",
                "feature_names": forest["feature_names"],
                "class_names": forest["class_names"],
                "members": [{"weight": w, "model": forest} for w in weights]}
    return mutate


def _in_ensemble_member_1(mutate):
    def wrap(forest):
        doc = _ensemble(1.0, 1.0)(copy.deepcopy(forest))
        doc["members"][1]["model"] = mutate(forest)
        return doc
    return wrap


@pytest.mark.parametrize("mutate, named", [
    (_tree_1({"feature": 0, "left": 1, "right": 2}, LEAF_A, LEAF_B),
     ["tree 1 node 0", "'threshold'"]),
    (_tree_1({**SPLIT, "feature": 30}, LEAF_A, LEAF_B),
     ["tree 1 node 0", "feature 30 at 0.0", "in [0, 30)"]),
    (_tree_1({**SPLIT, "left": 0}, LEAF_A, LEAF_B),
     ["tree 1 node 0", "children 0 and 2", "in (0, 3)"]),
    (_tree_1({**SPLIT, "right": 0}, LEAF_A, LEAF_B),
     ["tree 1 node 0", "children 1 and 0", "in (0, 3)"]),
    (_tree_1({**SPLIT, "right": 3}, LEAF_A, LEAF_B),
     ["tree 1 node 0", "children 1 and 3", "in (0, 3)"]),
    (_tree_1(SPLIT, LEAF_A, {"proba": [0.5, 0.25, 0.25]}),
     ["tree 1 node 2", "[0.5, 0.25, 0.25], not 2 values"]),
    (_tree_1(SPLIT, LEAF_A, {"proba": [0.5, 0.4]}),
     ["tree 1 node 2", "[0.5, 0.4], not probabilities summing to 1"]),
    (_tree_1(SPLIT, LEAF_A, {"proba": [True, False]}),
     ["tree 1 node 2", "[True, False], not probabilities summing to 1"]),
    (_tree_1(SPLIT, LEAF_A, {"proba": ["1", 0]}),
     ["tree 1 node 2", "['1', 0], not probabilities summing to 1"]),
    (lambda forest: {**forest, "trees": []}, ["no trees"]),
    (_tree_1(), ["tree 1", "no nodes"]),
    (_ensemble(), ["no members"]),
    (_ensemble(0.0, 0.0), ["weights [0.0, 0.0]"]),
    (_ensemble(1e308, 1e308), ["weights [1e+308, 1e+308]", "finite sum"]),
    (_in_ensemble_member_1(_tree_1({**SPLIT, "left": 0}, LEAF_A, LEAF_B)),
     ["ensemble member 1: tree 1 node 0", "children 0 and 2"]),
], ids=["node_keys", "feature_range", "left_cycle", "right_cycle",
        "child_range", "leaf_length", "leaf_sum", "leaf_bools",
        "leaf_strings", "no_trees", "no_nodes",
        "no_members", "zero_weights", "infinite_weight_sum",
        "ensemble_member"])
def test_evaluate_malformed_model_structure_names_file(
        extracted, small_forest, tmp_path, capsys, mutate, named):
    _, features = extracted
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(mutate(json.loads(small_forest.read_text()))))
    with _deadline(30):
        code = main(["evaluate", "--model", str(bad), "--test", str(features),
                     "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    for fragment in named:
        assert fragment in err
    assert not (tmp_path / "r.json").exists()


NOT_UTF8 = b"clip_id,label\n\xff\xfe\n"
LONG = "9" * 200_000   # beyond csv's 131,072-character field limit
MISSING = object()     # the input flag names a file that does not exist
NO_FILE = "error: cannot read {file}: [Errno 2] No such file or directory"


def _model(kind, mutate):
    """The small run's model of `kind`, changed by `mutate`."""
    def content(models):
        doc = json.loads((models / f"model_{kind}.json").read_text())
        mutate(doc)
        return doc
    return content


def _wav(payload, audio_format=1, channels=1, bits=16):
    """The bytes of a WAV at SR whose data chunk is `payload`."""
    block = channels * bits // 8
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, SR,
                                block * SR, block, bits)
    body = b"WAVE" + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pcm16_wav(n):
    """The bytes of a mono PCM16 WAV at SR holding n samples."""
    return _wav(struct.pack(f"<{n}h", *range(n)))


def _manifest(*rows):
    """A manifest of `rows`, in which {wav} names a WAV of 100 samples,
    shorter than one 400-sample frame, and {dir} the directory holding it."""
    def content(directory):
        wav = directory / "short.wav"
        wav.write_bytes(_pcm16_wav(100))
        return "clip_id,path,label\n" + "".join(
            row.format(wav=wav, dir=directory) + "\n" for row in rows)
    return content


def _member_1(**changes):
    return _model("ensemble",
                  lambda doc: doc["members"][1]["model"].update(changes))


# case -> (command, its input file's content, None or MISSING, flags, exit
# code, fragments the error names; {file} stands for the input file). A
# pipeline's input is its --config file; a manifest, feature table, model
# or WAV is the input of extract, train, evaluate or render.
BAD_INPUT = {
    "snr_db_nan": ("pipeline", None, ["--snr-db", "nan"], 2,
                   ["'snr_db'", "nan"]),
    "fmax_above_nyquist": ("pipeline", None, ["--fmax", "9000"], 2,
                           ["fmax", "9000", "Nyquist"]),
    "degenerate_mel_bank": ("pipeline", None, ["--n-mels", "200"], 2,
                            ["n_mels=200"]),
    "mtry_above_features": ("train", None, ["--mtry", "31"], 2,
                            ["mtry", "[1, 30]", "31"]),
    "mtry_above_features_pipeline": ("pipeline", None, [
        "--n-per-class", "3", "--mtry", "31"], 2,
        ["mtry must be in [1, 30], got 31"]),
    "clip_s_overflows_samples": ("pipeline", None, ["--clip-s", "1e308"], 2,
                                 ["clip_s", "finite number of samples"]),
    "seg_len_s_overflows_samples": ("pipeline", None, [
        "--seg-len-s", "1e308"], 2, ["seg_len_s", "finite number of samples"]),
    "lead_ms_overflows_samples": ("pipeline", None, ["--lead-ms", "1e308"], 2,
                                  ["lead_ms", "finite number of samples"]),
    "snr_db_overflows_level": ("pipeline", None, ["--snr-db", "7000"], 2,
                               ["snr_db", "positive, finite"]),
    "snr_db_overflows_level_synth": ("synth", None, ["--snr-db", "7000"], 2,
                                     ["snr_db", "positive, finite"]),
    "snr_db_underflows_level": ("pipeline", None, [
        "--n-per-class", "3", "--snr-db=-7000"], 2,
        ["snr_db", "positive, finite"]),
    "snr_db_underflows_level_synth": ("synth", None, [
        "--n-per-class", "3", "--snr-db=-7000"], 2,
        ["snr_db", "positive, finite"]),
    # 10**(dB/20) is a positive float here, but the noise level it sets
    # overflows: the anomalous class at -6150, both classes at -6200
    "snr_db_noise_overflows": ("pipeline", None, [
        "--n-per-class", "3", "--snr-db=-6150"], 2, ["snr_db", "1000 dB"]),
    "snr_db_noise_overflows_synth": ("synth", None, [
        "--n-per-class", "3", "--snr-db=-6150"], 2, ["snr_db", "1000 dB"]),
    "snr_db_noise_overflows_both": ("pipeline", None, [
        "--n-per-class", "3", "--snr-db=-6200"], 2, ["snr_db", "1000 dB"]),
    "snr_db_noise_overflows_both_synth": ("synth", None, [
        "--n-per-class", "3", "--snr-db=-6200"], 2, ["snr_db", "1000 dB"]),
    # at 1e308 the pitch walk's cumsum overflows and the clip turns NaN
    "jitter_overflows_walk": ("pipeline", None, [
        "--n-per-class", "5", "--jitter-sigma-hz", "1e308"], 2,
        ["jitter_sigma_hz", "[0, 1e+06] Hz"]),
    "jitter_overflows_walk_synth": ("synth", None, [
        "--n-per-class", "5", "--jitter-sigma-hz", "1e308"], 2,
        ["jitter_sigma_hz", "[0, 1e+06] Hz"]),
    # the mel bank asks numpy for 4 EiB, which it refuses at once
    "n_fft_beyond_memory": ("pipeline", None, [
        "--n-fft", str(2 ** 60)], 1, ["error: out of memory",
                                      "Unable to allocate"]),
    "negative_seed": ("pipeline", None, ["--seed", "-1"], 2, ["seed"]),
    "clip_within_lead": ("pipeline", None, ["--clip-s", "0.1"], 2,
                         ["clip_s", "0.3 s noise-only lead"]),
    "segment_shorter_than_frame": ("pipeline", None, ["--seg-len-s", "1e-5"],
                                   2, ["seg_len_s", "frame_len"]),
    "infinite_weight_sum": ("pipeline", None, ["--forest-weight", "1e308",
                                               "--svm-weight", "1e308"], 2,
                            ["ensemble weights", "finite sum"]),
    "config_str_for_int": ("pipeline", {"n_trees": "x"}, [], 2,
                           ["'n_trees'", "'x'", "a finite integer"]),
    "config_float_for_int": ("pipeline", {"n_per_class": 2.5}, [], 2,
                             ["'n_per_class'", "2.5"]),
    "config_float_for_optional_int": ("pipeline", {"max_depth": 2.5}, [], 2,
                                      ["'max_depth'", "a finite integer or null"]),
    "config_bool_for_float": ("pipeline", {"normalize_target": True}, [], 2,
                              ["'normalize_target'", "True"]),
    "config_null_for_int": ("pipeline", {"seed": None}, [], 2,
                            ["'seed'", "None"]),
    "config_not_utf8": ("pipeline", NOT_UTF8, [], 2, ["{file}"]),
    "config_not_json": ("pipeline", "{", [], 2,
                        ["{file}", "not a UTF-8 JSON document"]),
    "features_not_utf8": ("train", NOT_UTF8, [], 1, ["{file}", "UTF-8"]),
    "features_long_cell": ("train", f"clip_id,label,a\nc0,normal,{LONG}\n",
                           [], 1, ["{file}", "line 2", "field limit"]),
    "manifest_not_utf8": ("extract", NOT_UTF8, [], 1, ["{file}", "UTF-8"]),
    "segment_shorter_than_frame_extract": (
        "extract", _manifest("c7_seg000,{wav},normal"), [], 1,
        ["clip 'c7_seg000'", "short.wav",
         "need at least 400 samples, got 100"]),
    "clip_shorter_than_frame_spectrum": (
        "render", _pcm16_wav(100), ["--kind", "spectrum"], 1,
        ["{file}", "need at least 400 samples", "got 100"]),
    "clip_shorter_than_frame_spectrogram": (
        "render", _pcm16_wav(100), ["--kind", "spectrogram"], 1,
        ["{file}", "need at least 400 samples", "got 100"]),
    "wav_3_channels": ("render", _wav(
        struct.pack("<1200h", *range(1200)), channels=3), [
        "--kind", "waveform"], 1, ["{file}", "3 channels"]),
    "wav_format_extensible": ("render", _wav(
        struct.pack("<400h", *range(400)), audio_format=0xFFFE), [
        "--kind", "waveform"], 1, ["{file}", "WAVE_FORMAT_EXTENSIBLE"]),
    "wav_float32_nan": ("render", _wav(
        struct.pack("<4f", 0.0, float("nan"), 0.5, -0.5), audio_format=3,
        bits=32), ["--kind", "waveform"], 1, ["{file}", "non-finite"]),
    "config_not_object": ("pipeline", [1, 2], [], 2,
                          ["{file}", "config must be a JSON object"]),
    # the SVM's scaler overflows: std at 1e200, mean and std at 1e308,
    # where the forest's split midpoint overflowed as well
    "svm_std_overflows": ("train",
                          "clip_id,label,x\na0,normal,1e200\n"
                          "b0,anomalous,1.5e200\n", [], 1,
                          ["column 'x'", "std inf", "finite"]),
    "svm_mean_overflows": ("train",
                           "clip_id,label,x\na0,normal,1e308\n"
                           "b0,anomalous,1.5e308\n", [], 1,
                           ["column 'x'", "mean inf", "finite"]),
    "preprocess_missing_wav": ("preprocess", _manifest(
        "c0,{dir}/missing.wav,normal"), [], 1, ["cannot read",
                                                "missing.wav"]),
    "manifest_long_path": ("extract",
                           f"clip_id,path,label\nc0,{LONG}.wav,normal\n", [],
                           1, ["{file}", "line 2", "field limit"]),
    # the whole file parses before a row is checked, so a CSV-level fault
    # on line 3 is named before the short row on line 2
    "manifest_short_row_then_long_path": (
        "extract", f"clip_id,path,label\nc0,x.wav\nc1,{LONG}.wav,normal\n",
        [], 1, ["{file}", "line 3", "field limit"]),
    "manifest_cr_in_id": ("extract",
                          b'clip_id,path,label\n"c\r0",x.wav,normal\n', [], 1,
                          ["{file}", "line 3", "'c\\n0'", "line break"]),
    "manifest_lf_in_label": ("extract",
                             b'clip_id,path,label\nc0,x.wav,"nor\nmal"\n',
                             [], 1,
                             ["{file}", "line 3", "'nor\\nmal'", "line break"]),
    "manifest_repeated_id": ("preprocess", _manifest(
        "same,{wav},normal", "same,{wav},anomalous"), [], 1,
        ["{file}", "line 3", "clip id 'same'", "repeats line 2"]),
    "manifest_id_leaves_out": ("preprocess", _manifest(
        "../escaped,{wav},normal"), [], 1,
        ["{file}", "line 2", "'../escaped'", "path separator"]),
    "manifest_absolute_id": ("preprocess", _manifest(
        "{dir}/abs,{wav},normal"), [], 1,
        ["{file}", "line 2", "/abs'", "path separator"]),
    "manifest_nul_in_id": ("preprocess", _manifest("c\0,{wav},normal"), [],
                           1, ["{file}", "line 2", "'c\\x00'", "NUL"]),
    "manifest_nul_in_path": ("preprocess", _manifest("c0,{wav}\0,normal"),
                             [], 1, ["{file}", "line 2", "\\x00'",
                                     "holds NUL"]),
    "model_not_utf8": ("evaluate", NOT_UTF8, [], 1, ["{file}", "UTF-8"]),
    "config_missing": ("pipeline", MISSING, [], 1, [NO_FILE]),
    "features_missing": ("train", MISSING, [], 1, [NO_FILE]),
    "manifest_missing": ("extract", MISSING, [], 1, [NO_FILE]),
    "model_missing": ("evaluate", MISSING, [], 1, [NO_FILE]),
    "svm_3_weights": ("evaluate", _model(
        "svm", lambda d: d.update(weights=d["weights"][:3])), [], 1,
        ["{file}", "weights", "30 finite numbers"]),
    "svm_str_weights": ("evaluate", _model(
        "svm", lambda d: d.update(weights="abc")), [], 1,
        ["{file}", "weights"]),
    "svm_null_weights": ("evaluate", _model(
        "svm", lambda d: d.update(weights=None)), [], 1,
        ["{file}", "weights"]),
    "svm_str_bias": ("evaluate", _model(
        "svm", lambda d: d.update(bias="x")), [], 1,
        ["{file}", "bias 'x'"]),
    "svm_zero_std": ("evaluate", _model(
        "svm", lambda d: d.update(scaler_std=[0.0] * 30)), [], 1,
        ["{file}", "scaler_std"]),
    "svm_3_classes": ("evaluate", _model(
        "svm", lambda d: d["class_names"].append("other")), [], 1,
        ["{file}", "3 class_names"]),
    "forest_int_feature_names": ("evaluate", _model(
        "forest", lambda d: d.update(feature_names=5)), [], 1,
        ["{file}", "feature_names", "strings"]),
    "ensemble_member_feature_names": ("evaluate", _member_1(
        feature_names=[f"f{i}" for i in range(30)]), [], 1,
        ["{file}", "ensemble member 1", "feature_names"]),
    "ensemble_member_class_names": ("evaluate", _member_1(
        class_names=["normal", "anomalous"]), [], 1,
        ["{file}", "ensemble member 1", "class_names"]),
    "forest_str_seed": ("evaluate", _model(
        "forest", lambda d: d.update(seed="x")), [], 1,
        ["{file}", "seed 'x'", "an integer >= 0"]),
    "forest_list_mtry": ("evaluate", _model(
        "forest", lambda d: d.update(mtry=[1])), [], 1,
        ["{file}", "1 mtry", "an integer in [1, 30]"]),
    "forest_zero_mtry": ("evaluate", _model(
        "forest", lambda d: d.update(mtry=0)), [], 1,
        ["{file}", "mtry 0", "an integer in [1, 30]"]),
    "forest_negative_importance": ("evaluate", _model(
        "forest", lambda d: d["importances"].__setitem__(3, -0.25)), [], 1,
        ["{file}", "30 importances", "30 finite numbers >= 0"]),
    "tree_7_classes": ("evaluate", _model(
        "forest", lambda d: d["trees"][1].update(n_classes=7)), [], 1,
        ["{file}", "tree 1 has n_classes 7", "not 2"]),
    "tree_str_max_depth": ("evaluate", _model(
        "forest", lambda d: d["trees"][0].update(max_depth="deep")), [], 1,
        ["{file}", "tree 0 has max_depth 'deep'", "null or an integer >= 1"]),
    "tree_negative_min_samples_leaf": ("evaluate", _model(
        "forest", lambda d: d["trees"][1].update(min_samples_leaf=-3)), [],
        1, ["{file}", "tree 1 has min_samples_leaf -3", "an integer >= 1"]),
    "svm_str_lambda": ("evaluate", _model(
        "svm", lambda d: d.update({"lambda": "x"})), [], 1,
        ["{file}", "lambda 'x'", "a finite number > 0"]),
    "svm_null_epochs": ("evaluate", _model(
        "svm", lambda d: d.update(epochs=None)), [], 1,
        ["{file}", "epochs None", "an integer >= 0"]),
    "svm_float_seed": ("evaluate", _model(
        "svm", lambda d: d.update(seed=1.5)), [], 1,
        ["{file}", "seed 1.5", "an integer >= 0"]),
    "model_list_kind": ("evaluate", {"kind": []}, [], 1,
                        ["{file}", "unknown model kind []"]),
    "no_segments_per_clip": ("pipeline", None, [
        "--n-per-class", "3", "--pad-policy", "drop-last", "--seg-len-s",
        "3"], 2, ["each clip of clip_s 2.0 s", "seg_len_s 3.0 s",
                  "pad_policy 'drop-last'", "gives no segment"]),
    "no_training_rows": ("pipeline", None, [
        "--n-per-class", "3", "--test-frac", "0.99"], 2,
        ["n_per_class 3", "6 rows per class", "test_frac 0.99",
         "no training rows"]),
    "no_test_rows": ("pipeline", None, [
        "--n-per-class", "3", "--test-frac", "0.01"], 2,
        ["n_per_class 3", "6 rows per class", "test_frac 0.01",
         "no test rows"]),
}
INPUT_FLAG = {"pipeline": "--config", "train": "--features",
              "preprocess": "--manifest", "extract": "--manifest",
              "evaluate": "--model", "render": "--clip"}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exit_code_and_message(extracted, small_forest, tmp_path,
                                         capsys, case):
    # the error's class alone decides the exit code; nothing is written
    command, content, flags, code, named = BAD_INPUT[case]
    _, features = extracted
    argv = [command, *flags]
    path = tmp_path / "input"
    if callable(content):
        content = content(small_forest.parent)
    if content is MISSING:
        argv += [INPUT_FLAG[command], str(path)]
    elif content is not None:
        if not isinstance(content, (bytes, str)):
            content = json.dumps(content)
        if isinstance(content, str):
            content = content.encode()
        path.write_bytes(content)
        argv += [INPUT_FLAG[command], str(path)]
    elif command == "train":
        argv += ["--features", str(features)]
    if command == "evaluate":
        argv += ["--test", str(features)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    for fragment in named:
        assert fragment.replace("{file}", str(path)) in err
    assert ".staging-" not in err
    assert not out.exists()
    assert set(os.listdir(tmp_path)) <= {"input"}   # nor anything beside it


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_svm_lambda_that_overflows_the_weights_is_a_config_error(
        extracted, tmp_path, command):
    # step 1/(lambda t) overflows w at 1e-308; a child process shows any
    # numpy warning on stderr, where only the error line may appear
    import audioanom
    _, features = extracted
    argv = {"train": ["--features", str(features)],
            "pipeline": ["--n-per-class", "10", "--n-trees", "5"]}[command]
    out = tmp_path / "out"
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(audioanom.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", _CLI, command, *argv, "--svm-lambda",
         "1e-308", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: svm_lambda 1e-308 ")
    assert proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_preprocess_segment_beyond_memory_is_an_error_line(corpus, tmp_path,
                                                           capsys):
    # each segment would take 114 PiB; numpy refuses at once, touching no
    # memory, and the CLI reports it as a runtime failure, not a traceback
    out = tmp_path / "seg"
    assert main(["preprocess", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(out), "--seg-len-s", "1e12"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 114. PiB")
    assert "Traceback" not in err
    assert not out.exists()


def test_preprocess_empty_manifest_writes_header_only(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("clip_id,path,label\n")
    out = tmp_path / "seg"
    assert main(["preprocess", "--manifest", str(manifest),
                 "--out", str(out)]) == 0
    assert os.listdir(out) == ["segments.csv"]
    assert (out / "segments.csv").read_text() == "clip_id,path,label\n"


def _noise_wav(path, seconds):
    rng = np.random.default_rng(0)
    write_wav(AudioBuffer(rng.uniform(-0.5, 0.5, int(seconds * SR)), SR), path)
    return path


def _good_then_missing(tmp_path):
    """A manifest of a good 2 s clip c0, then c1, whose WAV is missing."""
    clip = _noise_wav(tmp_path / "c0.wav", 2.0)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"clip_id,path,label\nc0,{clip},normal\n"
                        f"c1,{tmp_path / 'missing.wav'},normal\n")
    return manifest


@pytest.mark.parametrize("out_name", ["seg", "new/seg"])
def test_preprocess_later_clip_failure_leaves_no_out(tmp_path, capsys,
                                                     out_name):
    # c0's segments may be staged before c1 fails; the run removes the
    # directories it made, so no half-written --out is left to read
    manifest = _good_then_missing(tmp_path)
    assert main(["preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / out_name)]) == 1
    assert "missing.wav" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c0.wav", "manifest.csv"]


def test_preprocess_failure_keeps_an_existing_out(tmp_path):
    manifest = _good_then_missing(tmp_path)
    out = tmp_path / "seg"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    assert main(["preprocess", "--manifest", str(manifest),
                 "--out", str(out)]) == 1
    assert (out / "notes.txt").read_text() == "mine\n"
    # no c0_seg*.wav, no segments.csv and no staging directory
    assert os.listdir(out) == ["notes.txt"]


# command -> (its flags but --out, {name} standing for an input's path; a
# flag that makes an earlier run write other bytes; the name of the file it
# writes, or None for a directory command; the module and name of its last
# write, and the call of it that is the last)
LAST_WRITE = {
    "synth": (["--n-per-class", "2", "--seed", "3"], ["--seed", "4"], None,
              synthgen, "write_manifest", 1),
    "preprocess": (["--manifest", "{manifest}"], ["--normalize-target", "0.5"],
                   None, pipeline, "write_segment_manifest", 1),
    "extract": (["--manifest", "{segments}"], ["--pre-emphasis", "0.9"],
                "features.csv", cli, "save_featureset", 1),
    "train": (["--features", "{features}", "--n-trees", "2",
               "--svm-epochs", "1"], ["--n-trees", "3"], None, cli,
              "save_model", 3),
    "evaluate": (["--model", "{model}", "--test", "{features}"],
                 ["--seed", "1"], "report.json", cli, "emit_report", 1),
    "pipeline": (["--n-per-class", "4", "--seed", "11", "--n-trees", "2",
                  "--svm-epochs", "1"], ["--seed", "12"], None, pipeline,
                 "emit_report", 3),
    "render": (["--clip", "{clip}", "--kind", "spectrogram"],
               ["--hop", "200"], "clip.pgm", cli, "_write_pgm", 1),
}


@pytest.fixture(scope="module")
def inputs(corpus, extracted, small_forest):
    work, features = extracted
    return {"manifest": corpus / "manifest.csv",
            "clip": corpus / "clip_0000_normal.wav",
            "segments": work / "segments" / "segments.csv",
            "features": features, "model": small_forest}


def _tree_digest(root) -> dict:
    """Every directory and file under root, a file by its sha256."""
    found = {}
    for top, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.relpath(os.path.join(top, name), root)] = "dir"
        for name in files:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return found


def _command_argv(command, inputs, parent):
    """The argv of command with --out parent/out, or for a command that
    writes one file, parent/<its file>; and that --out."""
    flags, _, out_file, _, _, _ = LAST_WRITE[command]
    out = parent / (out_file or "out")
    return [command, *(flag.format(**inputs) for flag in flags),
            "--out", str(out)], out


@pytest.mark.parametrize("fault", [IoFailure, KeyboardInterrupt])
@pytest.mark.parametrize("state", ["fresh", "nested", "existing"])
@pytest.mark.parametrize("command", sorted(LAST_WRITE))
def test_failed_last_write_leaves_out_as_it_was(
        inputs, tmp_path, monkeypatch, capsys, command, state, fault):
    # the command's last write takes place, then fails; a fresh --out is
    # gone, with the parents made for it, and an existing one, holding an
    # earlier run's other bytes, is unchanged
    work = tmp_path / "work"
    work.mkdir()
    argv, out = _command_argv(command, inputs,
                              work / "new" if state == "nested" else work)
    _, earlier, _, module, name, last = LAST_WRITE[command]
    if state == "existing":
        assert main(argv + earlier) == 0
        ((out if out.is_dir() else work) / "notes.txt").write_text("mine\n")
    before = _tree_digest(work)
    write, calls = getattr(module, name), []

    def failing_write(*args):
        write(*args)
        calls.append(args)
        if len(calls) == last:
            raise fault(f"cannot write {args[-1]}: injected fault")

    monkeypatch.setattr(module, name, failing_write)
    if fault is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "injected fault" in err and ".staging-" not in err
    assert len(calls) == last
    assert _tree_digest(work) == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", sorted(LAST_WRITE))
def test_rerun_into_existing_out_changes_only_its_files(inputs, tmp_path,
                                                        command):
    # a rerun replaces each file with the same bytes and leaves the rest
    argv, out = _command_argv(command, inputs, tmp_path)
    assert main(argv) == 0
    ((out if out.is_dir() else tmp_path) / "notes.txt").write_text("mine\n")
    before = _tree_digest(tmp_path)
    assert main(argv) == 0
    assert _tree_digest(tmp_path) == before


@pytest.mark.parametrize("command", ["extract", "evaluate", "render"])
def test_file_command_never_replaces_a_directory(inputs, tmp_path, capsys,
                                                 command):
    argv, out = _command_argv(command, inputs, tmp_path)
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    before = _tree_digest(tmp_path)
    assert main(argv) == 1
    assert f"error: {out}: a file and a directory clash" in \
        capsys.readouterr().err
    assert _tree_digest(tmp_path) == before


def test_pipeline_never_replaces_a_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("mine\n")
    assert main(["pipeline", "--out", str(out), "--n-per-class", "4"]) == 1
    assert str(out) in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["out"]
    assert out.read_text() == "mine\n"


def test_train_moves_nothing_unless_every_model_can_move(extracted, tmp_path,
                                                         capsys):
    # model_svm.json is a directory: model_forest.json, which would move
    # first, keeps the earlier run's bytes
    out = tmp_path / "models"
    argv = ["train", "--features", str(extracted[1]), "--out", str(out),
            "--svm-epochs", "1"]
    assert main(argv + ["--n-trees", "2"]) == 0
    os.remove(out / "model_svm.json")
    (out / "model_svm.json").mkdir()
    before = _tree_digest(tmp_path)
    assert main(argv + ["--n-trees", "3"]) == 1
    assert f"{out / 'model_svm.json'}: a file and a directory clash" in \
        capsys.readouterr().err
    assert _tree_digest(tmp_path) == before


def _two_workers_slow_on(monkeypatch, slow_path):
    """pool_map maps on two workers, and pipeline's read_wav of slow_path
    takes a second, so the other worker meets a later failure first."""
    from audioanom import parallel, pipeline

    read_wav = pipeline.read_wav

    def slow_read(path):
        if str(path) == str(slow_path):
            time.sleep(1)
        return read_wav(path)

    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pipeline, "read_wav", slow_read)


def test_preprocess_names_the_first_missing_clip_on_two_workers(
        tmp_path, monkeypatch, capsys):
    # clips run in clip_id order, whatever the manifest's order: c2's error
    # is reported although c5's worker meets its own first
    clip = _noise_wav(tmp_path / "clip.wav", 2.0)
    paths = {i: tmp_path / (f"c{i}_missing.wav" if i in (2, 5) else
                            "clip.wav") for i in range(8)}
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("clip_id,path,label\n" + "".join(
        f"c{i},{paths[i]},normal\n" for i in reversed(range(8))))
    _two_workers_slow_on(monkeypatch, paths[2])
    out = tmp_path / "seg"
    with _deadline(60):
        code = main(["preprocess", "--manifest", str(manifest),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"cannot read {paths[2]}" in err
    assert "c5_missing" not in err
    assert multiprocessing.active_children() == []
    assert not out.exists() and clip.exists()


def test_extract_names_the_first_short_segment_on_two_workers(
        tmp_path, monkeypatch, capsys):
    # rows run in manifest order: s3's SignalTooShort is reported although
    # s6's worker meets its own first
    _noise_wav(tmp_path / "long.wav", 1.0)
    for i in (3, 6):
        (tmp_path / f"s{i}.wav").write_bytes(_pcm16_wav(100))
    paths = {i: tmp_path / (f"s{i}.wav" if i in (3, 6) else "long.wav")
             for i in range(8)}
    manifest = tmp_path / "segments.csv"
    manifest.write_text("clip_id,path,label\n" + "".join(
        f"s{i},{paths[i]},normal\n" for i in range(8)))
    _two_workers_slow_on(monkeypatch, paths[3])
    out = tmp_path / "features.csv"
    with _deadline(60):
        code = main(["extract", "--manifest", str(manifest),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"clip 's3' ({paths[3]}): need at least 400 samples, got 100" \
        in err
    assert "s6" not in err
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "extract", "train",
                                     "render"])
def test_split_row_settings_bind_only_pipeline(extracted, tmp_path, command):
    # only `pipeline` splits the synthetic 2 s clips, so only it refuses the
    # settings of the no_segments_per_clip and no_test_rows rows; a user's
    # 5 s clip gives one 3 s segment under drop-last
    clip = tmp_path / "clip.wav"
    rng = np.random.default_rng(0)
    write_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 5 * SR), SR), clip)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"clip_id,path,label\nc0,{clip},normal\n")
    inputs = {"preprocess": ["--manifest", str(manifest)],
              "extract": ["--manifest", str(manifest)],
              "train": ["--features", str(extracted[1]), "--n-trees", "2"],
              "render": ["--clip", str(clip), "--kind", "spectrum"]}
    # a flag for each setting the command reads, the config file for the rest
    settings = {"seg_len_s": 3, "pad_policy": "drop-last", "test_frac": 0.01}
    flags = [arg for name, value in settings.items()
             if name in CONFIG_READS[command]
             for arg in (f"--{name.replace('_', '-')}", str(value))]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: value
                                  for name, value in settings.items()
                                  if name not in CONFIG_READS[command]}))
    out = tmp_path / "out"
    assert main([command, *inputs[command], *flags, "--config", str(config),
                 "--out", str(out)]) == 0
    if command == "preprocess":
        assert len(load_manifest(out / "segments.csv")) == 1
    if command == "extract":
        assert len(out.read_text().splitlines()) == 2


CONFIG_FIELDS =[f for f in dataclasses.fields(PipelineConfig)
                 if f.name != "version"]


def _config_flag(name) -> list:
    value = getattr(PipelineConfig(), name)
    return [f"--{name.replace('_', '-')}", "7" if value is None else str(value)]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_config_flags_it_reads(command, capsys):
    own = [arg for flag in COMMANDS[command][2]
           for arg in (flag, "spectrum" if flag == "--kind" else "x")]
    reads = CONFIG_READS[command]
    args = build_parser(command).parse_args(
        own + [arg for name in reads for arg in _config_flag(name)])
    assert [name for name in reads if getattr(args, f"cfg_{name}") is None] \
        == []
    # a flag of a field the command does not read is a usage error
    for f in CONFIG_FIELDS:
        if f.name not in reads:
            with pytest.raises(SystemExit) as exc:
                main([command, *own, *_config_flag(f.name)])
            assert exc.value.code == 2, f.name
            assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", *COMMANDS[command][2],
                      *(_config_flag(name)[0] for name in reads)}


def test_help_lists_commands_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("synth", "preprocess", "extract", "train", "evaluate",
                    "pipeline", "render"):
        assert f"  {command} " in out
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--features", "--out", "--config", "config overrides",
                 "--n-trees", "--svm-lambda"):
        assert flag in out
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--model", "--test", "--out", "--config", "config overrides",
                 "--seed"):
        assert flag in out
    assert "--n-trees" not in out and "--svm-lambda" not in out


@pytest.mark.parametrize("argv", [
    [], ["mystery"], ["--n-trees", "3"], ["evaluate", "--model", "m.json"],
    ["render", "--clip", "c.wav", "--kind", "photo", "--out", "o"],
    ["evaluate", "--model", "m.json", "--test", "t.csv", "--out", "r.json",
     "--n-trees", "7"],
], ids=["no_command", "unknown_command", "flag_first", "missing_flag",
        "bad_choice", "flag_of_another_command"])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: audioanom" in capsys.readouterr().err


def test_evaluate_builds_only_its_own_flags(extracted, small_forest,
                                            tmp_path, monkeypatch):
    # every parser and argument group adds flags through this one method
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    _, features = extracted
    assert main(["evaluate", "--model", str(small_forest), "--test",
                 str(features), "--out", str(tmp_path / "r.json")]) == 0
    # --help, --config, evaluate's own flags and a flag per config field it
    # reads; no command-name parser
    assert len(calls) == 2 + len(COMMANDS["evaluate"][2]) \
        + len(CONFIG_READS["evaluate"])


def test_cli_import_leaves_scipy_unloaded():
    import audioanom
    src = os.path.dirname(os.path.dirname(audioanom.__file__))
    code = "import sys, audioanom.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_pipeline_deterministic(tmp_path):
    args = ["pipeline", "--n-per-class", "4", "--seed", "11",
            "--n-trees", "5", "--svm-epochs", "5"]
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("report_forest.json", "report_svm.json",
                 "report_ensemble.json", "features.csv",
                 "model_forest.json", "model_svm.json",
                 "model_ensemble.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_pipeline_matches_stepwise_commands(tmp_path):
    # the pipeline's fused front end writes every artifact byte for byte as
    # the file-based subcommands do, whose stages pool their own tasks
    from audioanom.evaluate import stratified_split
    from audioanom.features import load_featureset, save_featureset

    # each command takes the flags of the settings it reads, and the
    # pipeline all of them. 8 clips give each worker more than one on up to
    # 4 CPUs.
    synth = ["--n-per-class", "4", "--seed", "11"]
    train_flags = ["--n-trees", "5", "--svm-epochs", "5", "--seed", "11"]
    out = tmp_path / "pipe"
    assert main(["pipeline", "--out", str(out), "--n-per-class", "4"]
                + train_flags) == 0

    step = tmp_path / "step"
    step.mkdir()
    assert main(["synth", "--out", str(step / "corpus")] + synth) == 0
    assert main(["preprocess", "--manifest", str(step / "corpus" / "manifest.csv"),
                 "--out", str(step / "segments")]) == 0
    assert main(["extract", "--manifest", str(step / "segments" / "segments.csv"),
                 "--out", str(step / "features.csv")]) == 0
    features = load_featureset(step / "features.csv")
    train, test = stratified_split(features, 0.3, seed=11)
    save_featureset(train, step / "train.csv")
    save_featureset(test, step / "test.csv")
    assert main(["train", "--features", str(step / "train.csv"),
                 "--out", str(step)] + train_flags) == 0
    for name in ("forest", "svm", "ensemble"):
        assert main(["evaluate", "--model", str(step / f"model_{name}.json"),
                     "--test", str(step / "test.csv"),
                     "--out", str(step / f"report_{name}.json"),
                     "--seed", "11"]) == 0

    def same_files(a, b, names):
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    corpus_files = sorted(os.listdir(step / "corpus"))
    assert len(corpus_files) == 9 and "manifest.csv" in corpus_files
    assert sorted(os.listdir(out / "corpus")) == corpus_files
    same_files(out / "corpus", step / "corpus", corpus_files)
    seg_wavs = sorted(os.listdir(out / "segments"))
    assert sorted(os.listdir(step / "segments")) == seg_wavs + ["segments.csv"]
    same_files(out / "segments", step / "segments", seg_wavs)
    same_files(out, step, ["features.csv", "train.csv", "test.csv",
                           *[f"model_{name}.json"
                             for name in ("forest", "svm", "ensemble")]])
    # a pipeline report echoes the whole config, a stepwise one the seed,
    # the one field evaluate reads; the rest is the same
    config = PipelineConfig(n_trees=5, svm_epochs=5, n_per_class=4, seed=11)
    for name in ("forest", "svm", "ensemble"):
        piped, stepped = (json.loads((d / f"report_{name}.json").read_text())
                          for d in (out, step))
        assert piped.pop("config_echo") == config.to_dict()
        assert stepped.pop("config_echo") == {"seed": 11}
        assert piped == stepped, name

    # the two segments.csv files sit in different directories, so their
    # relative paths differ; the rows must not
    def segment_rows(manifest, seg_dir):
        return [(seg_id, os.path.relpath(path, seg_dir), label)
                for seg_id, path, label in load_manifest(manifest)]

    assert segment_rows(out / "segments.csv", out / "segments") == \
        segment_rows(step / "segments" / "segments.csv", step / "segments")
    assert len(seg_wavs) == len(load_manifest(out / "segments.csv"))


def test_feature_rows_share_names(tmp_path, monkeypatch):
    # FeatureSet.of builds every row of a table under the table's one names
    # tuple, for the pipeline's pooled front end and for extract_manifest
    from audioanom import pipeline

    saved = []
    save = pipeline.save_featureset

    def recording_save(fs, path):
        saved.append(fs)
        save(fs, path)

    monkeypatch.setattr(pipeline, "save_featureset", recording_save)
    cfg = PipelineConfig(n_per_class=10, n_trees=2, svm_epochs=1)
    paths = pipeline.run_pipeline(cfg, tmp_path / "p")
    features = saved[0]   # features.csv's table, saved before the split
    assert len(features.vectors) == 4 * cfg.n_per_class
    assert {id(v.names) for v in features.vectors} == {id(features.names)}

    rows = load_manifest(paths["segment_manifest"])
    extracted = pipeline.extract_manifest(rows, cfg)
    assert {id(v.names) for v in extracted.vectors} == {id(extracted.names)}


def test_pipeline_worker_error_reaches_cli(tmp_path, monkeypatch, capsys):
    # a fork child inherits the patched module, so one clip's worker fails
    from audioanom import pipeline
    from audioanom.errors import IoFailure

    write_wav = pipeline.write_wav

    def failing_write(buf, path):
        if os.path.basename(path).startswith("clip_0005_"):
            raise IoFailure(f"cannot write {path}: injected fault")
        return write_wav(buf, path)

    monkeypatch.setattr(pipeline, "write_wav", failing_write)
    out = tmp_path / "p"
    with _deadline(60):
        code = main(["pipeline", "--out", str(out), "--n-per-class", "4",
                     "--seed", "11", "--n-trees", "2", "--svm-epochs", "1"])
    assert code == 1
    failed = out / "corpus" / "clip_0005_anomalous.wav"
    assert f"error: cannot write {failed}: injected fault" in \
        capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not (out / "features.csv").exists()


def test_pipeline_worker_error_names_the_lowest_failing_clip(
        tmp_path, monkeypatch, capsys):
    # clip 6 fails at once while clip 1 is still at work; the error is
    # clip 1's, as a serial run would raise it
    from audioanom import pipeline
    from audioanom.errors import IoFailure

    write_wav = pipeline.write_wav

    def failing_write(buf, path):
        name = os.path.basename(path)
        if name.startswith("clip_0001_"):
            time.sleep(1)
        if name.startswith(("clip_0001_", "clip_0006_")):
            raise IoFailure(f"cannot write {path}: injected fault")
        return write_wav(buf, path)

    monkeypatch.setattr(pipeline, "write_wav", failing_write)
    out = tmp_path / "p"
    with _deadline(60):
        code = main(["pipeline", "--out", str(out), "--n-per-class", "4",
                     "--seed", "11", "--n-trees", "2", "--svm-epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out / 'corpus' / 'clip_0001_'}" in err
    assert "clip_0006_" not in err
    assert multiprocessing.active_children() == []


# Runs _front_end's own pool over real clips, then train_forest's over their
# features, each task also reporting how many OS threads its worker holds
# once its clip or tree is done.
_THREAD_PROBE = """
import json, os, tempfile
from audioanom import models, pipeline
from audioanom.config import PipelineConfig

run_clip, grow_tree = pipeline._run_clip, models._grow_tree

def threads():
    return len(os.listdir("/proc/self/task"))

def probe_clip(*args):
    row, seg_rows, vectors = run_clip(*args)
    return row + (threads(),), seg_rows, vectors

def probe_tree(*args):
    tree, importances = grow_tree(*args)
    return {**tree, "threads": threads()}, importances

pipeline._run_clip, models._grow_tree = probe_clip, probe_tree
with tempfile.TemporaryDirectory() as tmp:
    rows, _, features = pipeline._front_end(
        PipelineConfig(n_per_class=2), tmp + "/corpus", tmp + "/segments")
forest = models.train_forest(features, n_trees=4)
print(json.dumps({"clips": [row[-1] for row in rows],
                  "trees": [tree["threads"] for tree in forest.trees]}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_pool_workers_start_no_blas_thread():
    # the benchmark sets OPENBLAS_NUM_THREADS=1 and so cannot see this;
    # a worker that called BLAS would start OpenBLAS's threads beside the
    # other workers, on the same CPUs
    import audioanom
    src = os.path.dirname(os.path.dirname(audioanom.__file__))
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                         capture_output=True, text=True, check=True,
                         env=env, timeout=120)
    assert json.loads(out.stdout) == {"clips": [1] * 4, "trees": [1] * 4}


# Each pool_map task frees eight 1 MiB arrays a round for 21 rounds and
# reports the minor faults of rounds 2-21: glibc's default thresholds trim
# the freed heap top, so each round faults its 8 MiB in again.
_FAULT_PROBE = """
import json, resource
import numpy as np
from audioanom.parallel import pool_map

def churn(_):
    for r in range(21):
        if r == 1:
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 17) for _ in range(8)]
        del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start

print(json.dumps(pool_map(churn, range(2))))
"""


@pytest.mark.skipif(
    not (sys.platform.startswith("linux")
         and platform.libc_ver()[0] == "glibc"
         and len(os.sched_getaffinity(0)) >= 2),
    reason="needs glibc's mallopt and a pool of two workers")
def test_pool_workers_keep_freed_memory_mapped():
    # a fresh interpreter, since the pytest process's own glibc thresholds
    # (moved by what it has freed so far) are what forked workers inherit;
    # with glibc's defaults each task takes about 40k faults
    import audioanom
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(audioanom.__file__))}
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                         capture_output=True, text=True, check=True,
                         env=env, timeout=120)
    faults = json.loads(out.stdout)
    assert len(faults) == 2 and max(faults) < 1000, faults


def _proc_stat(pid):
    """The fields of /proc/<pid>/stat after the command name, or None once
    the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


@pytest.mark.skipif(
    not (sys.platform.startswith("linux")
         and len(os.sched_getaffinity(0)) >= 2),
    reason="reads /proc and needs a pool of two workers")
def test_killed_pipeline_leaves_no_worker_and_no_traceback(tmp_path):
    # a SIGKILL of the CLI mid-map takes its pool workers with it, before
    # any of them can meet the closed result pipe
    import audioanom
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(audioanom.__file__))}
    out, err = tmp_path / "p", tmp_path / "stderr.txt"
    with open(err, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CLI, "pipeline", "--out", str(out),
             "--n-per-class", "100"],
            env=env, stdout=subprocess.DEVNULL, stderr=fh)
    workers = {}   # pid -> start time, which tells a reused pid apart

    def alive():
        return [pid for pid, start in workers.items()
                if (st := _proc_stat(pid)) and st[19] == start
                and st[0] != "Z"]

    try:
        deadline = time.monotonic() + 60
        while len(glob.glob(str(out / ".staging-*" / "corpus" / "*.wav"))) \
                < 20:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        for name in os.listdir("/proc"):
            st = _proc_stat(name) if name.isdigit() else None
            if st and st[1] == str(proc.pid):
                workers[int(name)] = st[19]
        assert workers
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert alive() == []
    finally:
        proc.kill()
        proc.wait()
        for pid in alive():
            os.kill(pid, signal.SIGKILL)
    assert "BrokenPipeError" not in err.read_text()


class _Libc:
    """A libc whose mallopt records its calls and returns `ok`."""

    def __init__(self, ok):
        self.ok, self.calls = ok, []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.ok


def test_keep_heap_sets_both_thresholds_or_neither(monkeypatch):
    # never the real mallopt here: it would change this process's allocator
    from audioanom import parallel
    libc = _Libc(1)
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda name: libc)
    parallel._keep_heap()
    assert libc.calls == [(-3, 16 << 20), (-1, 64 << 20)]

    # a refused mmap threshold leaves the trim threshold alone: either
    # setting alone faults more than glibc's defaults
    libc = _Libc(0)
    parallel._keep_heap()
    assert libc.calls == [(-3, 16 << 20)]

    # the in-process path leaves the caller's allocator as it is
    libc = _Libc(1)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    assert parallel.pool_map(abs, [-1, -2]) == [1, 2]
    assert libc.calls == []


def test_keep_heap_never_raises(monkeypatch):
    # a pool whose initializer raises respawns its workers without end, so
    # no pool is started here: the initializer is called directly
    from audioanom import parallel

    def no_libc(name):
        raise OSError("no such library")

    for cdll in (no_libc, lambda name: object()):  # object(): no mallopt
        monkeypatch.setattr(parallel.ctypes, "CDLL", cdll)
        assert parallel._keep_heap() is None


def test_worker_init_without_prctl_still_keeps_its_heap(monkeypatch):
    # the parent-death step and the mallopt step are separate, so a libc
    # with no prctl (this fake one) still gets its mallopt
    from audioanom import parallel
    libc = _Libc(1)
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda name: libc)
    assert parallel._init_worker(os.getppid()) is None
    assert libc.calls == [(-3, 16 << 20), (-1, 64 << 20)]


def test_config_file_and_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_per_class": 2, "seed": 3, "n_trees": 2,
                               "svm_epochs": 1}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    echoed = json.loads((out / "report_forest.json").read_text())["config_echo"]
    assert echoed["n_per_class"] == 2

    # removed keys (jobs, mu, taps) are rejected like any unknown key
    bad = tmp_path / "bad.json"
    for key in ("not_a_key", "jobs", "mu", "taps"):
        bad.write_text(json.dumps({key: 1}))
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_config_values_keep_their_json_type():
    # a JSON int for a float field is kept, so config_echo does not change
    cfg = PipelineConfig.from_dict({"alpha": 2, "fmax": None, "mtry": 3})
    assert cfg.to_dict()["alpha"] == 2 and type(cfg.alpha) is int
    assert (cfg.fmax, cfg.mtry) == (None, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 3.0


CONFIG_VALUES = st.sampled_from([
    0, -1, 2**64, 10**400, 1e308, -1e308, 1e-308, 0.5, float("nan"), True,
    False, None, [], {}, "", "hann", "peak"]) | st.text(max_size=8)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.sampled_from(sorted(FIELD_TYPES)), CONFIG_VALUES,
                       min_size=1, max_size=3))
def test_config_from_any_json_object_is_valid_or_a_config_error(d):
    # any other exception would reach the CLI as a traceback
    try:
        cfg = PipelineConfig.from_dict(json.loads(json.dumps(d)))
    except ConfigError:
        return
    assert cfg.validate() is cfg


def test_config_precedence(tmp_path, monkeypatch):
    # AUDIOANOM_CONFIG names the default file, --config replaces it, and
    # flags override whichever file is read
    small = {"n_per_class": 2, "seed": 3, "n_trees": 2, "svm_epochs": 1}
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps({**small, "alpha": 1.5}))
    file_cfg = tmp_path / "file.json"
    file_cfg.write_text(json.dumps({**small, "beta": 0.05}))
    monkeypatch.setenv(CONFIG_ENV, str(env_cfg))

    def echo(name, *args):
        out = tmp_path / name
        assert main(["pipeline", "--out", str(out), *args]) == 0
        return json.loads((out / "report_forest.json").read_text())[
            "config_echo"]

    from_env = echo("env")
    assert (from_env["alpha"], from_env["beta"]) == (1.5, 0.01)
    from_file = echo("file", "--config", str(file_cfg))
    assert (from_file["alpha"], from_file["beta"]) == (2.0, 0.05)
    flagged = echo("flags", "--config", str(file_cfg), "--beta", "0.02",
                   "--n-trees", "3")
    assert (flagged["beta"], flagged["n_trees"]) == (0.02, 3)


def _recording_config(read):
    """A PipelineConfig subclass that adds each field a stage reads to
    read. validate, to_dict and the _mel_bank cache key (__hash__, __eq__)
    read every field, and do not count."""
    quiet = []

    class Recording(PipelineConfig):
        def __getattribute__(self, name):
            if name in FIELD_TYPES and not quiet:
                read.add(name)
            return super().__getattribute__(name)

    def uncounted(method):
        def call(*args):
            quiet.append(method)
            try:
                return method(*args)
            finally:
                quiet.pop()
        return call

    for name in ("validate", "to_dict", "__hash__", "__eq__"):
        setattr(Recording, name, uncounted(getattr(PipelineConfig, name)))
    return Recording


def test_every_config_field_is_read(corpus, extracted, small_forest,
                                    tmp_path, monkeypatch):
    # each command reads exactly the fields it has flags for, and the
    # pipeline every field: a field no stage reads changes nothing. On one
    # CPU the pools run in-process, where the reads are seen.
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    work, features = extracted
    inputs = {
        "synth": ["--n-per-class", "1"],
        "preprocess": ["--manifest", corpus / "manifest.csv"],
        "extract": ["--manifest", work / "segments" / "segments.csv"],
        "train": ["--features", features, "--n-trees", "2",
                  "--svm-epochs", "1"],
        "evaluate": ["--model", small_forest, "--test", features],
        "pipeline": ["--n-per-class", "2", "--n-trees", "2",
                     "--svm-epochs", "1"],
        "render": ["--clip", sorted(corpus.glob("*.wav"))[0],
                   "--kind", "spectrum"],
    }
    assert sorted(inputs) == sorted(COMMANDS)
    for command, args in inputs.items():
        read = set()
        monkeypatch.setattr(cli, "PipelineConfig", _recording_config(read))
        assert main([command, *map(str, args),
                     "--out", str(tmp_path / command)]) == 0
        assert sorted(read) == sorted(CONFIG_READS[command]), command
    assert sorted(CONFIG_READS["pipeline"]) == sorted(f.name
                                                      for f in CONFIG_FIELDS)


def test_one_config_file_serves_every_command(extracted, small_forest,
                                              tmp_path, monkeypatch, capsys):
    # $AUDIOANOM_CONFIG may hold every field; each command reads its own,
    # and the whole file is validated
    _, features = extracted
    full = PipelineConfig(seed=9, n_trees=3, svm_epochs=1).to_dict()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(full))
    monkeypatch.setenv(CONFIG_ENV, str(config))
    evaluate = ["evaluate", "--model", str(small_forest),
                "--test", str(features), "--out"]
    report = tmp_path / "report.json"
    assert main(evaluate + [str(report)]) == 0
    assert json.loads(report.read_text())["config_echo"] == {"seed": 9}
    models = tmp_path / "models"
    assert main(["train", "--features", str(features),
                 "--out", str(models)]) == 0
    forest = json.loads((models / "model_forest.json").read_text())
    assert len(forest["trees"]) == 3
    config.write_text(json.dumps({**full, "n_trees": 0}))
    bad = tmp_path / "bad.json"
    assert main(evaluate + [str(bad)]) == 2
    assert "n_trees must be >= 1" in capsys.readouterr().err
    assert not bad.exists()


def _read_pgm(path):
    data = path.read_bytes()
    assert data[:2] == b"P5"
    header, rest = data.split(b"255\n", 1)
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def test_render_waveform(tmp_path):
    clip = tmp_path / "c.wav"
    write_wav(AudioBuffer(np.zeros(SR), SR), clip)
    out = tmp_path / "wave.csv"
    assert main(["render", "--clip", str(clip), "--kind", "waveform",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "time_s,amplitude"
    assert len(lines) - 1 == SR


def test_render_silence_spectrogram_is_black(tmp_path):
    clip = tmp_path / "c.wav"
    write_wav(AudioBuffer(np.zeros(SR), SR), clip)
    out = tmp_path / "spec.pgm"
    assert main(["render", "--clip", str(clip), "--kind", "spectrogram",
                 "--out", str(out)]) == 0
    pixels = _read_pgm(out)
    assert pixels.shape[0] == 257
    assert np.all(pixels == 0)


def test_render_tone_brightest_row(tmp_path):
    # bin-aligned 1 kHz tone: bin 32 at n_fft 512 / 16 kHz. Amplitude is
    # kept small so the peak stays below 0 dB and no pixels saturate.
    clip = tmp_path / "tone.wav"
    t = np.arange(SR) / SR
    write_wav(AudioBuffer(0.004 * np.sin(2 * np.pi * 1000.0 * t), SR), clip)
    out = tmp_path / "spec.pgm"
    assert main(["render", "--clip", str(clip), "--kind", "spectrogram",
                 "--out", str(out)]) == 0
    pixels = _read_pgm(out)
    n_rows = pixels.shape[0]
    brightest_row = np.argmax(pixels.sum(axis=1))
    bin_index = (n_rows - 1) - brightest_row  # bin 0 is the bottom row
    assert bin_index == 32


def test_render_spectrum_csv(tmp_path):
    clip = tmp_path / "tone.wav"
    t = np.arange(SR) / SR
    write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * t), SR), clip)
    out = tmp_path / "spectrum.csv"
    assert main(["render", "--clip", str(clip), "--kind", "spectrum",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    assert rows[0] == ["freq_hz", "power_db"]
    assert len(rows) - 1 == 257
    freqs = np.array([float(r[0]) for r in rows[1:]])
    powers = np.array([float(r[1]) for r in rows[1:]])
    assert freqs[np.argmax(powers)] == pytest.approx(1000.0)
