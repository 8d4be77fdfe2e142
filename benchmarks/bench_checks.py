"""Checks of audioanom's outputs, made apart from the program.

Nothing here imports audioanom. Files are parsed with the standard library
(``csv``, ``json``, ``wave``); trees are walked from the model JSON; MFCC,
ZCR and spectral centroid are recomputed from their defining formulas with
explicit DFT and DCT matrices. Every check raises ``CheckFailed`` with a
message naming what disagreed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import wave

import numpy as np

PROBA_TOL = 1e-12
FEATURE_TOL = 1e-6
MIN_FOREST_ACCURACY = 0.95
ENSEMBLE_MARGIN = 0.02


class CheckFailed(Exception):
    """An output of the program disagrees with an independent recount."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- files -----------------------------------------------------------------

def read_feature_csv(path):
    """(clip_ids, labels, feature names, matrix) from a feature CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    names = rows[0][2:]
    ids = [r[0] for r in rows[1:]]
    labels = [r[1] for r in rows[1:]]
    X = np.array([[float(v) for v in r[2:]] for r in rows[1:]],
                 dtype=np.float64).reshape(len(ids), len(names))
    return ids, labels, names, X


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_pcm16(path):
    """(samples in [-1, 1), sample rate) of a mono PCM16 WAV."""
    with wave.open(path, "rb") as w:
        require(w.getnchannels() == 1 and w.getsampwidth() == 2,
                f"{path}: expected mono PCM16")
        raw = w.readframes(w.getnframes())
        rate = w.getframerate()
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def tree_digest(root) -> tuple:
    """(sha256 over every file's relative path and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            total += len(data)
    return h.hexdigest(), total


# --- models ----------------------------------------------------------------

def _tree_leaf_proba(nodes, x):
    node = nodes[0]
    while "proba" not in node:
        go_left = x[node["feature"]] <= node["threshold"]
        node = nodes[node["left"] if go_left else node["right"]]
    return node["proba"]


def model_proba(d: dict, X: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of X from a model JSON document."""
    kind = d["kind"]
    if kind == "random_forest":
        out = np.zeros((len(X), len(d["class_names"])))
        for tree in d["trees"]:
            for r, x in enumerate(X):
                out[r] += _tree_leaf_proba(tree["nodes"], x)
        return out / len(d["trees"])
    if kind == "linear_svm":
        out = np.zeros((len(X), 2))
        for r, x in enumerate(X):
            z = [(v - m) / s for v, m, s in
                 zip(x, d["scaler_mean"], d["scaler_std"])]
            margin = sum(w * v for w, v in zip(d["weights"], z)) + d["bias"]
            p1 = (1.0 / (1.0 + math.exp(-margin)) if margin >= 0
                  else math.exp(margin) / (1.0 + math.exp(margin)))
            out[r] = (1.0 - p1, p1)
        return out
    if kind == "ensemble":
        total = sum(m["weight"] for m in d["members"])
        return sum((m["weight"] / total) * model_proba(m["model"], X)
                   for m in d["members"])
    raise CheckFailed(f"unknown model kind {kind!r}")


def predicted_names(d: dict, X: np.ndarray) -> list:
    """Argmax class name per row; the lowest class index wins ties."""
    return [d["class_names"][int(i)] for i in model_proba(d, X).argmax(axis=1)]


def check_probabilities(d: dict, X: np.ndarray, program_proba,
                        what: str) -> None:
    """The program's probabilities for rows X match a walk of the JSON."""
    ours = model_proba(d, X)
    theirs = np.asarray(program_proba, dtype=np.float64)
    require(theirs.shape == ours.shape,
            f"{what}: probability shape {theirs.shape} != {ours.shape}")
    worst = float(np.max(np.abs(theirs - ours)))
    require(worst <= PROBA_TOL,
            f"{what}: probabilities differ from the JSON walk by {worst:.3e}")
    sums = float(np.max(np.abs(theirs.sum(axis=1) - 1.0)))
    require(sums <= PROBA_TOL,
            f"{what}: probabilities sum off 1 by {sums:.3e}")


def forest_of(d: dict):
    if d["kind"] == "random_forest":
        return d
    for m in d.get("members", ()):
        if m["model"]["kind"] == "random_forest":
            return m["model"]
    return None


def check_importances(d: dict, what: str) -> None:
    imp = np.asarray(forest_of(d)["importances"], dtype=np.float64)
    require(bool(np.all(imp >= 0)), f"{what}: negative importance")
    require(abs(float(imp.sum()) - 1.0) <= 1e-12,
            f"{what}: importances sum to {float(imp.sum())!r}")


# --- reports ---------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.4f}"


def recount(class_names, y_true, y_pred):
    """Confusion matrix, accuracy and per-class (precision, recall), with
    labels mapped to class_names by name."""
    index = {c: i for i, c in enumerate(class_names)}
    k = len(class_names)
    cm = [[0] * k for _ in range(k)]
    for t, p in zip(y_true, y_pred):
        require(t in index and p in index,
                f"label {t!r} or prediction {p!r} not in {list(class_names)}")
        cm[index[t]][index[p]] += 1
    total = len(y_true)
    accuracy = sum(cm[c][c] for c in range(k)) / total
    per_class = []
    for c in range(k):
        col = sum(cm[i][c] for i in range(k))
        row = sum(cm[c])
        per_class.append((cm[c][c] / col if col else 0.0,
                          cm[c][c] / row if row else 0.0))
    return cm, accuracy, per_class


def check_report(report: dict, names, y_true, y_pred, what: str) -> float:
    """The report of a model with classes `names` matches a recount of
    (true, predicted) class names. Returns the recounted accuracy."""
    require(len(y_true) == len(y_pred) and len(y_true) > 0,
            f"{what}: {len(y_true)} labels vs {len(y_pred)} predictions")
    require(report["class_names"] == list(names),
            f"{what}: report classes {report['class_names']} != model "
            f"classes {list(names)}")
    cm, accuracy, per_class = recount(names, y_true, y_pred)
    require(report["confusion_matrix"] == cm,
            f"{what}: confusion matrix {report['confusion_matrix']} != "
            f"recount {cm}")
    require(report["accuracy"] == _fmt(accuracy),
            f"{what}: accuracy {report['accuracy']} != {_fmt(accuracy)}")
    for name, (p, r) in zip(names, per_class):
        got = report["per_class"][name]
        require(got == {"precision": _fmt(p), "recall": _fmt(r)},
                f"{what}: class {name!r} {got} != P {_fmt(p)} R {_fmt(r)}")
    macro = (_fmt(np.mean([p for p, _ in per_class])),
             _fmt(np.mean([r for _, r in per_class])))
    require((report["macro_precision"], report["macro_recall"]) == macro,
            f"{what}: macro precision/recall disagree with the recount")
    return accuracy


def check_forest_accuracy(accuracy: float, what: str) -> None:
    require(accuracy >= MIN_FOREST_ACCURACY,
            f"{what}: forest accuracy {accuracy:.4f} < {MIN_FOREST_ACCURACY}")


def ensemble_margin(accs: dict) -> float:
    """Ensemble accuracy minus its best member's (criterion 5 wants
    >= -0.02)."""
    return accs["ensemble"] - max(accs["forest"], accs["svm"])


def check_cv_folds(ids, train_sets, what: str) -> None:
    """k-fold cross-validation trained on `train_sets` (row ids per fold)
    over the rows `ids`: each row is held out by exactly one fold, so it
    is in the training set of all the others, and no training set repeats
    a row."""
    k = len(train_sets)
    require(k >= 2, f"{what}: {k} folds")
    seen = {i: 0 for i in ids}
    for f, train in enumerate(train_sets):
        require(len(set(train)) == len(train),
                f"{what}: fold {f} trains on a row twice")
        for i in train:
            require(i in seen, f"{what}: fold {f} trains on unknown row {i}")
            seen[i] += 1
    wrong = [i for i, n in seen.items() if n != k - 1]
    require(not wrong, f"{what}: {len(wrong)} rows are not held out by "
            f"exactly one of {k} folds, e.g. {wrong[:1]}")


# --- features --------------------------------------------------------------

def _dft_power(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """One-sided power spectrum by direct summation of the DFT series."""
    n_bins = n_fft // 2 + 1
    kn = np.outer(np.arange(frames.shape[1]), np.arange(n_bins))
    basis = np.exp(-2j * np.pi * kn / n_fft)
    return np.abs(frames @ basis) ** 2


def _mel_filterbank(n_mels, n_fft, rate, fmin, fmax):
    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    lo_mel, hi_mel = to_mel(fmin), to_mel(fmax)
    pts = [700.0 * (10.0 ** ((lo_mel + (hi_mel - lo_mel) * i / (n_mels + 1))
                             / 2595.0) - 1.0) for i in range(n_mels + 2)]
    fb = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, center, hi = pts[m], pts[m + 1], pts[m + 2]
        for b in range(fb.shape[1]):
            f = b * rate / n_fft
            if lo < f <= center:
                fb[m, b] = (f - lo) / (center - lo)
            elif center < f < hi:
                fb[m, b] = (hi - f) / (hi - center)
    return fb


def _zcr(frame) -> float:
    """Sign changes over len - 1; zeros take the previous nonzero sign and
    leading zeros count as positive."""
    prev = 1
    changes = 0
    for i, v in enumerate(frame):
        s = 1 if v > 0 else -1 if v < 0 else prev
        if i > 0 and s != prev:
            changes += 1
        prev = s
    return changes / (len(frame) - 1)


def oracle_features(x: np.ndarray, rate: int, n_mels=26, n_coeffs=13,
                    fmin=0.0, fmax=None, pre_emphasis=0.97, frame_len=400,
                    hop=160, n_fft=512) -> np.ndarray:
    """The 30-value clip vector (MFCC means, MFCC population stds, ZCR
    mean/std, centroid mean/std) from the defining formulas."""
    fmax = rate / 2 if fmax is None else fmax
    n_frames = 1 + (len(x) - frame_len) // hop
    starts = hop * np.arange(n_frames)
    k = np.arange(frame_len)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / frame_len))

    emph = np.concatenate([x[:1], x[1:] - pre_emphasis * x[:-1]])
    frames = np.stack([emph[s:s + frame_len] for s in starts]) * window
    energies = _dft_power(frames, n_fft) @ _mel_filterbank(
        n_mels, n_fft, rate, fmin, fmax).T
    i = np.arange(n_mels)
    dct = np.cos(np.pi * np.outer(np.arange(n_coeffs), 2 * i + 1)
                 / (2 * n_mels))
    scale = np.full(n_coeffs, math.sqrt(2.0 / n_mels))
    scale[0] = math.sqrt(1.0 / n_mels)
    coeffs = np.log(energies + 1e-10) @ (dct * scale[:, None]).T

    raw = [x[s:s + frame_len] for s in starts]
    zcrs = np.array([_zcr(fr) for fr in raw])
    power = _dft_power(np.stack(raw) * window, n_fft)
    freqs = np.arange(power.shape[1]) * rate / n_fft
    totals = power.sum(axis=1)
    centroids = np.where(totals > 0, (power * freqs).sum(axis=1)
                         / np.where(totals > 0, totals, 1.0), 0.0)

    def pstd(a):
        m = a.mean(axis=0)
        return np.sqrt(((a - m) ** 2).mean(axis=0))

    return np.concatenate([coeffs.mean(axis=0), pstd(coeffs),
                           [zcrs.mean(), pstd(zcrs), centroids.mean(),
                            pstd(centroids)]])


def check_feature_rows(names, rows, segment_paths, what: str) -> None:
    """Each feature row equals the oracle vector of its segment WAV."""
    expected_names = ([f"MFCC_mean_{i}" for i in range(1, 14)]
                      + [f"MFCC_std_{i}" for i in range(1, 14)]
                      + ["ZCR_mean", "ZCR_std", "Centroid_mean",
                         "Centroid_std"])
    require(list(names) == expected_names,
            f"{what}: unexpected feature schema")
    for row, path in zip(rows, segment_paths):
        x, rate = read_pcm16(path)
        ref = oracle_features(x, rate)
        err = np.abs(np.asarray(row) - ref) / np.maximum(1.0, np.abs(ref))
        worst = int(np.argmax(err))
        require(err[worst] <= FEATURE_TOL,
                f"{what}: {os.path.basename(path)} column {names[worst]} is "
                f"{float(row[worst])!r}, oracle {float(ref[worst])!r}")
