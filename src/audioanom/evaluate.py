"""Evaluation harness: stratified splits, confusion matrix, metrics,
cross-validation, and diffable report files.

Zero-denominator precision/recall is reported as 0 and flagged degenerate
rather than NaN, so reports always render. Headline precision/recall are
macro averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import check_settings
from .errors import (ClassTooSmall, ConfigError, EmptyMatrix,
                     LabelOutOfRange, LengthMismatch, MalformedReport)
from .features import FeatureSet
from .files import read_json, write_json
from .models import predict_proba

REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray            # (K, K) ints; rows true, columns predicted
    class_names: tuple

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class EvaluationReport:
    confusion: ConfusionMatrix
    accuracy: float
    per_class: list               # (precision, recall) per class
    macro_precision: float
    macro_recall: float
    seed: int
    degenerate_classes: list = field(default_factory=list)
    importance_top10: Optional[list] = None
    config_echo: dict = field(default_factory=dict)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _class_shuffles(data: FeatureSet, seed: int, need: int, why: str = ""):
    """Each class's row indices, class by class, in a shuffle seeded by
    (seed, class index); ClassTooSmall when a class has fewer than need."""
    y = data.labels()
    for c, name in enumerate(data.class_names):
        rows = np.nonzero(y == c)[0]
        if len(rows) < need:
            raise ClassTooSmall(f"class {name!r} has {len(rows)} instances, "
                                f"need >= {need}{why}")
        yield rows[np.random.default_rng([seed, c]).permutation(len(rows))]


def stratified_split(data: FeatureSet, test_frac: float, seed: int):
    """Per-class seeded shuffle; round(test_frac * n_c) instances go to test."""
    check_settings(test_frac=test_frac)
    train_idx, test_idx = [], []
    for perm in _class_shuffles(data, seed, 2):
        n_test = _round_half_up(test_frac * len(perm))
        test_idx.extend(perm[:n_test].tolist())
        train_idx.extend(perm[n_test:].tolist())
    return data.subset(sorted(train_idx)), data.subset(sorted(test_idx))


def confusion_matrix(y_true, y_pred, n_classes: int,
                     class_names: Optional[tuple] = None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    for arr, which in ((y_true, "true"), (y_pred, "predicted")):
        if len(arr) and (arr.min() < 0 or arr.max() >= n_classes):
            raise LabelOutOfRange(f"{which} labels outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    if class_names is None:
        class_names = tuple(str(c) for c in range(n_classes))
    return ConfusionMatrix(counts, tuple(class_names))


def metrics(cm: ConfusionMatrix, importance_top10: Optional[list] = None,
            config_echo: Optional[dict] = None, *,
            seed: int) -> EvaluationReport:
    """Accuracy plus per-class and macro precision/recall from a matrix."""
    counts = cm.counts
    total = counts.sum()
    if total < 1:
        raise EmptyMatrix("confusion matrix holds zero instances")
    accuracy = float(np.trace(counts)) / total
    per_class = []
    degenerate = []
    for c in range(len(cm.class_names)):
        col = counts[:, c].sum()
        row = counts[c, :].sum()
        precision = counts[c, c] / col if col > 0 else 0.0
        recall = counts[c, c] / row if row > 0 else 0.0
        if col == 0 or row == 0:
            degenerate.append(cm.class_names[c])
        per_class.append((float(precision), float(recall)))
    macro_p = float(np.mean([p for p, _ in per_class]))
    macro_r = float(np.mean([r for _, r in per_class]))
    return EvaluationReport(cm, accuracy, per_class, macro_p, macro_r,
                            degenerate_classes=degenerate,
                            importance_top10=importance_top10,
                            config_echo=dict(config_echo or {}), seed=seed)


def predict_confusion(model, test: FeatureSet) -> ConfusionMatrix:
    """Confusion matrix of the model's argmax predictions on `test`, indexed
    by test.class_names; ties go to the lowest class index."""
    y_true = test.labels()
    y_pred = np.argmax(predict_proba(model, test), axis=1)
    return confusion_matrix(y_true, y_pred, len(test.class_names),
                            test.class_names)


@dataclass
class CrossValidationResult:
    fold_reports: list
    mean_accuracy: float
    std_accuracy: float           # population std over folds


def cross_validate(data: FeatureSet, k: int,
                   trainer: Callable[[FeatureSet], object],
                   seed: int) -> CrossValidationResult:
    """Stratified k-fold; trainer(train_set) must return a model usable with
    models.predict_proba."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    folds: list = [[] for _ in range(k)]
    for perm in _class_shuffles(data, seed, k, f" for {k}-fold CV"):
        for i, idx in enumerate(perm):
            folds[i % k].append(int(idx))

    reports = []
    for f in range(k):
        test_idx = sorted(folds[f])
        train_idx = sorted(i for g in range(k) if g != f for i in folds[g])
        model = trainer(data.subset(train_idx))
        cm = predict_confusion(model, data.subset(test_idx))
        reports.append(metrics(cm, seed=seed))

    accs = np.array([r.accuracy for r in reports])
    return CrossValidationResult(reports, float(accs.mean()),
                                 float(accs.std()))


# --- report files ---

def _fmt(x: float) -> str:
    return f"{x:.4f}"


def emit_report(report: EvaluationReport, path) -> None:
    """Write the report as stable-key-order JSON so files are diffable;
    metric values rendered to 4 decimal places."""
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "seed": report.seed,
        "class_names": list(report.confusion.class_names),
        "confusion_matrix": report.confusion.counts.tolist(),
        "accuracy": _fmt(report.accuracy),
        "per_class": {
            name: {"precision": _fmt(p), "recall": _fmt(r)}
            for name, (p, r) in zip(report.confusion.class_names,
                                    report.per_class)
        },
        "macro_precision": _fmt(report.macro_precision),
        "macro_recall": _fmt(report.macro_recall),
        "degenerate_classes": list(report.degenerate_classes),
        "importance_top10": [
            [name, _fmt(v)] for name, v in (report.importance_top10 or [])
        ] or None,
        "config_echo": report.config_echo,
    }
    write_json(doc, path)


def load_report(path) -> EvaluationReport:
    """Parse emit_report's JSON back into a report; MalformedReport names
    the file of one that is not JSON or lacks or mistypes a key."""
    d = read_json(path, MalformedReport)
    try:
        names = tuple(d["class_names"])
        cm = ConfusionMatrix(np.asarray(d["confusion_matrix"], dtype=np.int64),
                             names)
        per_class = [(float(d["per_class"][n]["precision"]),
                      float(d["per_class"][n]["recall"])) for n in names]
        top10 = d.get("importance_top10")
        return EvaluationReport(
            cm,
            accuracy=float(d["accuracy"]),
            per_class=per_class,
            macro_precision=float(d["macro_precision"]),
            macro_recall=float(d["macro_recall"]),
            degenerate_classes=list(d.get("degenerate_classes", [])),
            importance_top10=[(n, float(v)) for n, v in top10 or ()] or None,
            config_echo=dict(d.get("config_echo", {})),
            seed=int(d["seed"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedReport(f"{path}: not a v1 report: "
                              f"{type(exc).__name__}: {exc}") from exc
