import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from audioanom.errors import (ClassTooSmall, EmptyMatrix, IoFailure,
                              LabelOutOfRange, LengthMismatch, MalformedReport)
from audioanom.evaluate import (
    ConfusionMatrix,
    confusion_matrix,
    cross_validate,
    emit_report,
    load_report,
    metrics,
    stratified_split,
)
from audioanom.features import FeatureSet, FeatureVector

from oracles import recount_metrics


def make_set(n_per_class, class_names=("A", "B"), seed=0):
    rng = np.random.default_rng(seed)
    names = ("f0", "f1")
    vectors = []
    for c, cname in enumerate(class_names):
        for i in range(n_per_class[c]):
            vectors.append(FeatureVector(names, rng.normal(size=2),
                                         clip_id=f"{cname}{i}", label=cname))
    return FeatureSet(vectors, names, tuple(class_names))


# --- stratified_split ---

def test_split_counts():
    data = make_set([100, 100])
    train, test = stratified_split(data, 0.3, seed=1)
    test_labels = [v.label for v in test.vectors]
    assert test_labels.count("A") == 30
    assert test_labels.count("B") == 30
    assert len(train.vectors) == 140


def test_split_deterministic_and_disjoint():
    data = make_set([20, 30])
    t1 = stratified_split(data, 0.25, seed=9)
    t2 = stratified_split(data, 0.25, seed=9)
    ids1 = [v.clip_id for v in t1[1].vectors]
    ids2 = [v.clip_id for v in t2[1].vectors]
    assert ids1 == ids2
    train_ids = {v.clip_id for v in t1[0].vectors}
    test_ids = {v.clip_id for v in t1[1].vectors}
    assert not train_ids & test_ids
    assert len(train_ids | test_ids) == 50


def test_split_rounding_small_class():
    # 7 instances at 0.3 -> round(2.1) = 2 in test
    data = make_set([7, 10])
    _, test = stratified_split(data, 0.3, seed=0)
    assert [v.label for v in test.vectors].count("A") == 2
    assert [v.label for v in test.vectors].count("B") == 3


def test_split_class_of_two():
    # two rows is the least a class needs: one for each side
    train, test = stratified_split(make_set([2, 5]), 0.3, seed=0)
    assert [v.label for v in test.vectors].count("A") == 1
    assert [v.label for v in train.vectors].count("A") == 1


def test_split_class_too_small():
    data = make_set([1, 5])
    with pytest.raises(ClassTooSmall):
        stratified_split(data, 0.3)


# --- confusion_matrix ---

def test_confusion_counting():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 2]])


def test_confusion_perfect_is_diagonal():
    y = [0, 1, 2, 1, 0]
    cm = confusion_matrix(y, y, 3)
    assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
    assert cm.total == 5


def test_confusion_empty():
    cm = confusion_matrix([], [], 2)
    np.testing.assert_array_equal(cm.counts, 0)


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        confusion_matrix([0], [0, 1], 2)
    with pytest.raises(LabelOutOfRange):
        confusion_matrix([0, 2], [0, 1], 2)


# --- metrics ---

def test_metrics_worked_example():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    report = metrics(cm)
    assert report.accuracy == pytest.approx(0.75)
    assert report.per_class[0] == pytest.approx((1.0, 0.5))
    assert report.per_class[1] == pytest.approx((2 / 3, 1.0))
    assert report.macro_precision == pytest.approx(5 / 6)


def test_metrics_perfect():
    cm = confusion_matrix([0, 1, 1], [0, 1, 1], 2)
    report = metrics(cm)
    assert report.accuracy == 1.0
    assert report.per_class == [(1.0, 1.0), (1.0, 1.0)]
    assert report.degenerate_classes == []   # class 0 has one true row


def test_metrics_empty_matrix():
    with pytest.raises(EmptyMatrix):
        metrics(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ("A", "B")))


def test_metrics_degenerate_column_flagged():
    # nothing predicted as class 1
    cm = confusion_matrix([0, 1], [0, 0], 2, ("A", "B"))
    report = metrics(cm)
    assert report.per_class[1] == (0.0, 0.0)
    assert "B" in report.degenerate_classes


def test_metrics_match_brute_force_recount():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        k = rng.integers(2, 5)
        n = rng.integers(1, 40)
        y_true = rng.integers(0, k, size=n).tolist()
        y_pred = rng.integers(0, k, size=n).tolist()
        cm = confusion_matrix(y_true, y_pred, k)
        report = metrics(cm)
        ref_cm, ref_acc, ref_p, ref_r = recount_metrics(y_true, y_pred, k)
        np.testing.assert_array_equal(cm.counts, ref_cm)
        assert report.accuracy == pytest.approx(ref_acc, abs=1e-12)
        for c in range(k):
            assert report.per_class[c][0] == pytest.approx(ref_p[c], abs=1e-12)
            assert report.per_class[c][1] == pytest.approx(ref_r[c], abs=1e-12)

        # weighted-recall identity
        rows = cm.counts.sum(axis=1)
        weighted = sum(report.per_class[c][1] * rows[c] / cm.total
                       for c in range(k))
        assert abs(report.accuracy - weighted) <= 1e-12

        # micro precision == accuracy for single-label classification
        diag = np.trace(cm.counts)
        cols = cm.counts.sum(axis=0)
        micro_p = diag / cols.sum()
        assert micro_p == pytest.approx(report.accuracy, abs=1e-12)


def test_metrics_class_permutation_consistency():
    rng = np.random.default_rng(41)
    y_true = rng.integers(0, 3, size=60)
    y_pred = rng.integers(0, 3, size=60)
    report = metrics(confusion_matrix(y_true, y_pred, 3))
    perm = np.array([2, 0, 1])
    permuted = metrics(confusion_matrix(perm[y_true], perm[y_pred], 3))
    assert permuted.accuracy == pytest.approx(report.accuracy, abs=1e-12)
    for c in range(3):
        assert permuted.per_class[perm[c]] == pytest.approx(report.per_class[c])


# --- cross_validate ---

class MajorityClassModel:
    def __init__(self, train):
        y = train.labels()
        self.majority = int(np.bincount(y).argmax())
        self.k = len(train.class_names)
        self.feature_names = train.names
        self.class_names = train.class_names

    def predict_proba_values(self, X):
        proba = np.zeros((len(X), self.k))
        proba[:, self.majority] = 1.0
        return proba


def test_cv_folds_partition_dataset():
    data = make_set([12, 18])
    result = cross_validate(data, 3, MajorityClassModel, seed=2)
    assert len(result.fold_reports) == 3
    total = sum(r.confusion.total for r in result.fold_reports)
    assert total == 30


class HeldOutModel(MajorityClassModel):
    """Fails if asked to predict a row it was trained on, or if its
    training rows and the rows it predicts are not the whole set."""

    def __init__(self, train):
        super().__init__(train)
        self.train_rows = {tuple(v.values) for v in train.vectors}

    def predict_proba_values(self, X):
        test_rows = {tuple(x) for x in X}
        assert not self.train_rows & test_rows
        assert len(self.train_rows) + len(test_rows) == 21
        return super().predict_proba_values(X)


def test_cv_never_trains_on_its_test_fold():
    result = cross_validate(make_set([9, 12]), 3, HeldOutModel, seed=4)
    assert sum(r.confusion.total for r in result.fold_reports) == 21


def test_cv_deterministic():
    data = make_set([12, 12])
    r1 = cross_validate(data, 4, MajorityClassModel, seed=5)
    r2 = cross_validate(data, 4, MajorityClassModel, seed=5)
    accs1 = [r.accuracy for r in r1.fold_reports]
    accs2 = [r.accuracy for r in r2.fold_reports]
    assert accs1 == accs2


def test_cv_majority_baseline_on_imbalanced_set():
    data = make_set([70, 30])
    result = cross_validate(data, 5, MajorityClassModel, seed=3)
    assert result.mean_accuracy == pytest.approx(0.7, abs=0.05)


def test_cv_class_too_small():
    data = make_set([2, 10])
    with pytest.raises(ClassTooSmall):
        cross_validate(data, 3, MajorityClassModel)


# --- reports ---

def _sample_report():
    cm = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2,
                          ("normal", "anomalous"))
    return metrics(cm, importance_top10=[("MFCC_mean_12", 0.25),
                                         ("ZCR_std", 0.125)],
                   config_echo={"seed": 42, "n_fft": 512}, seed=42)


def test_report_round_trip(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.json"
    emit_report(report, path)
    back = load_report(path)
    np.testing.assert_array_equal(back.confusion.counts,
                                  report.confusion.counts)
    assert back.seed == report.seed
    assert back.config_echo == report.config_echo
    assert back.accuracy == pytest.approx(report.accuracy, abs=5e-5)
    # re-emitting the parsed report reproduces the file byte for byte
    path2 = tmp_path / "report2.json"
    emit_report(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_report_deterministic_bytes(tmp_path):
    report = _sample_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, p1)
    emit_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_under_a_file_is_an_io_failure(tmp_path):
    (tmp_path / "file.txt").write_text("mine\n")
    path = tmp_path / "file.txt" / "report.json"
    with pytest.raises(IoFailure, match=r"cannot write .*report\.json: "
                       r"\[Errno 20\] Not a directory"):
        emit_report(_sample_report(), path)


def test_report_four_decimal_formatting(tmp_path):
    report = _sample_report()
    report.accuracy = 0.968
    path = tmp_path / "report.json"
    emit_report(report, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["accuracy"] == "0.9680"
    assert load_report(path).accuracy == pytest.approx(0.968)


@pytest.mark.parametrize("fault", ["truncated", "empty_object", "str_accuracy",
                                   "infinite_seed"])
def test_malformed_report_names_file(tmp_path, fault):
    path = tmp_path / "report.json"
    emit_report(_sample_report(), path)
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    path.write_text({
        "truncated": text[:len(text) // 2],
        "empty_object": "{}",
        "str_accuracy": json.dumps({**doc, "accuracy": "x"}),
        "infinite_seed": json.dumps({**doc, "seed": float("inf")}),
    }[fault], encoding="utf-8")
    with pytest.raises(MalformedReport) as info:
        load_report(path)
    assert str(path) in str(info.value)


@st.composite
def reports(draw):
    """A report of a random 2-3-class matrix holding at least one row, with
    any importances, config echo and seed."""
    k = draw(st.integers(2, 3))
    names = draw(st.lists(st.text(), min_size=k, max_size=k, unique=True))
    counts = np.array(draw(st.lists(st.integers(0, 10**6), min_size=k * k,
                                    max_size=k * k))).reshape(k, k)
    counts[draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))] += 1
    top10 = draw(st.none() | st.lists(st.tuples(st.text(), st.floats(0, 1)),
                                      max_size=10))
    echo = draw(st.dictionaries(st.text(), st.none() | st.booleans()
                                | st.integers() | st.text()
                                | st.floats(allow_nan=False), max_size=4))
    return metrics(ConfusionMatrix(counts, tuple(names)),
                   importance_top10=top10, config_echo=echo,
                   seed=draw(st.integers(0, 2**64)))


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


@given(reports())
def test_report_json_round_trip(report_dir, report):
    path, path2 = report_dir / "report.json", report_dir / "report2.json"
    emit_report(report, path)
    emit_report(load_report(path), path2)
    assert path.read_bytes() == path2.read_bytes()
