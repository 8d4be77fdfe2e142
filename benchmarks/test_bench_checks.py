"""Self-test of the benchmark's output checks: they pass on a real (tiny)
pipeline run and fail on each kind of corrupted output."""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_checks as chk  # noqa: E402
from audioanom.config import PipelineConfig  # noqa: E402
from audioanom.features import FeatureVector  # noqa: E402
from audioanom.models import load_model, predict_proba  # noqa: E402
from audioanom.pipeline import run_pipeline  # noqa: E402

MODELS = ("forest", "svm", "ensemble")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_checks")
    paths = run_pipeline(PipelineConfig(n_per_class=4, n_trees=5, seed=3), out)
    ids, labels, names, X = chk.read_feature_csv(paths["test_csv"])
    all_ids, _, _, all_X = chk.read_feature_csv(paths["features_csv"])
    program = {}
    for m in MODELS:
        model = load_model(paths[f"model_{m}"])
        program[m] = [predict_proba(model, FeatureVector(tuple(names), x, ""))
                      for x in X]
    return {"paths": paths, "labels": labels, "names": names, "X": X,
            "program": program, "all_ids": all_ids, "all_X": all_X,
            "segments": [os.path.join(out, "segments", i + ".wav")
                         for i in all_ids]}


def model_json(run, m):
    return chk.read_json(run["paths"][f"model_{m}"])


def test_clean_outputs_pass(run):
    for m in MODELS:
        d = model_json(run, m)
        report = chk.read_json(run["paths"][f"report_{m}"])
        chk.check_report(report, d["class_names"], run["labels"],
                         chk.predicted_names(d, run["X"]), m)
        chk.check_probabilities(d, run["X"], run["program"][m], m)
    chk.check_importances(model_json(run, "ensemble"), "ensemble")
    chk.check_feature_rows(run["names"], run["all_X"][:2],
                           run["segments"][:2], "features")


def test_swapped_prediction_fails(run):
    d = model_json(run, "forest")
    pred = chk.predicted_names(d, run["X"])
    other = [c for c in d["class_names"] if c != pred[0]][0]
    report = chk.read_json(run["paths"]["report_forest"])
    with pytest.raises(chk.CheckFailed, match="confusion matrix"):
        chk.check_report(report, d["class_names"], run["labels"],
                         [other] + pred[1:], "forest")


def test_perturbed_mfcc_column_fails(run):
    rows = run["all_X"][:1].copy()
    rows[0, run["names"].index("MFCC_mean_1")] += 1e-3
    with pytest.raises(chk.CheckFailed, match="MFCC_mean_1"):
        chk.check_feature_rows(run["names"], rows, run["segments"][:1],
                               "features")


def test_moved_threshold_fails(run):
    d = model_json(run, "forest")
    X = run["X"]
    for tree in d["trees"]:
        root = tree["nodes"][0]
        if "proba" in root:
            continue
        for x in X:
            moved = copy.deepcopy(tree["nodes"])
            v = x[root["feature"]]
            moved[0]["threshold"] = (v - 1e-9 if v <= root["threshold"]
                                     else v + 1e-9)
            if (chk._tree_leaf_proba(moved, x)
                    != chk._tree_leaf_proba(tree["nodes"], x)):
                tree["nodes"] = moved
                with pytest.raises(chk.CheckFailed, match="JSON walk"):
                    chk.check_probabilities(d, X, run["program"]["forest"],
                                            "forest")
                return
    pytest.fail("no root threshold move changes a route")


def test_cv_fold_check():
    ids = list("abcdef")
    folds = [["c", "d", "e", "f"], ["a", "b", "e", "f"], ["a", "b", "c", "d"]]
    chk.check_cv_folds(ids, folds, "cv")
    with pytest.raises(chk.CheckFailed, match="exactly one of 3 folds"):
        chk.check_cv_folds(ids, [folds[0], folds[1], ["a", "b", "c", "e"]],
                           "cv")
    with pytest.raises(chk.CheckFailed, match="twice"):
        chk.check_cv_folds(ids, [folds[0], folds[1], ["a", "a", "c", "d"]],
                           "cv")


def test_benchmark_json_lists_what_the_benchmark_reports():
    import run
    from bench_trace import PER_LAYER

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
