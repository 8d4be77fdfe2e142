import functools
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audioanom import models, parallel
from audioanom.errors import (ConfigError, EmptyClass, EmptyDataset,
                              MalformedModel, NonFiniteFeature, NotBinary,
                              SchemaMismatch)
from audioanom.features import FeatureSet, FeatureVector
from audioanom.models import (
    EnsembleModel,
    LinearSvm,
    RandomForest,
    feature_importance,
    model_from_dict,
    load_model,
    predict_proba,
    save_model,
    svm_objective,
    train_forest,
    train_svm,
    train_tree,
)
from oracles import walk_tree_nodes


def make_set(X, labels, class_names=("A", "B"), feature_names=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and len(labels) > 1:
        X = X.T
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    vectors = [FeatureVector(feature_names, X[i], clip_id=f"c{i}",
                             label=labels[i]) for i in range(len(labels))]
    return FeatureSet(vectors, feature_names, tuple(class_names))


def one_tree(forest, tree):
    """A one-tree forest of `tree` over the forest's features and classes."""
    return RandomForest([tree], forest.feature_names, forest.class_names, 1,
                        0, forest.importances)


# --- train_tree ---

def test_tree_pure_node_is_single_leaf():
    data = make_set([[0.0], [1.0], [2.0]], ["A", "A", "A"])
    nodes = train_tree(data).trees[0]["nodes"]
    assert len(nodes) == 1
    np.testing.assert_array_equal(nodes[0]["proba"], [1.0, 0.0])


def test_tree_single_split_midpoint():
    # enumerating all candidate splits by hand: midpoints 0.5, 1.5, 2.5;
    # only 1.5 yields two pure children (gain 0.5), so it must be chosen
    data = make_set([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
    tree = train_tree(data)
    root = tree.trees[0]["nodes"][0]
    assert root["feature"] == 0
    assert root["threshold"] == pytest.approx(1.5)
    # a row exactly on the threshold goes left
    for x, label in [(0.0, 0), (1.0, 0), (1.5, 0), (2.0, 1), (3.0, 1)]:
        assert np.argmax(tree.predict_proba_values(np.array([[x]]))[0]) == label


def test_tree_conflicting_labels_leaf_frequencies():
    data = make_set([[1.0], [1.0], [1.0], [1.0]], ["A", "A", "A", "B"])
    nodes = train_tree(data).trees[0]["nodes"]
    assert len(nodes) == 1
    np.testing.assert_allclose(nodes[0]["proba"], [0.75, 0.25])


def test_tree_empty_dataset():
    with pytest.raises(EmptyDataset):
        train_tree(FeatureSet([], ("f0",), ("A", "B")))


def test_tree_deeper_than_the_recursion_limit():
    # alternating labels on one sorted feature leave one split per level
    n = 3000
    labels = ["normal" if i % 2 == 0 else "anomalous" for i in range(n)]
    data = make_set([np.arange(n, dtype=float)], labels,
                    ("anomalous", "normal"))
    tree = train_tree(data)
    nodes = tree.trees[0]["nodes"]
    depth = [0] * len(nodes)
    for i, node in enumerate(nodes):   # children have higher ids
        if "proba" not in node:
            depth[node["left"]] = depth[node["right"]] = depth[i] + 1
    assert max(depth) > sys.getrecursionlimit()
    predicted = tree.predict_proba_values(data.matrix()).argmax(axis=1)
    np.testing.assert_array_equal(predicted, data.labels())


def test_tree_leaf_probabilities_sum_to_one():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(50, 4))
    labels = ["A" if rng.random() < 0.5 else "B" for _ in range(50)]
    tree = train_tree(make_set(X, labels))
    for node in tree.trees[0]["nodes"]:
        if "proba" in node:
            assert sum(node["proba"]) == pytest.approx(1.0, abs=1e-9)


def test_tree_monotone_feature_scaling_preserves_predictions():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(60, 3))
    labels = ["A" if x[0] + 0.5 * x[1] > 0 else "B" for x in X]
    data = make_set(X, labels)
    # strictly increasing per-feature transform
    g = lambda M: np.stack([np.exp(M[:, 0]), M[:, 1] ** 3, 5 * M[:, 2] + 1],
                           axis=1)
    data_g = make_set(g(X), labels)
    tree = train_tree(data)
    tree_g = train_tree(data_g)
    X_test = rng.normal(size=(40, 3))
    Xg_test = g(X_test)
    np.testing.assert_array_equal(
        np.argmax(tree.predict_proba_values(X_test), axis=1),
        np.argmax(tree_g.predict_proba_values(Xg_test), axis=1))


def test_tree_identical_columns_split_on_lower_feature():
    rng = np.random.default_rng(37)
    x = rng.normal(size=40)
    labels = ["A" if v > 0.2 else "B" for v in x]
    # feature 0 is noise; 1 and 3 are the same informative column
    X = np.stack([rng.normal(size=40), x, rng.normal(size=40), x], axis=1)
    tree = train_tree(make_set(X, labels))
    assert tree.trees[0]["nodes"][0]["feature"] == 1


def test_tree_equal_gini_thresholds_pick_lower():
    # splitting at 0.5 or at 2.5 leaves one pure child of one row and an
    # impure child of three (A, B, B vs A, A, B): equal child gini
    data = make_set([[0.0], [1.0], [2.0], [3.0]], ["B", "A", "A", "B"])
    tree = train_tree(data)
    assert tree.trees[0]["nodes"][0]["threshold"] == 0.5


@pytest.mark.parametrize("lo, hi", [
    (1.0000000000000002, 1.0000000000000004),   # the midpoint rounds to hi
    (1e308, 1.5e308),                           # lo + hi overflows
], ids=["adjacent_doubles", "sum_overflows"])
def test_split_threshold_lies_below_upper_value(lo, hi):
    # a threshold at hi sent both rows left, and the node split them again
    data = make_set([[lo], [hi]], ["A", "B"])
    assert lo <= train_tree(data).trees[0]["nodes"][0]["threshold"] < hi
    forest = train_forest(data, n_trees=100, seed=0)
    predicted = np.argmax(forest.predict_proba_values(data.matrix()), axis=1)
    np.testing.assert_array_equal(predicted, data.labels())


def _leaf_of(nodes, X):
    """Index of the leaf each row of X reaches, walked one row at a time."""
    out = []
    for x in X:
        node = 0
        while "proba" not in nodes[node]:
            split = nodes[node]
            go_left = x[split["feature"]] <= split["threshold"]
            node = split["left"] if go_left else split["right"]
        out.append(node)
    return np.array(out)


@pytest.mark.parametrize("min_leaf", [1, 2, 3, 5])
def test_tree_leaves_hold_min_samples_leaf(min_leaf):
    rng = np.random.default_rng(38)
    X = np.round(rng.normal(size=(60, 3)), 1)
    labels = ["A" if rng.random() < 0.5 else "B" for _ in range(60)]
    nodes = train_tree(make_set(X, labels),
                       min_samples_leaf=min_leaf).trees[0]["nodes"]
    sizes = np.bincount(_leaf_of(nodes, X), minlength=len(nodes))
    leaves = [i for i, node in enumerate(nodes) if "proba" in node]
    assert len(leaves) > 1
    assert all(sizes[i] >= min_leaf for i in leaves)


# --- train_forest ---

def test_forest_deterministic():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(40, 5))
    labels = ["A" if x[2] > 0 else "B" for x in X]
    data = make_set(X, labels)
    f1 = train_forest(data, n_trees=10, seed=7)
    f2 = train_forest(data, n_trees=10, seed=7)
    assert f1.to_dict() == f2.to_dict()
    np.testing.assert_array_equal(f1.importances, f2.importances)


def test_forest_reduces_to_single_tree():
    # with every feature a candidate, a one-tree forest is a plain tree on
    # its bootstrap draw, which comes first from the tree's (seed, 0) stream
    rng = np.random.default_rng(34)
    X = rng.normal(size=(30, 4))
    labels = ["A" if x[1] > 0 else "B" for x in X]
    data = make_set(X, labels)
    forest = train_forest(data, n_trees=1, mtry=4, seed=9)
    idx = np.random.default_rng([9, 0]).integers(0, 30, 30)
    tree = train_tree(data.subset(idx))
    assert forest.trees == tree.trees
    np.testing.assert_array_equal(forest.importances, tree.importances)


def test_forest_mtry_beyond_features_is_a_config_error():
    # the bound needs the data, so PipelineConfig.validate cannot check it
    data = make_set(np.arange(8.0).reshape(4, 2), ["A", "B", "A", "B"])
    with pytest.raises(ConfigError,
                       match=r"^mtry 3 exceeds the feature count, 2$"):
        train_forest(data, n_trees=1, mtry=3, seed=0)


def test_forest_importance_finds_informative_feature():
    rng = np.random.default_rng(35)
    X = rng.normal(size=(80, 5))
    labels = ["A" if x[0] > 0.1 else "B" for x in X]
    forest = train_forest(make_set(X, labels), n_trees=20, mtry=2, seed=1)
    assert np.argmax(forest.importances) == 0
    assert forest.importances[0] > max(forest.importances[1:])
    assert forest.importances.sum() == pytest.approx(1.0, abs=1e-9)


def test_forest_proba_is_mean_of_trees():
    rng = np.random.default_rng(36)
    X = rng.normal(size=(50, 4))
    labels = ["A" if rng.random() < 0.6 else "B" for _ in range(50)]
    forest = train_forest(make_set(X, labels), n_trees=15, mtry=2, seed=2)
    X_test = rng.normal(size=(20, 4))
    expected = np.mean([one_tree(forest, t).predict_proba_values(X_test)
                        for t in forest.trees], axis=0)
    np.testing.assert_allclose(forest.predict_proba_values(X_test), expected)


def test_forest_pure_leaves_zero_importance():
    data = make_set([[1.0], [1.0]], ["A", "A"])
    forest = train_forest(data, n_trees=3, mtry=1, seed=0)
    assert all(len(t["nodes"]) == 1 for t in forest.trees)
    np.testing.assert_array_equal(forest.importances, 0.0)


def _forest_data():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(60, 6))
    labels = ["A" if x[0] + 0.5 * x[3] + 0.3 * rng.normal() > 0 else "B"
              for x in X]
    return make_set(X, labels)


def _one_cpu(monkeypatch):
    """Make pool_map see one usable CPU, so it runs its tasks in-process."""
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})


@pytest.mark.parametrize("n_trees, mtry, max_depth, seed", [
    (1, None, None, 0), (2, 1, None, 5), (5, 3, 2, 11), (9, 6, None, 3),
    (13, None, 4, 42)])
def test_forest_is_the_same_at_any_pool_width(monkeypatch, n_trees, mtry,
                                              max_depth, seed):
    data = _forest_data()
    pooled = train_forest(data, n_trees, mtry, max_depth, seed=seed)
    _one_cpu(monkeypatch)
    serial = train_forest(data, n_trees, mtry, max_depth, seed=seed)
    assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())
    assert pooled.importances.tobytes() == serial.importances.tobytes()


def _forest_json(data, seed):
    return json.dumps(train_forest(data, n_trees=3, seed=seed).to_dict())


def test_forest_trains_inside_a_pool_task():
    # a pool worker is daemonic and can start no pool of its own, so
    # train_forest grows its trees in the worker
    data = _forest_data()
    in_tasks = parallel.pool_map(functools.partial(_forest_json, data),
                                 [1, 2])
    assert in_tasks == [_forest_json(data, 1), _forest_json(data, 2)]


_grow_tree = models._grow_tree
_grown_here = []


def _counted_grow_tree(*args):
    # module level, so the pool can pickle it by name; a forked worker
    # counts in its own copy of _grown_here
    _grown_here.append(args[-1])
    return _grow_tree(*args)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="with one usable CPU the trees grow in-process")
def test_trees_grow_in_pool_workers(monkeypatch):
    # the parent grows no tree, so the training heap lives in the workers
    data = _forest_data()
    monkeypatch.setattr(models, "_grow_tree", _counted_grow_tree)
    _grown_here.clear()
    assert len(train_forest(data, n_trees=4, seed=1).trees) == 4
    assert _grown_here == []
    # the counter does see trees grown in this process
    _one_cpu(monkeypatch)
    train_forest(data, n_trees=4, seed=1)
    assert _grown_here == [0, 1, 2, 3]


# --- train_svm ---

def test_svm_separable_two_points():
    data = make_set([[-1.0], [1.0]], ["A", "B"])
    svm = train_svm(data, lam=1e-2, epochs=100, seed=0)
    # P(class 1) > 0.5 exactly when the decision value is positive
    p1 = svm.predict_proba_values(np.array([[-1.0], [1.0]]))[:, 1]
    assert p1[0] < 0.5
    assert p1[1] > 0.5


def test_svm_zero_epochs():
    data = make_set([[-1.0], [1.0]], ["A", "B"])
    svm = train_svm(data, lam=1e-3, epochs=0, seed=0)
    np.testing.assert_array_equal(svm.weights, 0.0)
    assert svm.bias == 0.0
    x = FeatureVector(("f0",), np.array([0.3]), "c")
    np.testing.assert_array_equal(predict_proba(svm, x), [0.5, 0.5])
    assert np.argmax(predict_proba(svm, x)) == 0  # tie: lowest class index


def test_svm_standardization_invariant_under_duplication():
    X = [[-1.0, 2.0], [1.0, 0.0], [0.5, -1.0], [-0.5, 1.5]]
    labels = ["A", "B", "B", "A"]
    svm1 = train_svm(make_set(X, labels), lam=1e-3, epochs=1, seed=0)
    svm2 = train_svm(make_set(X + X, labels + labels), lam=1e-3,
                     epochs=1, seed=0)
    np.testing.assert_allclose(svm1.mean, svm2.mean)
    np.testing.assert_allclose(svm1.std, svm2.std)


def test_svm_rejects_multiclass():
    data = make_set([[0.0], [1.0], [2.0]], ["A", "B", "C"],
                    class_names=("A", "B", "C"))
    with pytest.raises(NotBinary):
        train_svm(data, lam=1e-3, epochs=50, seed=0)


def test_svm_zero_variance_feature_gets_unit_std():
    data = make_set([[1.0, 5.0], [2.0, 5.0]], ["A", "B"])
    svm = train_svm(data, lam=1e-3, epochs=1, seed=0)
    assert svm.std[1] == 1.0


def test_svm_on_a_one_class_subset_names_the_empty_class():
    # subset keeps the parent table's class names
    data = make_set([[0.0], [1.0], [2.0]], ["A", "B", "A"]).subset([0, 2])
    assert data.class_names == ("A", "B")
    with pytest.raises(EmptyClass, match="class 'B' has no instances"):
        train_svm(data, lam=1e-3, epochs=1, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("train", [
    functools.partial(train_forest, n_trees=2, mtry=1, seed=0), train_tree,
    functools.partial(train_svm, lam=1e-3, epochs=1, seed=0)],
    ids=["forest", "tree", "svm"])
def test_trainers_refuse_non_finite_features(train, bad):
    data = make_set([[0.0, 1.0], [1.0, bad], [2.0, 0.0]], ["A", "B", "A"])
    with pytest.raises(NonFiniteFeature, match="'c1'.*'f1'"):
        train(data)


def test_svm_objective_not_worse_than_zero_weights():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(60, 3))
    labels = ["A" if x[0] > 0 else "B" for x in X]
    data = make_set(X, labels)
    trained = train_svm(data, lam=1e-2, epochs=50, seed=3)
    zero = LinearSvm(np.zeros(3), 0.0, trained.mean, trained.std,
                     data.names, data.class_names, trained.lam, 0, 3)
    y_pm = np.where(data.labels() == 1, 1.0, -1.0)
    assert svm_objective(trained, data.matrix(), y_pm) <= \
        svm_objective(zero, data.matrix(), y_pm)


# --- predict_proba ---

def test_pure_leaf_forest_proba():
    data = make_set([[1.0], [2.0]], ["A", "A"])
    forest = train_forest(data, n_trees=1, mtry=1, seed=0)
    x = FeatureVector(("f0",), np.array([1.5]), "c")
    np.testing.assert_array_equal(predict_proba(forest, x), [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_proba_rejects_non_finite(bad):
    data = make_set([[0.0, 1.0], [1.0, 0.0]], ["A", "B"])
    svm = train_svm(data, lam=1e-3, epochs=1, seed=0)
    rows = make_set([[0.0, 1.0], [1.0, bad]], ["A", "B"])
    with pytest.raises(NonFiniteFeature, match="'c1'.*'f1'"):
        predict_proba(svm, rows)
    with pytest.raises(NonFiniteFeature, match="'c1'.*'f1'"):
        predict_proba(svm, rows.vectors[1])


def test_svm_logistic_at_zero():
    svm = LinearSvm(np.zeros(1), 0.0, np.zeros(1), np.ones(1),
                    ("f0",), ("A", "B"), 1e-3, 0, 0)
    np.testing.assert_array_equal(svm.predict_proba_values(np.array([[2.0]])),
                                  [[0.5, 0.5]])


def test_forest_three_of_four_trees():
    # trained pure-leaf trees voting 3:1 average to [0.25, 0.75]
    trees = []
    for label in ["B", "B", "B", "A"]:
        trees += train_tree(make_set([[0.0]], [label])).trees
    forest = RandomForest(trees, ("f0",), ("A", "B"), 1, 0, np.zeros(1))
    np.testing.assert_allclose(forest.predict_proba_values(np.array([[0.0]])),
                               [[0.25, 0.75]])


def test_soft_vote_identical_members():
    data = make_set([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
    forest = train_forest(data, n_trees=3, mtry=1, seed=1)
    ens = EnsembleModel([(forest, 0.7), (forest, 0.3)])
    x = FeatureVector(data.names, np.array([0.5]), "c")
    np.testing.assert_allclose(predict_proba(ens, x),
                               predict_proba(forest, x))


def test_soft_vote_weighted_average():
    class Stub:
        feature_names = ("f0",)
        class_names = ("A", "B")

        def __init__(self, proba):
            self.proba = np.array(proba)

        def predict_proba_values(self, X):
            return np.tile(self.proba, (len(X), 1))

    ens = EnsembleModel([(Stub([0.9, 0.1]), 0.5), (Stub([0.2, 0.8]), 0.5)])
    x = FeatureVector(("f0",), np.array([0.0]), "c")
    proba = predict_proba(ens, x)
    np.testing.assert_allclose(proba, [0.55, 0.45])
    assert np.argmax(proba) == 0

    tie = EnsembleModel([(Stub([0.5, 0.5]), 1.0)])
    assert np.argmax(predict_proba(tie, x)) == 0


def test_forest_matrix_matches_row_walk_of_json_nodes():
    rng = np.random.default_rng(40)
    X = rng.normal(size=(60, 4))
    labels = ["A" if x[0] + x[2] > 0 else "B" for x in X]
    forest = train_forest(make_set(X, labels), n_trees=7, mtry=2, seed=6)
    trees = forest.to_dict()["trees"]
    # one row per split with that split's feature exactly on its threshold;
    # every row reaches the roots, so at least those splits see a tie
    on_threshold = []
    for tree in trees:
        for node in tree["nodes"]:
            if "proba" not in node:
                row = rng.normal(size=4)
                row[node["feature"]] = node["threshold"]
                on_threshold.append(row)
    X_test = np.vstack([X, rng.normal(size=(40, 4)), on_threshold])
    expected = np.array([
        sum(walk_tree_nodes(t["nodes"], x) for t in trees) / len(trees)
        for x in X_test])
    np.testing.assert_array_equal(forest.predict_proba_values(X_test),
                                  expected)


# thresholds and features share a few values, so many rows tie a threshold
GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


@st.composite
def random_forests(draw, n_features=None, n_classes=None):
    """(forest, X): 1-6 trees of depth 0-4 over 1-3 features and 2-3
    classes unless given, and 0-30 rows, every value and threshold drawn
    from GRID."""
    n_features = n_features or draw(st.integers(1, 3))
    n_classes = n_classes or draw(st.integers(2, 3))

    def grow(nodes, depth):
        node_id = len(nodes)
        nodes.append(None)  # reserve slot so children get higher ids
        if depth == 0 or draw(st.booleans()):
            counts = np.array(draw(st.lists(st.integers(0, 3),
                                            min_size=n_classes,
                                            max_size=n_classes)), float)
            counts[draw(st.integers(0, n_classes - 1))] += 1
            nodes[node_id] = {"proba": (counts / counts.sum()).tolist()}
            return node_id
        split = {"feature": draw(st.integers(0, n_features - 1)),
                 "threshold": draw(st.sampled_from(GRID))}
        split["left"] = grow(nodes, depth - 1)
        split["right"] = grow(nodes, depth - 1)
        nodes[node_id] = split
        return node_id

    trees = []
    for _ in range(draw(st.integers(1, 6))):
        nodes = []
        grow(nodes, draw(st.integers(0, 4)))
        trees.append({"nodes": nodes, "n_classes": n_classes,
                      "max_depth": None, "min_samples_leaf": 1})
    forest = RandomForest(trees, tuple(f"f{i}" for i in range(n_features)),
                          tuple("ABC"[:n_classes]), 1, 0,
                          np.zeros(n_features))
    n_rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
    X = np.array(draw(st.lists(st.sampled_from(GRID),
                               min_size=n_rows * n_features,
                               max_size=n_rows * n_features)),
                 float).reshape(n_rows, n_features)
    return forest, X


@settings(deadline=None)
@given(random_forests())
def test_forest_kernel_matches_row_walk_and_json_round_trip(case):
    forest, X = case
    trees = [t["nodes"] for t in forest.trees]
    expected = np.array([sum(walk_tree_nodes(nodes, x) for nodes in trees)
                         / len(trees) for x in X])
    P = forest.predict_proba_values(X)
    assert P.shape == (len(X), len(forest.class_names))
    np.testing.assert_array_equal(P, expected.reshape(P.shape))
    back = model_from_dict(json.loads(json.dumps(forest.to_dict())))
    np.testing.assert_array_equal(back.predict_proba_values(X), P)
    for tree, nodes in zip(forest.trees, trees):
        np.testing.assert_array_equal(
            one_tree(forest, tree).predict_proba_values(X),
            np.array([walk_tree_nodes(nodes, x) for x in X]).reshape(P.shape))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@st.composite
def linear_svms(draw, feature_names=None, class_names=None):
    """A LinearSvm of any finite weights, bias and scaler, over 0-4 features
    and 2 classes of any names unless given."""
    if feature_names is None:
        feature_names = draw(st.lists(st.text(), max_size=4))
    if class_names is None:
        class_names = draw(st.lists(st.text(), min_size=2, max_size=2))
    n = len(feature_names)

    def vector(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                        dtype=float)

    return LinearSvm(vector(FINITE), draw(FINITE), vector(FINITE),
                     vector(POSITIVE), feature_names, class_names,
                     draw(POSITIVE), draw(st.integers(0, 1000)),
                     draw(st.integers(0, 2**64)))


@st.composite
def ensembles(draw):
    """An EnsembleModel of 1-3 forests and SVMs over 1-3 features and
    classes A and B, with any finite weights of a positive sum."""
    n_features = draw(st.integers(1, 3))
    names = tuple(f"f{i}" for i in range(n_features))
    forests = random_forests(n_features, 2).map(lambda case: case[0])
    models = draw(st.lists(forests | linear_svms(names, ("A", "B")),
                           min_size=1, max_size=3))
    weights = draw(st.lists(st.floats(0, 1e300), min_size=len(models),
                            max_size=len(models)).filter(lambda w: sum(w)))
    return EnsembleModel(list(zip(models, weights)))


def _rows(draw, model):
    """0-20 rows of the model's features, GRID values and any finite ones."""
    shape = draw(st.integers(0, 20)), len(model.feature_names)
    values = draw(st.lists(st.sampled_from(GRID) | FINITE,
                           min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]))
    return np.array(values, dtype=float).reshape(shape)


@settings(deadline=None)
@given(st.one_of(linear_svms(), ensembles()), st.data())
def test_svm_and_ensemble_json_round_trip(tmp_path_factory, model, data):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_model(model, path)
    back = load_model(path)
    assert back.to_dict() == model.to_dict()
    X = _rows(data.draw, model)
    with np.errstate(all="ignore"):  # huge weights may overflow to nan
        np.testing.assert_array_equal(back.predict_proba_values(X),
                                      model.predict_proba_values(X))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda values: (st.lists(values, max_size=3)
                    | st.dictionaries(st.text(), values, max_size=3)),
    max_leaves=6)


def _documents(doc):
    """A model document, its first tree (each tree has the same keys) and
    its ensemble members, and theirs."""
    yield doc
    yield from doc.get("trees", [])[:1]
    for member in doc.get("members", []):
        yield member
        yield from _documents(member["model"])


# each example replaces every key in turn, so fewer examples are needed
@settings(deadline=None, max_examples=50)
@given(st.one_of(linear_svms(), ensembles()), st.data())
def test_any_key_replaced_loads_or_raises_malformed_model(model, data):
    # any other exception would reach the CLI as a traceback
    text = json.dumps(model.to_dict())
    for i, part in enumerate(_documents(json.loads(text))):
        for key in sorted(part):
            doc = json.loads(text)
            list(_documents(doc))[i][key] = data.draw(JSON_VALUES)
            try:
                back = model_from_dict(doc)
            except MalformedModel:
                continue
            X = np.zeros((2, len(back.feature_names)))
            with np.errstate(all="ignore"):
                P = back.predict_proba_values(X)
            assert P.shape == (2, len(back.class_names))
            model_from_dict(json.loads(json.dumps(back.to_dict())))


def test_vector_prediction_matches_featureset_row():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(60, 30))
    labels = ["A" if x[0] - x[5] > 0 else "B" for x in X]
    data = make_set(X, labels)
    forest = train_forest(data, n_trees=5, seed=7)
    svm = train_svm(data, lam=1e-3, epochs=10, seed=7)
    ens = EnsembleModel([(forest, 0.5), (svm, 0.5)])
    test = make_set(rng.normal(size=(25, 30)), ["A"] * 25)
    for model in (forest, svm, ens):
        batch = predict_proba(model, test)
        assert batch.shape == (25, 2)
        for i, v in enumerate(test.vectors):
            np.testing.assert_array_equal(predict_proba(model, v), batch[i])


def test_schema_mismatch_rejected():
    data = make_set([[0.0], [1.0]], ["A", "B"])
    forest = train_forest(data, n_trees=1, mtry=1, seed=0)
    bad = FeatureVector(("other",), np.array([0.0]), "c")
    with pytest.raises(SchemaMismatch):
        predict_proba(forest, bad)


def test_schema_prefix_names_the_feature_counts():
    data = make_set([[0.0, 1.0], [1.0, 0.0]], ["A", "B"])
    forest = train_forest(data, n_trees=1, mtry=1, seed=0)
    short = make_set([[0.0], [1.0]], ["A", "B"])
    with pytest.raises(SchemaMismatch,
                       match="data has 1 features, model expects 2"):
        predict_proba(forest, short)


def test_forest_integer_leaves_load_as_floats():
    data = make_set([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
    doc = train_forest(data, n_trees=3, mtry=1, seed=0).to_dict()
    ints = json.loads(json.dumps(doc))
    leaves = [node for tree in ints["trees"] for node in tree["nodes"]
              if "proba" in node]
    assert {tuple(leaf["proba"]) for leaf in leaves} \
        == {(1.0, 0.0), (0.0, 1.0)}
    for leaf in leaves:
        leaf["proba"] = [int(p) for p in leaf["proba"]]
    assert '"proba": [1, 0]' in json.dumps(ints)
    np.testing.assert_array_equal(
        predict_proba(model_from_dict(ints), data),
        predict_proba(model_from_dict(doc), data))


# --- feature_importance ---

def test_importance_ranking_and_ties():
    rng = np.random.default_rng(38)
    X = rng.normal(size=(80, 3))
    labels = ["A" if x[0] > 0 else "B" for x in X]
    forest = train_forest(make_set(X, labels), n_trees=10, mtry=1, seed=4)
    ranked = feature_importance(forest)
    assert ranked[0][0] == "f0"
    values = [v for _, v in ranked]
    assert values == sorted(values, reverse=True)
    assert sum(values) == pytest.approx(1.0, abs=1e-9)


# --- serialization ---

def test_model_round_trip_identical_predictions(tmp_path):
    rng = np.random.default_rng(39)
    X = rng.normal(size=(60, 4))
    labels = ["A" if x[0] - x[3] > 0 else "B" for x in X]
    data = make_set(X, labels)
    forest = train_forest(data, n_trees=5, mtry=2, seed=5)
    svm = train_svm(data, lam=1e-3, epochs=20, seed=5)
    ens = EnsembleModel([(forest, 0.5), (svm, 0.5)])
    for model in (forest, svm, ens):
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        X_test = rng.normal(size=(100, 4))
        np.testing.assert_array_equal(back.predict_proba_values(X_test),
                                      model.predict_proba_values(X_test))


def test_model_format_is_versioned(tmp_path):
    data = make_set([[0.0], [1.0]], ["A", "B"])
    forest = train_forest(data, n_trees=1, mtry=1, seed=0)
    path = tmp_path / "f.json"
    save_model(forest, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "random_forest"
    with pytest.raises(MalformedModel):
        model_from_dict({"kind": "mystery"})
