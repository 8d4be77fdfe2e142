"""Classical classifiers built from scratch: CART tree, random forest with
Gini feature importance, L2-regularized linear SVM (stochastic subgradient),
and a weighted soft-voting ensemble.

All training is a pure function of (data, params, seed); per-tree RNG
streams let the trees grow on pool_map workers in any order. Models persist
to a single self-describing JSON document (format_version 1).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import reprlib
import sys
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    EmptyClass,
    EmptyDataset,
    MalformedModel,
    NonFiniteFeature,
    NotBinary,
    SchemaMismatch,
)
from .features import FeatureSet, FeatureVector, require_finite
from .files import read_json, write_json
from .parallel import pool_map

MODEL_FORMAT_VERSION = 1


def _best_split(X: np.ndarray, y: np.ndarray, n_classes: int,
                min_leaf: int, parent_gini: float):
    """Best (column, threshold, gain) over the columns of X, or None.

    A threshold lies between consecutive distinct sorted values lo < hi:
    their midpoint, or lo where the midpoint rounds up to hi, so that both
    children keep their rows. Each column takes its lowest-child-gini
    threshold, the lowest one on ties; the column of highest gain wins, the
    lowest one on ties, if that gain exceeds 1e-15.
    """
    n = len(y)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    # left[i, j] = class counts of the i+1 lowest rows of column j
    left = np.cumsum(np.eye(n_classes)[y[order]], axis=0)[:-1]
    right = np.bincount(y, minlength=n_classes) - left
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    gini_l = 1.0 - ((left / n_left[..., None]) ** 2).sum(axis=2)
    gini_r = 1.0 - ((right / n_right[..., None]) ** 2).sum(axis=2)
    weighted = (n_left * gini_l + n_right * gini_r) / n
    valid = ((xs[1:] > xs[:-1]) & (n_left >= min_leaf)
             & (n_right >= min_leaf))
    weighted[~valid] = np.inf

    rows = np.argmin(weighted, axis=0)
    cols = np.arange(X.shape[1])
    gains = parent_gini - weighted[rows, cols]
    best = int(np.argmax(gains))
    if not gains[best] > 1e-15:
        return None
    lo, hi = xs[rows[best], best], xs[rows[best] + 1, best]
    # halves first: lo + hi can overflow where their midpoint does not
    threshold = 0.5 * lo + 0.5 * hi
    if not threshold < hi:
        threshold = lo
    return best, float(threshold), float(gains[best])


# a JSON number beyond the largest float does not fit a float64
_FLOAT_MAX = sys.float_info.max
_SPLIT_KEYS = frozenset({"feature", "threshold", "left", "right"})
_split_fields = operator.itemgetter("feature", "threshold", "left", "right")


class RandomForest:
    """Trees held as their model-JSON v1 documents {"nodes", "n_classes",
    "max_depth", "min_samples_leaf"}, voting by their mean probability.

    The constructor checks every tree's nodes and lays them end to end as
    flat arrays. A split node k holds feature[k] and threshold[k], and
    leaf[k] = -1; a row moves on to node child[2k + (x <= threshold[k])],
    its right child at even and its left child at odd entries. A leaf holds
    the row leaf[k] of proba. roots[t] is the id of tree t's root.
    """

    def __init__(self, trees: list, feature_names: tuple, class_names: tuple,
                 mtry: int, seed: int, importances: np.ndarray):
        """MalformedModel names the tree and node of a node that is neither
        a leaf of len(class_names) probabilities summing to 1 nor a split on
        a feature in [0, len(feature_names)) at a finite threshold whose
        children have higher ids in its tree; the latter makes every route
        end at a leaf. `_SCHEMA` states that there are trees and nodes."""
        self.trees = trees
        self.feature_names = tuple(feature_names)
        self.class_names = tuple(class_names)
        self.mtry = mtry
        self.seed = seed
        self.importances = np.asarray(importances, dtype=float)
        n_classes, n_features = len(self.class_names), len(self.feature_names)
        splits, split_at, proba, leaf_at, roots = [], [], [], [], []
        k = 0  # id of the current tree's root
        for t, nodes in enumerate(tree["nodes"] for tree in trees):
            roots.append(k)
            for i, node in enumerate(nodes):
                if type(node) is not dict:
                    raise MalformedModel(f"tree {t} node {i} is not a JSON "
                                         f"object")
                if "proba" in node:
                    p = node["proba"]
                    if type(p) is not list or len(p) != n_classes:
                        raise MalformedModel(f"tree {t} node {i} has proba "
                                             f"{p!r}, not {n_classes} values")
                    proba.append(p)
                    leaf_at.append(k + i)
                    continue
                try:
                    f, th, lo, hi = _split_fields(node)
                except KeyError:
                    raise MalformedModel(
                        f"tree {t} node {i} has no 'proba' and lacks "
                        f"{sorted(_SPLIT_KEYS - node.keys())}") from None
                if not (type(f) is int and 0 <= f < n_features
                        and type(th) in (int, float)
                        and -_FLOAT_MAX <= th <= _FLOAT_MAX
                        and type(lo) is int and i < lo < len(nodes)
                        and type(hi) is int and i < hi < len(nodes)):
                    raise MalformedModel(
                        f"tree {t} node {i} splits on feature {f!r} at "
                        f"{th!r} into children {lo!r} and {hi!r}; it needs a "
                        f"feature in [0, {n_features}), a finite threshold "
                        f"and children in ({i}, {len(nodes)})")
                splits.append((f, th, k + hi, k + lo))
                split_at.append(k + i)
            k += len(nodes)
        self.roots = np.array(roots, dtype=np.intp)

        values = list(itertools.chain.from_iterable(proba))
        if not set(map(type, values)) <= {float}:
            values = [v if type(v) in (int, float) and 0 <= v <= 1
                      else math.nan for v in values]
        self.proba = np.array(values, dtype=np.float64).reshape(-1, n_classes)
        ok = (((self.proba >= 0) & (self.proba <= 1)).all(axis=1)
              & (np.abs(self.proba.sum(axis=1) - 1.0) <= 1e-9))
        if not ok.all():
            bad = leaf_at[int(np.argmin(ok))]
            t = int(np.searchsorted(self.roots, bad, side="right")) - 1
            i = bad - roots[t]
            raise MalformedModel(f"tree {t} node {i} has proba "
                                 f"{trees[t]['nodes'][i]['proba']!r}, not "
                                 f"probabilities summing to 1")

        self.leaf = np.full(k, -1, dtype=np.intp)
        self.leaf[leaf_at] = np.arange(len(leaf_at))
        self.feature = np.zeros(k, dtype=np.intp)
        self.threshold = np.zeros(k)
        child = np.full((k, 2), -1, dtype=np.intp)
        if splits:
            feature, threshold, right, left = zip(*splits)
            self.feature[split_at] = feature
            self.threshold[split_at] = threshold
            child[split_at] = np.array([right, left]).T
        self.child = child.ravel()

    def predict_proba_values(self, X: np.ndarray) -> np.ndarray:
        """Mean over the trees of the (n, n_classes) leaf probabilities of
        the rows of X, a row going left when x <= threshold.

        Every (tree, row) pair descends together: pair p is row p % n of
        tree p // n, and each level moves only the pairs not yet at a leaf.
        The trees' matrices are summed in tree order.
        """
        n, n_features = X.shape
        values = np.ascontiguousarray(X).ravel()
        n_trees = len(self.roots)
        node = np.repeat(self.roots, n)
        row_start = np.tile(np.arange(0, n * n_features, n_features), n_trees)
        # take and compress gather faster than fancy indexing
        todo = np.flatnonzero(self.leaf.take(node) < 0)
        while len(todo):
            at = node.take(todo)
            x = values.take(row_start.take(todo) + self.feature.take(at))
            go_left = x <= self.threshold.take(at)
            at = self.child.take(2 * at + go_left)
            node[todo] = at
            todo = todo.compress(self.leaf.take(at) < 0)
        P = self.proba.take(self.leaf.take(node), axis=0)
        # a sum over the outer axis adds the trees' matrices one by one
        return (P.reshape(n_trees, n, self.proba.shape[1]).sum(axis=0)
                / n_trees)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "random_forest",
            "feature_names": list(self.feature_names),
            "class_names": list(self.class_names),
            "mtry": self.mtry,
            "seed": self.seed,
            "importances": self.importances.tolist(),
            "trees": [dict(t) for t in self.trees],
        }


def _build_tree(X: np.ndarray, y: np.ndarray, n_classes: int,
                max_depth: Optional[int], min_samples_leaf: int,
                rng: np.random.Generator, mtry: int) -> tuple:
    """A CART tree's model-JSON v1 document, each node splitting on the best
    of mtry features drawn with rng, and its unnormalized per-feature
    impurity decrease.

    Internal nodes are {"feature", "threshold", "left", "right"}, children
    having higher ids; leaves are {"proba": [...]}, summing to 1.
    """
    n_total, n_features = X.shape
    nodes: list = []
    importances = np.zeros(n_features)

    # grown from a stack, not by recursion, so that no depth reaches
    # Python's recursion limit: pre-order, left child first, a node's id
    # being its index in nodes
    stack = [(np.arange(n_total), 0, None, None)]
    while stack:
        idx, depth, parent, side = stack.pop()
        if parent is not None:
            parent[side] = len(nodes)
        counts = np.bincount(y[idx], minlength=n_classes).astype(np.float64)

        # a split leaves rows on both sides, so no node is empty
        p = counts / counts.sum()
        parent_gini = 1.0 - float((p * p).sum())
        can_split = (parent_gini > 0.0
                     and (max_depth is None or depth < max_depth)
                     and len(idx) >= 2 * min_samples_leaf)
        best = None
        if can_split:
            candidates = np.sort(rng.choice(n_features, size=mtry,
                                            replace=False))
            best = _best_split(X[np.ix_(idx, candidates)], y[idx], n_classes,
                               min_samples_leaf, parent_gini)

        if best is None:
            nodes.append({"proba": p.tolist()})
            continue

        column, threshold, gain = best
        feature = int(candidates[column])
        importances[feature] += (len(idx) / n_total) * gain
        mask = X[idx, feature] <= threshold
        node = {"feature": feature, "threshold": threshold,
                "left": None, "right": None}
        nodes.append(node)
        stack.append((idx[~mask], depth + 1, node, "right"))
        stack.append((idx[mask], depth + 1, node, "left"))

    return ({"nodes": nodes, "n_classes": n_classes, "max_depth": max_depth,
             "min_samples_leaf": min_samples_leaf}, importances)


def _training_arrays(data: FeatureSet) -> tuple:
    """(X, y) of a non-empty table; NonFiniteFeature names the clip and
    column of a NaN or infinity in it."""
    if not data.vectors:
        raise EmptyDataset("no training instances")
    X = data.matrix()
    require_finite(X, data.vectors)
    return X, data.labels()


def _normalized(importances: np.ndarray) -> np.ndarray:
    s = importances.sum()
    return importances / s if s > 0 else importances


def train_tree(data: FeatureSet, max_depth: Optional[int] = None,
               min_samples_leaf: int = 1) -> RandomForest:
    """One CART tree on every row, every feature a candidate at each node,
    as a one-tree forest."""
    X, y = _training_arrays(data)
    n_features = X.shape[1]
    tree, importances = _build_tree(X, y, len(data.class_names), max_depth,
                                    min_samples_leaf,
                                    np.random.default_rng(0), n_features)
    return RandomForest([tree], data.names, data.class_names, n_features, 0,
                        _normalized(importances))


def _check_mtry(mtry: Optional[int], n_features: int) -> int:
    """mtry, round(sqrt(n_features)) if None; ConfigError unless in range."""
    mtry = max(1, round(math.sqrt(n_features))) if mtry is None else mtry
    if not 1 <= mtry <= n_features:
        raise ConfigError(f"mtry must be in [1, {n_features}], got {mtry}")
    return mtry


def _grow_tree(X: np.ndarray, y: np.ndarray, n_classes: int, max_depth,
               min_samples_leaf: int, mtry: int, seed: int, i: int) -> tuple:
    """Tree i of a forest and its impurity decrease: its RNG stream (seed,
    i) draws its bootstrap rows, then its per-node features."""
    rng = np.random.default_rng([seed, i])
    idx = rng.integers(0, len(y), size=len(y))
    return _build_tree(X[idx], y[idx], n_classes, max_depth,
                       min_samples_leaf, rng, mtry)


def train_forest(data: FeatureSet, n_trees: int,
                 mtry: Optional[int] = None,
                 max_depth: Optional[int] = None, min_samples_leaf: int = 1,
                 seed: int = 0) -> RandomForest:
    """Bagged CART forest, one _grow_tree task per tree on pool_map's pool,
    importances summed in tree order: the same forest at any pool width."""
    X, y = _training_arrays(data)
    n_features = X.shape[1]
    mtry = _check_mtry(mtry, n_features)
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")

    grown = pool_map(functools.partial(
        _grow_tree, X, y, len(data.class_names), max_depth,
        min_samples_leaf, mtry, seed), range(n_trees))
    importances = sum((imp for _, imp in grown), np.zeros(n_features))
    return RandomForest([tree for tree, _ in grown], data.names,
                        data.class_names, mtry, seed, _normalized(importances))


def feature_importance(forest: RandomForest) -> list:
    """(name, importance) pairs, descending; ties broken by name order."""
    order = sorted(range(len(forest.feature_names)),
                   key=lambda i: (-forest.importances[i], i))
    return [(forest.feature_names[i], float(forest.importances[i]))
            for i in order]


class LinearSvm:
    def __init__(self, weights: np.ndarray, bias: float, mean: np.ndarray,
                 std: np.ndarray, feature_names: tuple, class_names: tuple,
                 lam: float, epochs: int, seed: int):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = bias
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)
        self.feature_names = tuple(feature_names)
        self.class_names = tuple(class_names)
        self.lam = lam
        self.epochs = epochs
        self.seed = seed

    def predict_proba_values(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) logistic of the decision values of the rows of X."""
        # an elementwise product summed per row, unlike a BLAS matrix-vector
        # product, gives a row the same value whatever batch it is in
        Z = (X - self.mean) / self.std
        d = (Z * self.weights).sum(axis=1) + self.bias
        # overflow-safe logistic: exp of a non-positive number only
        e = np.exp(-np.abs(d))
        p1 = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return np.stack([1.0 - p1, p1], axis=1)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "linear_svm",
            "feature_names": list(self.feature_names),
            "class_names": list(self.class_names),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "scaler_mean": self.mean.tolist(),
            "scaler_std": self.std.tolist(),
            "lambda": self.lam,
            "epochs": self.epochs,
            "seed": self.seed,
        }


def svm_objective(model: LinearSvm, X: np.ndarray, y_pm: np.ndarray) -> float:
    """Regularized hinge objective on standardized features."""
    Z = (X - model.mean) / model.std
    margins = y_pm * (Z @ model.weights + model.bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return 0.5 * model.lam * float(model.weights @ model.weights) + hinge


def train_svm(data: FeatureSet, lam: float, epochs: int,
              seed: int = 0) -> LinearSvm:
    """Stochastic subgradient descent on the hinge objective, step 1/(lam t).

    Binary only; labels map to -1/+1 by class order. Features are
    standardized by train-set mean/std (zero-variance features get std 1);
    NonFiniteFeature names a finite column whose mean or std overflows, and
    ConfigError a lam so small that the steps overflow w or b.
    """
    X, y = _training_arrays(data)
    if len(data.class_names) != 2:
        raise NotBinary(f"SVM needs exactly 2 classes, "
                        f"got {len(data.class_names)}")
    for c in (0, 1):
        if not np.any(y == c):
            raise EmptyClass(f"class {data.class_names[c]!r} has no instances")

    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X.mean(axis=0), X.std(axis=0)
    # a mean that overflows leaves its column's std inf or NaN too
    if not np.isfinite(std).all():
        j = int(np.argmin(np.isfinite(std)))
        raise NonFiniteFeature(f"column {data.names[j]!r} has mean {mean[j]} "
                               f"and std {std[j]}, not both finite")
    std[std == 0.0] = 1.0
    Z = (X - mean) / std
    y_pm = np.where(y == 1, 1.0, -1.0)

    n, n_features = Z.shape
    w = np.zeros(n_features)
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                if y_pm[i] * (w @ Z[i] + b) < 1.0:
                    w = (1.0 - eta * lam) * w + eta * y_pm[i] * Z[i]
                    b = b + eta * y_pm[i]
                else:
                    w = (1.0 - eta * lam) * w
    if not (np.isfinite(w).all() and np.isfinite(b)):
        raise ConfigError(f"svm_lambda {lam} is too small: its SGD steps "
                          "overflow the SVM's weights")
    return LinearSvm(w, b, mean, std, data.names, data.class_names,
                     lam, epochs, seed)


class EnsembleModel:
    """(model, weight) pairs, weights as given, named as the first member."""

    def __init__(self, members: list):
        self.members = members
        self.feature_names = members[0][0].feature_names
        self.class_names = members[0][0].class_names

    def predict_proba_values(self, X: np.ndarray) -> np.ndarray:
        """Weighted sum of the members' (n, n_classes) matrices."""
        return sum(weight * model.predict_proba_values(X)
                   for model, weight in self.members)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "ensemble",
            "feature_names": list(self.feature_names),
            "class_names": list(self.class_names),
            "members": [{"weight": w, "model": m.to_dict()}
                        for m, w in self.members],
        }


def _check_schema(model, names: tuple) -> None:
    if tuple(names) != tuple(model.feature_names):
        for i, (a, b) in enumerate(zip(names, model.feature_names)):
            if a != b:
                raise SchemaMismatch(
                    f"feature {i} is {a!r}, model expects {b!r}")
        raise SchemaMismatch(
            f"data has {len(names)} features, model expects "
            f"{len(model.feature_names)}")


def predict_proba(model, data) -> np.ndarray:
    """Class probabilities from any trained model, schema-checked.

    (n, n_classes) for a FeatureSet, (n_classes,) for a FeatureVector.
    """
    _check_schema(model, data.names)
    one = isinstance(data, FeatureVector)
    X = data.values[None, :] if one else data.matrix()
    require_finite(X, [data] if one else data.vectors)
    P = model.predict_proba_values(X)
    return P[0] if one else P


# --- persistence ---

def _number(x) -> bool:
    """A finite JSON number: an int or a float, not a bool."""
    return type(x) in (int, float) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def _numbers(v, f: list, *_) -> bool:
    return type(v) is list and len(v) == len(f) and all(map(_number, v))


def _strings(v, *_) -> bool:
    return type(v) is list and all(type(s) is str for s in v)


def _int_from(low: int) -> tuple:
    return lambda v, *_: type(v) is int and v >= low, f"an integer >= {low}"


_NAMES = {
    "format_version": (lambda v, *_: v == MODEL_FORMAT_VERSION
                       and type(v) is int, f"{MODEL_FORMAT_VERSION}"),
    "feature_names": (_strings, "a list of strings"),
    "class_names": (_strings, "a list of strings"),
}

# kind of document -> key -> (check of the value given the model's feature
# names f and class names c, which it lists first; what the value must be,
# {n} and {k} standing for their counts; the kind of a list's documents).
_SCHEMA = {
    "random_forest": {
        **_NAMES,
        "mtry": (lambda v, f, c: type(v) is int and 1 <= v <= len(f),
                 "an integer in [1, {n}]"),
        "seed": _int_from(0),
        "importances": (lambda v, f, c: _numbers(v, f) and min(v, default=0)
                        >= 0, "a list of {n} finite numbers >= 0"),
        "trees": (lambda v, *_: type(v) is list and v != [],
                  "a list of one or more trees", "tree"),
    },
    "tree": {
        "nodes": (lambda v, *_: type(v) is list and v != [],
                  "a list of one or more nodes"),
        "n_classes": (lambda v, f, c: type(v) is int and v == len(c), "{k}"),
        "max_depth": (lambda v, *_: v is None or type(v) is int and v >= 1,
                      "null or an integer >= 1"),
        "min_samples_leaf": _int_from(1),
    },
    "linear_svm": {
        **_NAMES,
        "class_names": (lambda v, *_: _strings(v) and len(v) == 2,
                        "a list of 2 strings"),
        "weights": (_numbers, "a list of {n} finite numbers"),
        "bias": (lambda v, *_: _number(v), "a finite number"),
        "scaler_mean": (_numbers, "a list of {n} finite numbers"),
        "scaler_std": (lambda v, f, c: _numbers(v, f) and min(v, default=1)
                       > 0, "a list of {n} finite numbers > 0"),
        "lambda": (lambda v, *_: _number(v) and v > 0, "a finite number > 0"),
        "epochs": _int_from(0),
        "seed": _int_from(0),
    },
    "ensemble": {**_NAMES, "members": (
        lambda v, *_: type(v) is list and v != [],
        "a list of one or more members", "ensemble member")},
    "ensemble member": {
        "weight": (lambda v, *_: _number(v) and v >= 0,
                   "a finite number >= 0"),
        "model": (lambda v, f, c: type(v) is dict and v.get("feature_names")
                  == f and v.get("class_names") == c,
                  "a model of the ensemble's feature_names and class_names"),
    },
}


def _check_document(d, kind: str, what: str, f=(), c=()) -> None:
    """MalformedModel naming `what` and a key unless kind's table accepts d."""
    if type(d) is not dict:
        raise MalformedModel(f"{what} is not a JSON object")
    missing = sorted(_SCHEMA[kind].keys() - d.keys())
    if missing:
        raise MalformedModel(f"{what} lacks {missing}")
    for key, (check, must, *part) in _SCHEMA[kind].items():
        value = d[key]
        if not check(value, f, c):
            shown = (f"{len(value) or 'no'} {key}" if type(value) is list
                     else f"{key} {reprlib.repr(value)}")
            raise MalformedModel(f"{what} has {shown}, not "
                                 f"{must.format(n=len(f), k=len(c))}")
        f = value if key == "feature_names" else f
        c = value if key == "class_names" else c
        for i, item in enumerate(value if part else ()):
            _check_document(item, part[0], f"{part[0]} {i}", f, c)


def model_from_dict(d: dict):
    """The model of a v1 random_forest, linear_svm or ensemble document,
    built from it once `_SCHEMA` accepts it; MalformedModel also names a
    node `RandomForest` rejects and weights without a positive, finite sum."""
    kind = d.get("kind") if type(d) is dict else None
    if kind not in ("random_forest", "linear_svm", "ensemble"):
        raise MalformedModel(f"unknown model kind {kind!r}")
    _check_document(d, kind, f"{kind} model")
    names = d["feature_names"], d["class_names"]
    if kind == "random_forest":
        return RandomForest(d["trees"], *names, d["mtry"], d["seed"],
                            d["importances"])
    if kind == "linear_svm":
        return LinearSvm(d["weights"], d["bias"], d["scaler_mean"],
                         d["scaler_std"], *names, d["lambda"], d["epochs"],
                         d["seed"])
    weights = [member["weight"] for member in d["members"]]
    if not 0 < sum(weights) <= _FLOAT_MAX:
        raise MalformedModel(f"ensemble member weights {weights} have no "
                             f"positive, finite sum")
    members = []
    for i, member in enumerate(d["members"]):
        try:
            members.append((model_from_dict(member["model"]), weights[i]))
        except MalformedModel as exc:
            raise MalformedModel(f"ensemble member {i}: {exc}") from exc
    return EnsembleModel(members)


def save_model(model, path) -> None:
    write_json(model.to_dict(), path)


def load_model(path):
    """The model saved at `path`; MalformedModel names the file."""
    d = read_json(path, MalformedModel)
    try:
        return model_from_dict(d)
    except MalformedModel as exc:
        raise MalformedModel(f"{path}: {exc}") from exc
