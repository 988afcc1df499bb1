import gc

import numpy as np
import pytest

from ptrisk.models import (
    ForestModel,
    FrozenTree,
    build_classification_tree,
    compute_class_weights,
    fit_boosted,
    fit_forest,
)
from ptrisk.models.boosting import _build_regression_tree
from ptrisk.models.logistic import sigmoid
from ptrisk.rng import RngKey


def test_tree_pure_split_on_feature_zero():
    X = np.array([[-2.0, 1.0], [-1.0, 2.0], [1.0, 1.5], [2.0, 0.5]] * 3)
    y = np.array([0, 0, 1, 1] * 3)
    weights = compute_class_weights(y).per_sample(y)
    tree = build_classification_tree(X, y, weights, max_depth=4, min_samples_leaf=5)
    assert tree.feature[0] == 0
    assert -1.0 < tree.threshold[0] < 1.0
    left_prob = tree.value[tree.left[0]]
    right_prob = tree.value[tree.right[0]]
    assert (left_prob, right_prob) == (0.0, 1.0)
    assert np.array_equal(tree.predict_value(X), y.astype(float))


def test_tree_respects_depth_and_leaf_size():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    y = rng.integers(0, 2, size=100)
    weights = compute_class_weights(y).per_sample(y)
    tree = build_classification_tree(X, y, weights, max_depth=2, min_samples_leaf=10)

    def depth_of(node, depth=0):
        if tree.feature[node] < 0:
            return depth
        return max(depth_of(tree.left[node], depth + 1), depth_of(tree.right[node], depth + 1))

    assert depth_of(0) <= 2
    # every training row lands in a leaf trained on >= 10 rows
    idx = np.zeros(len(X), dtype=int)
    for _ in range(3):
        feat = tree.feature[idx]
        active = feat >= 0
        rows = np.nonzero(active)[0]
        node = idx[rows]
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        idx[rows] = np.where(go_left, tree.left[node], tree.right[node])
    _, counts = np.unique(idx, return_counts=True)
    assert counts.min() >= 10


def test_tree_deterministic_tie_break():
    # two identical features: the split must use the lower index
    col = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, 1.0] * 2)
    X = np.column_stack([col, col])
    y = (col > 0).astype(int)
    weights = compute_class_weights(y).per_sample(y)
    tree = build_classification_tree(X, y, weights, max_depth=3, min_samples_leaf=1)
    assert tree.feature[0] == 0


def test_forest_mean_of_constant_trees():
    none = np.array([-1], dtype=np.intp)
    leaf = FrozenTree(feature=none, threshold=np.zeros(1), left=none, right=none, value=np.ones(1))
    forest = ForestModel(trees=(leaf,) * 200)
    X = np.zeros((4, 2))
    assert np.array_equal(forest.predict_proba(X), np.ones(4))


def test_forest_deterministic_under_rng_key():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(int)
    weights = compute_class_weights(y).per_sample(y)
    f1 = fit_forest(X, y, weights, RngKey(42).child("t"), n_trees=10)
    f2 = fit_forest(X, y, weights, RngKey(42).child("t"), n_trees=10)
    probs1 = f1.predict_proba(X)
    probs2 = f2.predict_proba(X)
    assert np.array_equal(probs1, probs2)
    f3 = fit_forest(X, y, weights, RngKey(43).child("t"), n_trees=10)
    assert not np.array_equal(probs1, f3.predict_proba(X))


def test_forest_recovers_planted_split():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 3))
    y = (X[:, 1] > 0).astype(int)
    weights = compute_class_weights(y).per_sample(y)
    forest = fit_forest(X, y, weights, RngKey(1).child("rf"), n_trees=50)
    probs = forest.predict_proba(X)
    assert ((probs >= 0.5).astype(int) == y).mean() > 0.9


def test_gbt_newton_leaf_on_four_point_fixture():
    # constant feature forces a root-only tree; hand computation:
    # raw0 = 0, p = 0.5, g = p - y = (-.5, -.5, -.5, .5), G = -1, h = .25 each, H = 1
    # leaf = -lr * G / (H + lambda) = -0.1 * (-1) / 2 = 0.05
    X = np.zeros((4, 1))
    y = np.array([1.0, 1.0, 1.0, 0.0])
    model = fit_boosted(
        X, y, RngKey(0).child("gbt"), n_rounds=1, row_subsample=1.0, col_subsample=1.0
    )
    raw = model.raw_scores(X)
    assert raw == pytest.approx(np.full(4, 0.05), abs=1e-15)
    assert model.predict_proba(X) == pytest.approx(sigmoid(np.full(4, 0.05)))


def test_gbt_loss_monotone_without_subsampling():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] - X[:, 2] + rng.normal(scale=0.5, size=80) > 0).astype(float)
    model = fit_boosted(
        X, y, RngKey(7).child("gbt"), n_rounds=40, row_subsample=1.0, col_subsample=1.0
    )
    losses = np.array(model.train_losses)
    assert (np.diff(losses) <= 1e-12).all()


def test_gbt_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(float)
    m1 = fit_boosted(X, y, RngKey(11).child("g"), n_rounds=15)
    m2 = fit_boosted(X, y, RngKey(11).child("g"), n_rounds=15)
    assert np.array_equal(m1.predict_proba(X), m2.predict_proba(X))


# --- the shared split search: tie-breaks and edge cases ------------------------


def cart_stump(X, y):
    return build_classification_tree(X, y, np.ones(len(y)), max_depth=1, min_samples_leaf=1)


def newton_stump(X, y):
    g = np.where(y == 1, -1.0, 1.0)
    return _build_regression_tree(X, g, np.ones(len(y)), max_depth=1, learning_rate=0.1)


STUMPS = pytest.mark.parametrize("stump", [cart_stump, newton_stump], ids=["cart", "newton"])


@STUMPS
def test_equal_gain_features_lower_index_wins(stump):
    col = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([0, 0, 1, 1, 1, 1])
    # same row order, hence bit-identical gains, at different thresholds
    for X, threshold in (
        (np.column_stack([col, 10 * col + 3]), 1.5),
        (np.column_stack([10 * col + 3, col]), 18.0),
    ):
        tree = stump(X, y)
        assert (tree.feature[0], tree.threshold[0]) == (0, threshold)


@STUMPS
def test_strictly_better_feature_beats_lower_index(stump):
    y = np.array([0, 0, 1, 1, 1, 1])
    X = np.column_stack([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0], np.arange(6.0)])
    tree = stump(X, y)
    assert (tree.feature[0], tree.threshold[0]) == (1, 1.5)


@STUMPS
def test_equal_gain_thresholds_lowest_wins(stump):
    # splits at 0.5 and 4.5 mirror each other and give bit-identical gains
    X = np.arange(6.0).reshape(-1, 1)
    y = np.array([1, 0, 0, 0, 0, 1])
    tree = stump(X, y)
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)


def test_feature_picker_subset_maps_to_global_indices():
    rng = np.random.default_rng(3)
    col = rng.normal(size=40)
    y = (col > 0).astype(int)
    X = np.column_stack([col, col, np.full(40, 2.0), 10 * col + 3])
    calls = []

    def picker(n_features):
        calls.append(n_features)
        return np.array([2, 3])

    tree = build_classification_tree(
        X, y, np.ones(40), max_depth=3, min_samples_leaf=1, feature_picker=picker
    )
    assert tree.feature[0] == 3
    assert 3 + 10 * col[y == 0].max() < tree.threshold[0] < 3 + 10 * col[y == 1].min()
    assert set(tree.feature.tolist()) <= {-1, 3}
    # one draw per searched node: the root split and its two pure children stop early
    assert calls == [4]


@STUMPS
def test_constant_column_never_chosen(stump):
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, size=30)
    weak = y + rng.normal(scale=2.0, size=30)
    X = np.column_stack([np.full(30, 1.5), weak, np.zeros(30)])
    assert stump(X, y).feature[0] == 1
    only_constant = stump(X[:, [0, 2]], y)
    assert only_constant.feature.tolist() == [-1]


@STUMPS
def test_adjacent_floats_make_a_leaf_not_an_empty_child(stump):
    v = np.nextafter(1.0, np.inf)
    upper = np.nextafter(v, np.inf)
    assert 0.5 * (v + upper) == upper  # the midpoint rounds onto the upper value
    X = np.array([v, v, v, upper, upper, upper]).reshape(-1, 1)
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = stump(X, y)
    assert tree.feature.tolist() == [-1]
    assert tree.left.tolist() == [-1] and tree.right.tolist() == [-1]


@STUMPS
def test_growing_leaves_no_reference_cycles(stump):
    # a cycle would keep each tree's working copies alive until the cyclic collector runs
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    gc.collect()
    gc.disable()
    try:
        stump(X, y)
        assert gc.collect() == 0
    finally:
        gc.enable()
