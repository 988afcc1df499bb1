import gc
import tracemalloc

import numpy as np
import pytest

from ptrisk.evaluation import bootstrap_distribution
from ptrisk.models import (
    ForestModel,
    FrozenTree,
    balanced_weights,
    fit_boosted,
    fit_forest,
    fit_tree,
)
from ptrisk.models import boosting, forest, tree
from ptrisk.models.logistic import sigmoid
from ptrisk.models.tree import descend, grow_presorted, rank_codes, tree_sums
from ptrisk.rng import RngKey, substream


def newton_rules(learning_rate):
    """The boosting round's leaf value, stop rule and split gain."""
    return dict(
        leaf_value=lambda G, H: -learning_rate * G / (H + boosting._LAMBDA),
        split_gain=boosting._newton_gain,
        is_leaf=lambda G, H, n: H < 2 * boosting._MIN_CHILD_HESSIAN,
    )


def regression_tree(X, g, h, max_depth, learning_rate):
    """One boosting-round tree on all rows and columns of X, grown as a
    round grows it."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    fitted, _ = grow_presorted(
        XT,
        *rank_codes(XT),
        g,
        h,
        np.arange(XT.shape[1]),
        np.arange(XT.shape[0]),
        max_depth=max_depth,
        **newton_rules(learning_rate),
    )
    return fitted


def test_tree_pure_split_on_feature_zero():
    X = np.array([[-2.0, 1.0], [-1.0, 2.0], [1.0, 1.5], [2.0, 0.5]] * 3)
    y = np.array([0, 0, 1, 1] * 3)
    weights = balanced_weights(y)
    (tree,) = fit_tree(X, y, weights).trees
    assert tree.feature[0] == 0
    assert -1.0 < tree.threshold[0] < 1.0
    left_prob = tree.value[tree.left[0]]
    right_prob = tree.value[tree.right[0]]
    assert (left_prob, right_prob) == (0.0, 1.0)
    assert np.array_equal(tree_sums((tree,), X), y.astype(float))


def test_tree_respects_depth_and_leaf_size():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    y = rng.integers(0, 2, size=100)
    weights = balanced_weights(y)
    (tree,) = fit_tree(X, y, weights, max_depth=2, min_samples_leaf=10).trees

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
    weights = balanced_weights(y)
    (tree,) = fit_tree(X, y, weights, max_depth=3, min_samples_leaf=1).trees
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
    weights = balanced_weights(y)
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
    weights = balanced_weights(y)
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
    raw = np.zeros(len(y))
    losses = []
    for fitted in model.trees:
        raw += tree_sums((fitted,), X)
        losses.append(float(np.mean(np.logaddexp(0.0, raw) - y * raw)))
    assert (np.diff(losses) <= 1e-12).all()
    assert np.float64(model.train_loss).tobytes() == np.float64(losses[-1]).tobytes()


def masked_sigmoid(z):
    """The two-branch formula ``sigmoid`` replaced, as a bit-for-bit reference."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_masked_formula_bit_for_bit():
    edges = np.array([0.0, 5e-324, 745.2, 750.0, 1e308])
    rng = np.random.default_rng(21)
    scaled = rng.normal(size=10**6) * np.geomspace(1e-8, 800.0, 10**6)
    z = np.concatenate([edges, -edges, scaled])
    assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def test_gbt_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(float)
    m1 = fit_boosted(X, y, RngKey(11).child("g"), n_rounds=15)
    m2 = fit_boosted(X, y, RngKey(11).child("g"), n_rounds=15)
    assert np.array_equal(m1.predict_proba(X), m2.predict_proba(X))


def test_gbt_trees_split_only_on_their_rounds_columns():
    # each round's tree searches the round's column draw of the full matrix,
    # and its feature array holds the full matrix's column indices
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 10))
    y = (X @ rng.normal(size=10) + rng.normal(size=60) > 0).astype(float)
    key = RngKey(3).child("gbt")
    model = fit_boosted(X, y, key, n_rounds=20, col_subsample=0.3)
    for t, fitted in enumerate(model.trees):
        gen = key.child("round", t).generator()
        gen.choice(60, size=48, replace=False)  # the round's rows
        cols = gen.choice(10, size=3, replace=False)
        used = fitted.feature[fitted.feature >= 0]
        assert used.size and np.isin(used, cols).all()


# --- the split search: tie-breaks and edge cases ------------------------------


def cart_stump(X, y):
    (stump,) = fit_tree(X, y, np.ones(len(y)), max_depth=1, min_samples_leaf=1).trees
    return stump


def lockstep_stump(X, y):
    X = np.ascontiguousarray(X)
    (stump,) = tree.grow_tree(
        X,
        rank_codes(X.T)[0],
        samples=np.arange(len(y))[None, :],
        max_depth=1,
        pickers=[np.arange],
        **forest._cart_rules(y, np.ones(len(y)), 1),
    )
    return stump


def newton_stump(X, y):
    g = np.where(y == 1, -1.0, 1.0)
    return regression_tree(X, g, np.ones(len(y)), max_depth=1, learning_rate=0.1)


STUMPS = pytest.mark.parametrize(
    "stump", [cart_stump, newton_stump, lockstep_stump], ids=["cart", "newton", "lockstep"]
)


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

    (fitted,) = tree.grow_tree(
        X,
        rank_codes(X.T)[0],
        samples=np.arange(40)[None, :],
        max_depth=3,
        pickers=[picker],
        **forest._cart_rules(y, np.ones(40), 1),
    )
    assert fitted.feature[0] == 3
    assert 3 + 10 * col[y == 0].max() < fitted.threshold[0] < 3 + 10 * col[y == 1].min()
    assert set(fitted.feature.tolist()) <= {-1, 3}
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


# --- rank-code split search against the float-sort oracle ----------------------


def float_sort_best_split(Xn, a, b, A, B, split_gain):
    """Reference search: stable sort of the float block itself."""
    n = Xn.shape[1]
    if n < 2:
        return None
    order = np.argsort(Xn, axis=1, kind="stable")
    V = np.sort(Xn, axis=1)
    AL = np.cumsum(a[order], axis=1)[:, :-1]
    BL = np.cumsum(b[order], axis=1)[:, :-1]
    gain = np.where(V[:, :-1] < V[:, 1:], split_gain(AL, BL, A, B, np.arange(1, n), n), -np.inf)
    f, j = divmod(int(np.argmax(gain)), n - 1)
    if not gain[f, j] > tree._MIN_GAIN:
        return None
    return f, 0.5 * (V[f, j] + V[f, j + 1])


def float_sort_grow_tree(X, a, b, leaf_value, split_gain, max_depth, is_leaf, picker):
    """Reference grower: one tree, depth-first, on ``float_sort_best_split``;
    it searches ``picker``'s features at each node."""
    XT = np.ascontiguousarray(X.T)
    n_features = XT.shape[0]
    feature, threshold, left, right, value = [], [], [], [], []
    pending = [(np.arange(XT.shape[1]), 0, None, -1)]
    while pending:
        rows, depth, link, parent = pending.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if link is not None:
            link[parent] = node
        a_rows = a[rows]
        b_rows = b[rows]
        A = a_rows.sum()
        B = b_rows.sum()
        value.append(float(leaf_value(A, B)))
        if depth >= max_depth or is_leaf(A, B, rows.size):
            continue
        feature_ids = picker(n_features)
        best = float_sort_best_split(XT[feature_ids][:, rows], a_rows, b_rows, A, B, split_gain)
        if best is None:
            continue
        row, cut = best
        f = int(feature_ids[row])
        go_left = XT[f, rows] <= cut
        if not go_left.any() or go_left.all():
            continue
        feature[node] = f
        threshold[node] = cut
        pending.append((rows[~go_left], depth + 1, right, node))
        pending.append((rows[go_left], depth + 1, left, node))
    return FrozenTree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        value=np.asarray(value, dtype=float),
    )


def float_sort_cart(X, y, sample_weight, rows, picker, max_depth, min_samples_leaf):
    """Reference CART tree on ``rows`` of X (repeats allowed), searching
    ``picker``'s features at each node."""
    rules = forest._cart_rules(y, sample_weight, min_samples_leaf)
    a, b = rules.pop("a"), rules.pop("b")
    return float_sort_grow_tree(X[rows], a[rows], b[rows], max_depth=max_depth, picker=picker, **rules)


def per_tree_forest(X, y, sample_weight, rng, n_trees, max_depth, min_samples_leaf):
    """Reference forest: each tree's resample, feature draws and growth in
    turn, one tree at a time."""
    n, p = X.shape
    n_candidates = max(1, int(np.floor(np.sqrt(p))))
    trees = []
    for t in range(n_trees):
        gen = rng.child("tree", t).generator()
        idx = gen.integers(0, n, size=n)

        def picker(n_features, gen=gen):
            return np.sort(gen.choice(n_features, size=n_candidates, replace=False))

        trees.append(float_sort_cart(X, y, sample_weight, idx, picker, max_depth, min_samples_leaf))
    return tuple(trees)


def float_sort_boosted(X, y, rng, n_rounds, max_depth, learning_rate=0.1, subsample=0.8):
    """Reference boosting: round t draws its rows, then its columns, from
    ``rng.child("round", t)``, grows ``float_sort_grow_tree`` on those rows
    and columns, and adds the tree's values to every row's raw score."""
    n, p = X.shape
    raw = np.zeros(n)
    trees = []
    for t in range(n_rounds):
        gen = rng.child("round", t).generator()
        rows = np.sort(gen.choice(n, size=max(1, int(round(subsample * n))), replace=False))
        cols = np.sort(gen.choice(p, size=max(1, int(round(subsample * p))), replace=False))
        prob = sigmoid(raw)
        fitted = float_sort_grow_tree(
            X[rows],
            (prob - y)[rows],
            (prob * (1.0 - prob))[rows],
            max_depth=max_depth,
            picker=lambda _: cols,
            **newton_rules(learning_rate),
        )
        trees.append(fitted)
        raw += tree_sums((fitted,), X)
    return trees, float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def tricky_matrix(rng, n):
    """Columns with ties, signed zeros, a constant, and adjacent floats
    whose midpoint rounds onto the upper value."""
    v = np.nextafter(1.0, np.inf)
    upper = np.nextafter(v, np.inf)
    assert 0.5 * (v + upper) == upper
    return np.column_stack(
        [
            rng.normal(size=n),
            rng.integers(0, 4, size=n).astype(float),
            np.round(rng.normal(size=n), 1),
            rng.choice([-1.0, -0.0, 0.0, 1.0], size=n),
            np.full(n, 2.5),
            rng.choice([v, upper, np.nextafter(upper, np.inf)], size=n),
            rng.integers(0, 2, size=n).astype(float),
        ]
    )


def tree_bytes(fitted):
    return [
        (arr.dtype.str, arr.tobytes())
        for arr in (fitted.feature, fitted.threshold, fitted.left, fitted.right, fitted.value)
    ]


# (trees, max_depth, min_samples_leaf): trees that stop at different depths,
# and a tree count (37, prime) that no block size divides
FORESTS = ((12, 4, 1), (37, 8, 1), (37, 8, 5))


def fit_all(X, y):
    """The package's trees: two CART trees, three forests and a boosted fit."""
    weights = balanced_weights(y)
    (dt,) = fit_tree(X, y, weights).trees
    (deep,) = fit_tree(X, y, weights, max_depth=8, min_samples_leaf=1).trees
    rf = [
        fitted
        for n_trees, depth, leaf in FORESTS
        for fitted in fit_forest(
            X, y, weights, RngKey(3).child("rf", depth, leaf), n_trees=n_trees, max_depth=depth, min_samples_leaf=leaf
        ).trees
    ]
    gbt = fit_boosted(X, y.astype(float), RngKey(3).child("gbt"), n_rounds=12, max_depth=4)
    trees = [dt, deep, *rf, *gbt.trees]
    return [tree_bytes(t) for t in trees], np.float64(gbt.train_loss).tobytes()


def float_sort_all(X, y):
    """``fit_all``'s trees from the float-sort reference grower."""
    weights = balanced_weights(y)
    every = np.arange(X.shape[0])
    dt = float_sort_cart(X, y, weights, every, np.arange, max_depth=4, min_samples_leaf=5)
    deep = float_sort_cart(X, y, weights, every, np.arange, max_depth=8, min_samples_leaf=1)
    rf = [
        fitted
        for n_trees, depth, leaf in FORESTS
        for fitted in per_tree_forest(X, y, weights, RngKey(3).child("rf", depth, leaf), n_trees, depth, leaf)
    ]
    gbt, train_loss = float_sort_boosted(X, y.astype(float), RngKey(3).child("gbt"), n_rounds=12, max_depth=4)
    trees = [dt, deep, *rf, *gbt]
    return [tree_bytes(t) for t in trees], np.float64(train_loss).tobytes()


@pytest.mark.parametrize("n", [30, 256, 257, 420])
def test_rank_code_search_matches_float_sort_oracle(n):
    # n=256 gives uint8 codes up to 255, the dtype's largest code, which is
    # also the pad code of a padded search block
    rng = np.random.default_rng(n)
    for _ in range(3):
        X = tricky_matrix(rng, n)
        X = X[:, rng.permutation(X.shape[1])]
        signal = X[:, 0] + (X[:, 5] > 1.0) + 0.5 * X[:, 1] + rng.normal(size=n)
        y = (signal > np.median(signal)).astype(int)
        assert fit_all(X, y) == float_sort_all(X, y)


def random_rules(rng, n, cart):
    """Random per-row statistics a, b of n rows and the rules, CART's or
    a boosting round's."""
    if cart:
        y = rng.integers(0, 2, size=n)
        rules = forest._cart_rules(y, rng.uniform(0.5, 2.0, size=n), int(rng.integers(1, 6)))
        return rules.pop("a"), rules.pop("b"), rules
    a = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
    b = rng.uniform(0.05, 1.0, size=n)
    return a, b, newton_rules(float(rng.uniform(0.05, 1.0)))


def counting(split_gain, scored):
    """``split_gain`` that appends to ``scored`` the number of positions
    each call scores."""

    def gain(AL, *rest):
        scored.append(AL.size)
        return split_gain(AL, *rest)

    return gain


@pytest.mark.parametrize("n", [30, 256, 257, 420])
def test_presorted_grower_matches_lockstep_grower(n):
    # one tree on sorted row and column subsets, under random Newton and
    # CART rules: same bytes from both growers, and the presorted grower's
    # leaf of every row of X is the leaf a walk of the tree reaches
    rng = np.random.default_rng(n + 1)
    X = tricky_matrix(rng, n)
    XT = np.ascontiguousarray(X.T)
    codes, order = rank_codes(XT)
    p = X.shape[1]
    for trial in range(66):
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        cols = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        max_depth = int(rng.integers(1, 7))
        a, b, rules = random_rules(rng, n, cart=trial % 11 == 0)
        (expected,) = tree.grow_tree(
            X, codes, a, b, rows.copy()[None, :], max_depth=max_depth, pickers=[lambda _: cols], **rules
        )
        got, leaf = grow_presorted(XT, codes, order, a, b, rows, cols, max_depth=max_depth, **rules)
        assert tree_bytes(got) == tree_bytes(expected)
        walked = descend(got.feature, got.threshold, got.left, got.right, X, np.zeros(n, dtype=np.intp))
        assert np.array_equal(leaf, walked)
    # five trees on equal-size row subsets in one lockstep call, so their
    # deeper steps share padded search blocks: each is the presorted
    # grower's tree, and both growers score the same number of positions,
    # the code boundaries
    for trial in range(6):
        samples = np.sort([rng.choice(n, size=2 * n // 3, replace=False) for _ in range(5)], axis=1)
        size = int(rng.integers(1, p + 1))
        picks = [np.sort(rng.choice(p, size=size, replace=False)) for _ in range(5)]
        max_depth = int(rng.integers(2, 7))
        a, b, rules = random_rules(rng, n, cart=trial % 2 == 0)
        split_gain = rules.pop("split_gain")
        lockstep_scored, presorted_scored = [], []
        expected = tree.grow_tree(
            X,
            codes,
            a,
            b,
            samples.copy(),
            max_depth=max_depth,
            pickers=[lambda _, cols=cols: cols for cols in picks],
            split_gain=counting(split_gain, lockstep_scored),
            **rules,
        )
        presorted_gain = counting(split_gain, presorted_scored)
        got = [
            grow_presorted(XT, codes, order, a, b, rows, cols, max_depth=max_depth, split_gain=presorted_gain, **rules)
            for rows, cols in zip(samples, picks)
        ]
        assert [tree_bytes(t) for t, _ in got] == [tree_bytes(t) for t in expected]
        assert sum(lockstep_scored) == sum(presorted_scored)


def test_rank_codes_keep_order_and_ties():
    v = np.nextafter(1.0, np.inf)
    col = np.array([3.0, -0.0, 0.0, v, -2.0, 3.0, np.nextafter(v, np.inf), 0.0])
    codes, order = rank_codes(np.vstack([col, np.zeros(8)]))
    assert codes.tolist() == [[4, 1, 1, 2, 0, 4, 3, 1], [0] * 8]
    # each row's columns in (code, column) order
    assert order.tolist() == [[4, 1, 2, 7, 3, 6, 0, 5], list(range(8))]
    assert rank_codes(np.zeros((2, 256)))[0].dtype == np.uint8
    assert rank_codes(np.zeros((2, 257)))[0].dtype == np.uint16


def test_tied_rows_are_summed_in_row_order():
    # feature 0 ties all left rows at one value, feature 1 spreads them in row
    # order; summed in the same (row) order, both splits have bit-identical
    # gains and the lower index wins, but any other order within the tie
    # changes the last bits of the left gradient sum
    rng = np.random.default_rng(0)
    for _ in range(20):
        left = np.sort(rng.choice(60, size=40, replace=False))
        is_left = np.isin(np.arange(60), left)
        g = np.where(is_left, -1.0, 1.0) - rng.uniform(0, 1e-3, size=60)
        X = np.column_stack([np.where(is_left, 0.0, 1.0), np.full(60, 1000.0)])
        X[left, 1] = np.arange(40.0)
        fitted = regression_tree(X, g, np.ones(60), max_depth=1, learning_rate=0.1)
        assert fitted.feature[0] == 0


def test_node_totals_of_both_statistics_are_their_1d_sums():
    # the grower sums a node's rows of the (2, n) statistics in one
    # reduction along axis 1; each row must sum pairwise as its 1-D slice
    rng = np.random.default_rng(11)
    n = 60_000
    a = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    b = rng.random(n)
    ab = np.stack((a, b))
    for _ in range(2300):
        m = int(np.exp(rng.uniform(0.0, np.log(n + 1))))
        rows = rng.integers(0, n, size=m).astype(np.uint16)
        together = np.add.reduce(ab.take(rows, axis=1), axis=1)
        alone = np.array([np.add.reduce(a.take(rows)), np.add.reduce(b.take(rows))])
        assert together.tobytes() == alone.tobytes(), m


# --- all-tree prediction and the forest's working set ---------------------------


PREDICT_STEP = tree._BLOCK_CELLS // 30  # rows per prediction block of a 30-tree ensemble


@pytest.fixture(scope="module")
def small_ensembles():
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.normal(size=120), rng.integers(0, 3, size=120), rng.normal(size=120)])
    y = (X[:, 0] + X[:, 1] + rng.normal(size=120) > 1.0).astype(int)
    forest = fit_forest(X, y, balanced_weights(y), RngKey(8).child("rf"), n_trees=30)
    model = fit_boosted(X, y.astype(float), RngKey(8).child("gbt"), n_rounds=30, col_subsample=0.7)
    return forest, model


@pytest.mark.parametrize(
    "rows", [1, PREDICT_STEP - 1, PREDICT_STEP, PREDICT_STEP + 1, 3 * PREDICT_STEP + 7]
)
def test_all_tree_prediction_adds_trees_in_order(small_ensembles, rows):
    # whole blocks, a partial last block and one row: each row's total is
    # the per-tree loop's, byte for byte
    forest, model = small_ensembles
    rng = np.random.default_rng(rows)
    X = np.column_stack([rng.normal(size=rows), rng.integers(0, 3, size=rows), rng.normal(size=rows)])
    votes = np.zeros(rows)
    for fitted in forest.trees:
        votes += tree_sums((fitted,), X)
    assert forest.predict_proba(X).tobytes() == (votes / 30).tobytes()
    raw = np.zeros(rows)
    for fitted in model.trees:
        raw += tree_sums((fitted,), X)
    assert model.raw_scores(X).tobytes() == raw.tobytes()


def cohort_like(rows, seed):
    """Rows like a workload cohort: 12 binary, one age and 9 normal features."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.integers(0, 2, size=(rows, 12)), rng.integers(18, 50, size=rows), rng.normal(size=(rows, 9))]
    ).astype(float)
    y = (X[:, 13] + X[:, 0] + rng.normal(size=rows) > 0.5).astype(int)
    return X, y


def test_forest_fit_working_set_stays_small():
    # one row permutation per tree and a cell cap per search block; holding
    # every tree's gathered rows at once peaked near 9.4 MiB here
    X, y = cohort_like(800, 12)
    weights = balanced_weights(y)
    tracemalloc.start()
    try:
        fit_forest(X, y, weights, RngKey(4).child("rf"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_gbt_fit_working_set_stays_small():
    # one round's presorted lists and running sums at a time; the one-node
    # lockstep search it replaced peaked at 1.92 MiB
    X, y = cohort_like(800, 12)
    tracemalloc.start()
    try:
        fit_boosted(X, y.astype(float), RngKey(4).child("gbt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_ensemble_predict_working_set_stays_small():
    # node indices are walked a bounded (trees x rows) block at a time;
    # one block over all 2,000 rows peaked at 22.6 MiB here
    X, y = cohort_like(800, 12)
    forest = fit_forest(X, y, balanced_weights(y), RngKey(4).child("rf"))
    model = fit_boosted(X, y.astype(float), RngKey(4).child("gbt"))
    X_new, _ = cohort_like(2000, 13)
    peaks = []
    tracemalloc.start()
    try:
        for predict in (forest.predict_proba, model.predict_proba):
            tracemalloc.reset_peak()
            predict(X_new)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 2 * 2**20


@pytest.mark.parametrize("metric", ["sensitivity", "auc"])
def test_bootstrap_working_set_stays_small(metric):
    # indices are drawn a chunk at a time; the (B, n) int64 index block
    # drawn at once was 40 MB here
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=5000)
    p = np.round(rng.random(5000), 3)
    tracemalloc.start()
    try:
        bootstrap_distribution(y, p, metric, B=1000, rng=substream(1, "bootstrap"), threshold=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
