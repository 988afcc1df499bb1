"""Tree growing shared by the CART tree, the forest and the boosted trees.

``grow_tree`` is the one grower and ``_best_split`` the one split search.
A tree kind supplies two additive per-row statistics, a leaf-value rule
and a gain rule: (w, w*[y=1]) with the weighted Gini gain for CART, and
the logistic (gradient, hessian) with the Newton gain for boosting (see
``boosting.py``).  Split candidates are midpoints of consecutive distinct
sorted feature values.  Ties between equally good splits resolve to the
lowest feature index, then the lowest threshold, giving a fully
deterministic tree.  The tree is stored as flat arrays (feature < 0 marks
a leaf).

The split search never sorts floats.  ``rank_codes`` gives each feature
column dense integer ranks once per fit (uint8 up to 256 rows, uint16 up
to 65,536), and each node sorts its block of codes, for which numpy's
stable argsort is a radix sort.  Codes keep the order and the ties of
the values, so the row order, the running sums and the gains are those
of a stable sort of the floats.  The floats are read only to form the
chosen threshold, the midpoint of the two values at the chosen position,
and to partition the node's rows by ``value <= threshold``: a midpoint
of two adjacent floats can round onto the upper value, so the partition
cannot be taken from the codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MIN_GAIN = 1e-12


@dataclass
class TreeArrays:
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)  # leaf probability / raw score

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def finalize(self) -> "FrozenTree":
        return FrozenTree(
            feature=np.asarray(self.feature, dtype=np.intp),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.intp),
            right=np.asarray(self.right, dtype=np.intp),
            value=np.asarray(self.value, dtype=float),
        )


@dataclass(frozen=True)
class FrozenTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        idx = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[idx]
            internal = feat >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            node = idx[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
        return self.value[idx]


def rank_codes(XT: np.ndarray) -> np.ndarray:
    """Dense rank of each value within its row of XT (features x rows).

    Equal values, -0.0 and 0.0 among them, share a code, and a larger
    value has a larger code.  The dtype is the smallest unsigned integer
    that holds the number of rows minus one.
    """
    order = np.argsort(XT, axis=1, kind="stable")
    V = np.take_along_axis(XT, order, axis=1)
    step = np.zeros(XT.shape, dtype=np.min_scalar_type(max(XT.shape[1] - 1, 0)))
    step[:, 1:] = V[:, 1:] > V[:, :-1]
    codes = np.empty_like(step)
    np.put_along_axis(codes, order, np.cumsum(step, axis=1, dtype=step.dtype), axis=1)
    return codes


def _best_split(Cn, a, b, A, B, split_gain):
    """Best split of one node's (features x rows) block of rank codes, or None.

    One stable sort per block row, running sums of the node's row
    statistics ``a``, ``b`` (totals ``A``, ``B``) in that order, the gain
    between every two distinct codes, and one flat argmax.  Returns the
    block row and the node-local rows holding the values on either side
    of the split.
    """
    n = Cn.shape[1]
    if n < 2:
        return None
    order = np.argsort(Cn, axis=1, kind="stable")
    S = np.sort(Cn, axis=1)
    AL = np.cumsum(a[order], axis=1)[:, :-1]
    BL = np.cumsum(b[order], axis=1)[:, :-1]
    gain = np.where(S[:, :-1] < S[:, 1:], split_gain(AL, BL, A, B, np.arange(1, n), n), -np.inf)
    f, j = divmod(int(np.argmax(gain)), n - 1)
    if not gain[f, j] > _MIN_GAIN:
        return None
    return f, order[f, j], order[f, j + 1]


def grow_tree(
    X: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    leaf_value,
    split_gain,
    max_depth: int,
    is_leaf=None,
    feature_picker=None,
    codes=None,
) -> FrozenTree:
    """Grow one tree depth-first, left subtree before right, from row statistics.

    The rules see only sums of the per-row statistics ``a``, ``b`` over a
    node's rows, taken in ascending row order: ``leaf_value(A, B)`` gives
    the node value, ``is_leaf(A, B, n)`` stops a node before its split
    search, and ``split_gain(AL, BL, A, B, n_left, n)`` scores the
    left-child sums (one row per candidate feature, one column per left
    row count ``n_left``), -inf where the split is not allowed.
    ``feature_picker(n_features) -> ascending candidate indices`` is
    called once per searched node, in growth order; None means all.
    ``codes`` is ``rank_codes(X.T)``, or the (features x rows) block of a
    larger matrix's rank codes that X was taken from; None computes it.
    """
    XT = np.ascontiguousarray(X.T)
    CT = rank_codes(XT) if codes is None else codes
    n_features = XT.shape[0]
    all_features = np.arange(n_features)
    arrays = TreeArrays()
    # (rows, depth, parent's child list, parent); right is pushed before left
    pending = [(np.arange(XT.shape[1]), 0, None, -1)]
    while pending:
        rows, depth, link, parent = pending.pop()
        node = arrays.add_node()
        if link is not None:
            link[parent] = node
        a_rows = a[rows]
        b_rows = b[rows]
        A = a_rows.sum()
        B = b_rows.sum()
        arrays.value[node] = float(leaf_value(A, B))
        if depth >= max_depth or (is_leaf is not None and is_leaf(A, B, rows.size)):
            continue
        feature_ids = all_features if feature_picker is None else feature_picker(n_features)
        best = _best_split(CT[feature_ids].take(rows, axis=1), a_rows, b_rows, A, B, split_gain)
        if best is None:
            continue
        row, lo, hi = best
        f = int(feature_ids[row])
        threshold = 0.5 * (XT[f, rows[lo]] + XT[f, rows[hi]])
        go_left = XT[f, rows] <= threshold
        if not go_left.any() or go_left.all():
            continue
        arrays.feature[node] = f
        arrays.threshold[node] = threshold
        pending.append((rows[~go_left], depth + 1, arrays.right, node))
        pending.append((rows[go_left], depth + 1, arrays.left, node))
    return arrays.finalize()


def _gini(frac):
    return 1.0 - frac * frac - (1.0 - frac) * (1.0 - frac)


def build_classification_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    feature_picker=None,
    codes=None,
) -> FrozenTree:
    """Grow a CART tree; leaf value is the weighted positive fraction.

    The row statistics are the weight w and the positive weight w*[y=1].
    A split needs at least ``min_samples_leaf`` rows on each side.
    ``feature_picker(n_features) -> candidate indices`` injects the
    per-split feature subsampling used by the forest; None means all
    features are candidates at every split.  ``codes`` as for
    ``grow_tree``.
    """
    w = np.asarray(sample_weight, dtype=float)
    wpos = np.where(y == 1, w, 0.0)

    def is_leaf(W, Wp, n):
        return n < 2 * min_samples_leaf or Wp == 0.0 or Wp == W

    def gini_gain(WL, WpL, W, Wp, n_left, n):
        WR = W - WL
        gain = _gini(Wp / W) - (WL * _gini(WpL / WL) + WR * _gini((Wp - WpL) / WR)) / W
        valid = (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
        return np.where(valid, gain, -np.inf)

    return grow_tree(
        X,
        w,
        wpos,
        leaf_value=lambda W, Wp: Wp / W,
        split_gain=gini_gain,
        max_depth=max_depth,
        is_leaf=is_leaf,
        feature_picker=feature_picker,
        codes=codes,
    )
