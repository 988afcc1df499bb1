"""CART trees: the bagged forest and the single decision tree.

The CART rules (``_cart_rules``) give each row two additive statistics,
its weight w and its positive weight w*[y=1].  A node's value is the
weighted positive fraction, a node with fewer than 2 *
``min_samples_leaf`` rows or with one class only is a leaf, and a split
scores the drop in weighted Gini impurity, allowed only with at least
``min_samples_leaf`` rows on each side.  The growers of ``tree.py`` apply
them; the hyperparameters are the defaults of the two fits below.

``fit_forest`` grows each tree on a bootstrap resample (n draws with
replacement), considering floor(sqrt(p)) candidate features per split.
Tree t of the ensemble draws its resample and its feature draws from its
own pre-assigned RNG substream, ``rng.child("tree", t)``, so the fitted
forest is identical no matter how fitting is scheduled.  A fit makes all
its trees' generators before the first tree grows.

All trees are grown in lockstep by one ``tree.grow_tree`` call: each
step advances every tree by one node and searches the step's nodes in a
few block calls.  The forest is the only user of this lockstep grower:
its resamples repeat rows, so their order cannot come from one presort
per fit, as the DT's or a boosting round's does.  The resample of every
tree is drawn first; tree t's feature draws then come from its own
generator at its own searched nodes, in its own depth-first order, which
is the stream tree t would draw if grown alone.  The resamples are held
as one (trees x n) array of the smallest unsigned integer type that
indexes the rows, which the grower partitions in place.

``fit_tree`` grows the DT: one CART tree on every row and every feature,
by ``tree.grow_presorted``, held as a one-tree ``ForestModel``.

A prediction is the mean of the trees' leaf probabilities: ``tree_sums``
adds them in tree order over bounded blocks of rows, and the sum is
divided by the number of trees.  A DT's mean, (0.0 + v) / 1, is its leaf
value v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RngKey
from .tree import grow_presorted, grow_tree, rank_codes, tree_sums


def _gini(frac):
    return 1.0 - frac * frac - (1.0 - frac) * (1.0 - frac)


def _cart_rules(y: np.ndarray, sample_weight: np.ndarray, min_samples_leaf: int) -> dict:
    """The CART row statistics and rules, as keywords of either grower."""
    w = np.asarray(sample_weight, dtype=float)
    wpos = np.where(y == 1, w, 0.0)

    def is_leaf(W, Wp, n):
        return (n < 2 * min_samples_leaf) | (Wp == 0.0) | (Wp == W)

    def gini_gain(WL, WpL, W, Wp, n_left, n):
        WR = W - WL
        gain = _gini(Wp / W) - (WL * _gini(WpL / WL) + WR * _gini((Wp - WpL) / WR)) / W
        valid = (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
        return np.where(valid, gain, -np.inf)

    return dict(a=w, b=wpos, leaf_value=lambda W, Wp: Wp / W, split_gain=gini_gain, is_leaf=is_leaf)


@dataclass(frozen=True)
class ForestModel:
    trees: tuple

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return tree_sums(self.trees, X) / len(self.trees)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    rng: RngKey,
    n_trees: int = 200,
    max_depth: int = 4,
    min_samples_leaf: int = 5,
) -> ForestModel:
    X = np.ascontiguousarray(X, dtype=float)
    n, p = X.shape
    n_candidates = max(1, int(np.floor(np.sqrt(p))))
    samples = np.empty((n_trees, n), dtype=np.min_scalar_type(n))
    pickers = []
    generators = [rng.child("tree", t).generator() for t in range(n_trees)]
    for t, gen in enumerate(generators):
        samples[t] = gen.integers(0, n, size=n)

        def picker(n_features, gen=gen):
            return np.sort(gen.choice(n_features, size=n_candidates, replace=False))

        pickers.append(picker)
    trees = grow_tree(
        X,
        rank_codes(X.T)[0],
        samples=samples,
        max_depth=max_depth,
        pickers=pickers,
        **_cart_rules(y, sample_weight, min_samples_leaf),
    )
    return ForestModel(trees=trees)


def fit_tree(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, max_depth: int = 4, min_samples_leaf: int = 5
) -> ForestModel:
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    codes, order = rank_codes(XT)
    tree, _ = grow_presorted(
        XT,
        codes,
        order,
        rows=np.arange(XT.shape[1]),
        features=np.arange(XT.shape[0]),
        max_depth=max_depth,
        **_cart_rules(y, sample_weight, min_samples_leaf),
    )
    return ForestModel((tree,))
