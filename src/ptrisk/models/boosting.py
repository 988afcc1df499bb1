"""Gradient-boosted trees with second-order (Newton) logistic boosting.

Raw scores start at 0.  Each round subsamples rows and columns, fits a
depth-limited regression tree to the gradient/hessian statistics of the
logistic loss, and adds the shrunken leaf values -lr * G/(H + lambda).
The tree is grown by ``tree.grow_tree`` from the per-row statistics
(g, h), so it shares the CART tree's split search and tie-break (lowest
feature, then lowest threshold).  Split gain is the usual second-order
improvement; a split is accepted only when both children carry at least
``_MIN_CHILD_HESSIAN`` hessian mass and the gain is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RngKey
from .logistic import sigmoid
from .tree import grow_tree, rank_codes

_LAMBDA = 1.0
_MIN_CHILD_HESSIAN = 1.0


def _newton_gain(GL, HL, G, H, n_left, n):
    GR = G - GL
    HR = H - HL
    valid = (HL >= _MIN_CHILD_HESSIAN) & (HR >= _MIN_CHILD_HESSIAN)
    gain = 0.5 * (GL * GL / (HL + _LAMBDA) + GR * GR / (HR + _LAMBDA) - G * G / (H + _LAMBDA))
    return np.where(valid, gain, -np.inf)


def _build_regression_tree(X, g, h, max_depth, learning_rate, codes=None):
    """Leaf values are the already-shrunken contributions -lr*G/(H+lambda).

    ``codes`` as for ``grow_tree``."""
    return grow_tree(
        X,
        g,
        h,
        leaf_value=lambda G, H: -learning_rate * G / (H + _LAMBDA),
        split_gain=_newton_gain,
        max_depth=max_depth,
        codes=codes,
    )


@dataclass(frozen=True)
class BoostedModel:
    trees: tuple  # FrozenTree over the subsampled column set
    columns: tuple  # per tree: indices into the full feature set
    train_losses: tuple  # mean logistic train loss after each round

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        raw = np.zeros(X.shape[0])
        for tree, cols in zip(self.trees, self.columns):
            raw += tree.predict_value(X[:, list(cols)])
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))


def fit_boosted(
    X: np.ndarray,
    y: np.ndarray,
    rng: RngKey,
    n_rounds: int = 200,
    max_depth: int = 3,
    learning_rate: float = 0.1,
    row_subsample: float = 0.8,
    col_subsample: float = 0.8,
) -> BoostedModel:
    n, p = X.shape
    n_rows = max(1, int(round(row_subsample * n)))
    n_cols = max(1, int(round(col_subsample * p)))

    codes = rank_codes(X.T)
    raw = np.zeros(n)
    trees = []
    columns = []
    losses = []
    for t in range(n_rounds):
        gen = rng.child("round", t).generator()
        rows = np.sort(gen.choice(n, size=n_rows, replace=False))
        cols = np.sort(gen.choice(p, size=n_cols, replace=False))
        prob = sigmoid(raw[rows])
        g = prob - y[rows]
        h = prob * (1.0 - prob)
        tree = _build_regression_tree(
            X[np.ix_(rows, cols)],
            g,
            h,
            max_depth=max_depth,
            learning_rate=learning_rate,
            codes=codes[cols].take(rows, axis=1),
        )
        trees.append(tree)
        columns.append(tuple(int(c) for c in cols))
        raw += tree.predict_value(X[:, cols])
        losses.append(float(np.mean(np.logaddexp(0.0, raw) - y * raw)))
    return BoostedModel(trees=tuple(trees), columns=tuple(columns), train_losses=tuple(losses))
