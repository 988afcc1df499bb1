"""Gradient-boosted trees with second-order (Newton) logistic boosting.

Raw scores start at 0.  Each round subsamples rows and columns, fits a
depth-limited regression tree to the gradient/hessian statistics of the
logistic loss, and adds the shrunken leaf values -lr * G/(H + lambda).
Round t draws its subsamples from its own substream,
``rng.child("round", t)``.
The tree is grown by ``tree.grow_presorted``, as the DT is, on the
round's sorted row draw of the full matrix, from the per-row statistics
(g, h) and the fit's one presort, searching the round's column draw at
every node; it shares the DT's split search and tie-break (lowest
feature, then lowest threshold).  Split gain is the usual second-order
improvement; a split is accepted only when both children carry at least
``_MIN_CHILD_HESSIAN`` hessian mass and the gain is positive.  So a node
whose hessian sum H is below 2 * ``_MIN_CHILD_HESSIAN`` is a leaf
without a search: if HL >= c and fl(H - HL) >= c then H >= 2c (for
HL >= H/2 the subtraction is exact, otherwise H > 2 HL), so the rule
only skips searches that find no split.

During the fit, the grower routes every training row, drawn or not,
down the round's partitions, and each row's raw score adds the value of
the leaf it reached; no tree is walked.  A prediction's raw score is the
sum of every round's leaf value, added in round order from 0.0 by
``tree_sums`` over bounded blocks of rows, so on the training rows it
equals the fit's raw score.  ``train_loss`` is the mean logistic train
loss after the last round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RngKey
from .logistic import sigmoid
from .tree import grow_presorted, rank_codes, tree_sums

_LAMBDA = 1.0
_MIN_CHILD_HESSIAN = 1.0


def _newton_gain(GL, HL, G, H, n_left, n):
    GR = G - GL
    HR = H - HL
    valid = (HL >= _MIN_CHILD_HESSIAN) & (HR >= _MIN_CHILD_HESSIAN)
    # 0.5 * (GL*GL / (HL + lambda) + GR*GR / (HR + lambda) - G*G / (H + lambda)),
    # in place, one operation at a time in that order
    gain = GL * GL
    gain /= HL + _LAMBDA
    GR *= GR
    HR += _LAMBDA
    GR /= HR
    gain += GR
    gain -= G * G / (H + _LAMBDA)
    gain *= 0.5
    return np.where(valid, gain, -np.inf)


@dataclass(frozen=True)
class BoostedModel:
    trees: tuple  # one FrozenTree per round
    train_loss: float  # mean logistic train loss after the last round

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        return tree_sums(self.trees, X)

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

    XT = np.ascontiguousarray(X.T, dtype=float)
    codes, order = rank_codes(XT)
    raw = np.zeros(n)
    trees = []
    for t in range(n_rounds):
        gen = rng.child("round", t).generator()
        rows = np.sort(gen.choice(n, size=n_rows, replace=False))
        cols = np.sort(gen.choice(p, size=n_cols, replace=False))
        prob = sigmoid(raw)
        tree, leaf = grow_presorted(
            XT,
            codes,
            order,
            prob - y,
            prob * (1.0 - prob),
            rows,
            cols,
            leaf_value=lambda G, H: -learning_rate * G / (H + _LAMBDA),
            split_gain=_newton_gain,
            max_depth=max_depth,
            is_leaf=lambda G, H, n: H < 2 * _MIN_CHILD_HESSIAN,
        )
        trees.append(tree)
        raw += tree.value.take(leaf)
    train_loss = float(np.mean(np.logaddexp(0.0, raw) - y * raw))
    return BoostedModel(trees=tuple(trees), train_loss=train_loss)
