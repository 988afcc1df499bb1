"""Bagged ensemble of CART trees with per-split feature subsampling.

Each tree is grown on a bootstrap resample (n draws with replacement)
and considers floor(sqrt(p)) candidate features per split.  Tree t of
the ensemble draws from its own pre-assigned RNG substream, so the
fitted forest is identical no matter how fitting is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RngKey
from .tree import build_classification_tree, rank_codes


@dataclass(frozen=True)
class ForestModel:
    trees: tuple

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            votes += tree.predict_value(X)
        return votes / len(self.trees)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    rng: RngKey,
    n_trees: int = 200,
    max_depth: int = 4,
    min_samples_leaf: int = 5,
) -> ForestModel:
    n, p = X.shape
    n_candidates = max(1, int(np.floor(np.sqrt(p))))
    codes = rank_codes(X.T)
    trees = []
    for t in range(n_trees):
        gen = rng.child("tree", t).generator()
        idx = gen.integers(0, n, size=n)

        def picker(n_features, gen=gen):
            return np.sort(gen.choice(n_features, size=n_candidates, replace=False))

        trees.append(
            build_classification_tree(
                X[idx],
                y[idx],
                sample_weight[idx],
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                feature_picker=picker,
                codes=codes.take(idx, axis=1),
            )
        )
    return ForestModel(trees=tuple(trees))
