"""Bagged ensemble of CART trees with per-split feature subsampling.

Each tree is grown on a bootstrap resample (n draws with replacement)
and considers floor(sqrt(p)) candidate features per split.  Tree t of
the ensemble draws its resample and its feature draws from its own
pre-assigned RNG substream, ``rng.child("tree", t)``, so the fitted
forest is identical no matter how fitting is scheduled.  A fit makes all
its trees' generators before the first tree grows.

All trees are grown in lockstep by one ``build_classification_trees``
call (see ``tree.py``): each step advances every tree by one node and
searches the step's nodes in a few block calls.  The forest is the only
user of this lockstep grower: its resamples repeat rows, so their order
cannot come from one presort per fit, as a DT's or a boosting round's
does.  The resample of every tree is drawn first; tree t's feature
draws then come from its own generator at its own searched nodes, in
its own depth-first order, which is the stream tree t would draw if
grown alone.  The resamples are held as one (trees x n) array of the
smallest unsigned integer type that indexes the rows, which the grower
partitions in place.

A prediction is the mean of the trees' leaf probabilities: ``tree_sums``
adds them in tree order over bounded blocks of rows, and the sum is
divided by the number of trees.  A DT is a one-tree ``ForestModel``: its
mean, (0.0 + v) / 1, is its leaf value v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RngKey
from .tree import build_classification_trees, tree_sums


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
    trees = build_classification_trees(
        X,
        y,
        sample_weight,
        samples,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        pickers=pickers,
    )
    return ForestModel(trees=trees)
