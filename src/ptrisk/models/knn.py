"""k-nearest-neighbor classifier with inverse-distance vote.

Distances are Euclidean on (already standardized) features.  Neighbors
tie-break on training index, so predictions are deterministic.  If any
selected neighbor sits at distance zero, the vote is restricted to the
zero-distance neighbors with equal weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# elements of one chunk's (query rows x training rows x features) distance
# block: 256 KiB of float64 per temporary
_CHUNK_CELLS = 2**15


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int

    def predict_proba(self, X_new: np.ndarray) -> np.ndarray:
        X_new = np.asarray(X_new, dtype=float)
        n, p = self.X.shape
        k = min(self.k, n)
        out = np.empty(X_new.shape[0])
        step = max(1, _CHUNK_CELLS // max(n * p, 1))
        for start in range(0, X_new.shape[0], step):
            diff = self.X - X_new[start : start + step, None, :]
            diff *= diff
            d = np.sqrt(diff.sum(axis=2))
            # the k nearest, distance ties broken by training index: the rows
            # at most the k-th smallest distance away, in index order, stably
            # sorted by (query row, distance); then the first k of each query
            rows, cols = np.nonzero(d <= np.partition(d, k - 1, axis=1)[:, k - 1 : k])
            near = d[rows, cols]
            ranked = np.lexsort((near, rows))
            counts = np.bincount(rows, minlength=d.shape[0])
            pick = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
            order = cols[pick]
            dist = near[pick]
            labels = self.y[order]
            zero = dist == 0.0
            inv = 1.0 / np.where(zero, 1.0, dist)  # rows with a zero take the zero vote
            vote = (inv * labels).sum(axis=1) / inv.sum(axis=1)
            zero_vote = (zero * labels).sum(axis=1) / np.maximum(zero.sum(axis=1), 1)
            out[start : start + step] = np.where(zero.any(axis=1), zero_vote, vote)
        return out


def fit_knn(X: np.ndarray, y: np.ndarray, k: int = 7) -> KnnModel:
    return KnnModel(X=np.array(X, dtype=float), y=np.array(y, dtype=float), k=k)
