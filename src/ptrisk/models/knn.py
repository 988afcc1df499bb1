"""k-nearest-neighbor classifier with inverse-distance vote.

Distances are Euclidean on (already standardized) features.  Neighbors
tie-break on training index, so predictions are deterministic.  If any
selected neighbor sits at distance zero, the vote is restricted to the
zero-distance neighbors with equal weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError


@dataclass(frozen=True)
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int

    def predict_proba(self, X_new: np.ndarray) -> np.ndarray:
        X_new = np.asarray(X_new, dtype=float)
        k = min(self.k, self.X.shape[0])
        out = np.empty(X_new.shape[0])
        for i, q in enumerate(X_new):
            d = np.sqrt(((self.X - q) ** 2).sum(axis=1))
            order = np.lexsort((np.arange(d.size), d))[:k]
            dist = d[order]
            labels = self.y[order]
            if (dist == 0.0).any():
                zero = dist == 0.0
                out[i] = labels[zero].mean()
            else:
                inv = 1.0 / dist
                out[i] = float((inv * labels).sum() / inv.sum())
        return out


def fit_knn(X: np.ndarray, y: np.ndarray, k: int = 7) -> KnnModel:
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature value")
    return KnnModel(X=X.copy(), y=np.asarray(y, dtype=float).copy(), k=k)
