"""Fold-fitted z-score standardizer.

Binary (0/1-valued) columns pass through unchanged; everything else is
centered and scaled with the population (1/n) standard deviation learned
from the fitting rows only.  Zero-variance scaled columns map to all
zeros and carry a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError


@dataclass(frozen=True)
class StandardizerParams:
    mean: np.ndarray
    std: np.ndarray  # population std; 0.0 for pass-through columns
    standardized: np.ndarray  # bool per column
    zero_variance: np.ndarray  # bool per column (subset of standardized)


def _infer_kinds(X: np.ndarray) -> np.ndarray:
    """True where the column should be standardized.

    A column whose fitting values are a subset of {0, 1} is treated as a
    binary encoding and passed through; this is stable across folds,
    unlike counting distinct values.
    """
    standardized = np.empty(X.shape[1], dtype=bool)
    for j in range(X.shape[1]):
        col = X[:, j]
        standardized[j] = not np.isin(col, (0.0, 1.0)).all()
    return standardized


def fit_standardizer(X: np.ndarray) -> StandardizerParams:
    """Learn per-column centering/scaling from the given rows only; which
    columns are standardized is inferred from the data (``_infer_kinds``)."""
    X = np.asarray(X, dtype=float)
    standardized = _infer_kinds(X)
    mean = np.zeros(X.shape[1])
    std = np.zeros(X.shape[1])
    zero_variance = np.zeros(X.shape[1], dtype=bool)
    for j in np.nonzero(standardized)[0]:
        mean[j] = X[:, j].mean()
        std[j] = X[:, j].std()  # population (1/n) convention
        if std[j] == 0.0:
            zero_variance[j] = True
    return StandardizerParams(mean, std, standardized, zero_variance)


def apply_standardizer(params: StandardizerParams, X: np.ndarray) -> np.ndarray:
    """Transform rows using the stored parameters only."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.mean.shape[0]:
        raise ContractError(
            f"column mismatch: got shape {X.shape}, standardizer has {params.mean.shape[0]} columns"
        )
    out = X.copy()
    for j in np.nonzero(params.standardized)[0]:
        if params.zero_variance[j]:
            out[:, j] = 0.0
        else:
            out[:, j] = (X[:, j] - params.mean[j]) / params.std[j]
    return out
