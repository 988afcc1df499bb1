"""Fold-fitted z-score standardizer.

Binary (0/1-valued) columns pass through unchanged; everything else is
centered and scaled with the population (1/n) standard deviation learned
from the fitting rows only.  Zero-variance scaled columns map to all
zeros and carry a flag.

The scaled columns are copied once into one contiguous (columns x rows)
block, and each column's mean and std reduce along its row of that block:
the pairwise sums of its 1-D slice, bit for bit.
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


def fit_standardizer(X: np.ndarray) -> StandardizerParams:
    """Learn per-column centering/scaling from the given rows only.

    A column whose fitting values are a subset of {0, 1} is treated as a
    binary encoding and passed through; this is stable across folds,
    unlike counting distinct values.
    """
    X = np.asarray(X, dtype=float)
    standardized = ~np.isin(X, (0.0, 1.0)).all(axis=0)
    scaled = np.ascontiguousarray(X[:, standardized].T)
    mean = np.zeros(X.shape[1])
    std = np.zeros(X.shape[1])
    mean[standardized] = scaled.mean(axis=1)
    std[standardized] = scaled.std(axis=1)  # population (1/n) convention
    return StandardizerParams(mean, std, standardized, standardized & (std == 0.0))


def apply_standardizer(params: StandardizerParams, X: np.ndarray) -> np.ndarray:
    """Transform rows using the stored parameters only."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.mean.shape[0]:
        raise ContractError(
            f"column mismatch: got shape {X.shape}, standardizer has {params.mean.shape[0]} columns"
        )
    out = X.copy()
    scaled = params.standardized & ~params.zero_variance
    out[:, scaled] = (X[:, scaled] - params.mean[scaled]) / params.std[scaled]
    out[:, params.zero_variance] = 0.0
    return out
