"""The five fixed-hyperparameter classifiers behind one contract.

A FittedPipeline couples a fold-fitted standardizer with the fitted
model; ``predict_proba`` applies both.  No fit function checks its
rows, though every kind needs finite features and both classes; the run
holds both before any fit.  The parsers give each value as a finite
number or NaN and curation drops every row with a NaN; curation refuses
a class with fewer than two rows (``report._curate``), and
``evaluation.stratified_kfold`` deals those rows to different folds, so
every training split keeps both classes.  Each hyperparameter is written
once, as a default of its fit function (``fit_logistic``,
``fit_tree`` for the DT, ``fit_forest``, ``fit_boosted``, ``fit_knn``).
None is configurable and there is no tuning path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..rng import RngKey
from .boosting import fit_boosted
from .forest import fit_forest, fit_tree
from .knn import fit_knn
from .logistic import fit_logistic
from .standardizer import StandardizerParams, apply_standardizer, fit_standardizer

MODEL_KINDS = ("LR", "DT", "RF", "GBT", "KNN")


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Per-row balanced class weights w_c = n / (2 * n_c); both classes
    must be present."""
    n_pos = int((y == 1).sum())
    return np.where(y == 1, y.size / (2.0 * n_pos), y.size / (2.0 * (y.size - n_pos)))


@dataclass(frozen=True)
class ModelSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {self.kind!r}")


def fit_model(spec: ModelSpec, X: np.ndarray, y: np.ndarray, rng: RngKey):
    """Fit the model part on already standardized features."""
    if spec.kind == "LR":
        return fit_logistic(X, y, balanced_weights(y))
    if spec.kind == "DT":
        return fit_tree(X, y, balanced_weights(y))
    if spec.kind == "RF":
        return fit_forest(X, y, balanced_weights(y), rng)
    if spec.kind == "GBT":
        return fit_boosted(X, y, rng)
    return fit_knn(X, y)


@dataclass(frozen=True)
class FittedPipeline:
    kind: str
    standardizer: StandardizerParams
    model: object

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(apply_standardizer(self.standardizer, X))


def fit_pipeline(spec: ModelSpec, X: np.ndarray, y: np.ndarray, rng: RngKey) -> FittedPipeline:
    """Fit standardizer and model on the same (training) rows."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    params = fit_standardizer(X)
    model = fit_model(spec, apply_standardizer(params, X), y, rng)
    return FittedPipeline(kind=spec.kind, standardizer=params, model=model)
