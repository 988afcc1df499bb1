"""The five fixed-hyperparameter classifiers behind one contract.

A FittedPipeline couples a fold-fitted standardizer with the fitted
model; ``predict_proba`` applies both.  Every hyperparameter is fixed in
``fit_model``: none is configurable and there is no tuning path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, TrainingError
from ..rng import RngKey
from .boosting import fit_boosted
from .forest import fit_forest
from .knn import fit_knn
from .logistic import fit_logistic
from .standardizer import StandardizerParams, apply_standardizer, fit_standardizer
from .tree import FrozenTree, build_classification_tree

MODEL_KINDS = ("LR", "DT", "RF", "GBT", "KNN")


@dataclass(frozen=True)
class ClassWeights:
    w_pos: float
    w_neg: float

    def per_sample(self, y: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(y) == 1, self.w_pos, self.w_neg)


def compute_class_weights(y: np.ndarray) -> ClassWeights:
    """Balanced weights w_c = n / (2 * n_c); both classes must be present."""
    y = np.asarray(y)
    n = y.size
    n_pos = int((y == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("degenerate fold: single-class labels")
    return ClassWeights(w_pos=n / (2.0 * n_pos), w_neg=n / (2.0 * n_neg))


@dataclass(frozen=True)
class ModelSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {self.kind!r}")


@dataclass(frozen=True)
class DecisionTreeModel:
    tree: FrozenTree

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.tree.predict_value(X)


def fit_model(spec: ModelSpec, X: np.ndarray, y: np.ndarray, rng: RngKey):
    """Fit the model part on already standardized features."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature value")
    if spec.kind in ("LR", "DT", "RF"):
        weights = compute_class_weights(y).per_sample(y)
    else:
        if np.unique(y).size < 2:
            raise TrainingError("degenerate fold: single-class labels")
        weights = None

    if spec.kind == "LR":
        return fit_logistic(X, y, weights, C=1.0)
    if spec.kind == "DT":
        tree = build_classification_tree(X, y, weights, max_depth=4, min_samples_leaf=5)
        return DecisionTreeModel(tree)
    if spec.kind == "RF":
        return fit_forest(
            X, y, weights, rng, n_trees=200, max_depth=4, min_samples_leaf=5
        )
    if spec.kind == "GBT":
        return fit_boosted(
            X,
            y,
            rng,
            n_rounds=200,
            max_depth=3,
            learning_rate=0.1,
            row_subsample=0.8,
            col_subsample=0.8,
        )
    return fit_knn(X, y, k=7)


@dataclass(frozen=True)
class FittedPipeline:
    kind: str
    standardizer: StandardizerParams
    model: object

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.standardizer.mean.shape[0]:
            raise ContractError(
                f"column mismatch: expected {self.standardizer.mean.shape[0]} features"
            )
        return self.model.predict_proba(apply_standardizer(self.standardizer, X))


def fit_pipeline(spec: ModelSpec, X: np.ndarray, y: np.ndarray, rng: RngKey) -> FittedPipeline:
    """Fit standardizer and model on the same (training) rows."""
    params = fit_standardizer(X)
    Xs = apply_standardizer(params, X)
    model = fit_model(spec, Xs, y, rng)
    return FittedPipeline(kind=spec.kind, standardizer=params, model=model)
