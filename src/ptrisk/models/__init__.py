from .boosting import fit_boosted
from .forest import ForestModel, fit_forest, fit_tree
from .knn import fit_knn
from .logistic import fit_logistic, objective, sigmoid
from .pipeline import (
    MODEL_KINDS,
    FittedPipeline,
    ModelSpec,
    balanced_weights,
    fit_pipeline,
)
from .standardizer import apply_standardizer, fit_standardizer
from .tree import FrozenTree

__all__ = [
    "MODEL_KINDS",
    "FittedPipeline",
    "ForestModel",
    "FrozenTree",
    "ModelSpec",
    "apply_standardizer",
    "balanced_weights",
    "fit_boosted",
    "fit_forest",
    "fit_knn",
    "fit_logistic",
    "fit_pipeline",
    "fit_standardizer",
    "fit_tree",
    "objective",
    "sigmoid",
]
