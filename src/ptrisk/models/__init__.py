from .boosting import fit_boosted
from .forest import ForestModel, fit_forest
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
from .tree import FrozenTree, build_classification_tree, build_classification_trees

__all__ = [
    "MODEL_KINDS",
    "FittedPipeline",
    "ForestModel",
    "FrozenTree",
    "ModelSpec",
    "apply_standardizer",
    "balanced_weights",
    "build_classification_tree",
    "build_classification_trees",
    "fit_boosted",
    "fit_forest",
    "fit_knn",
    "fit_logistic",
    "fit_pipeline",
    "fit_standardizer",
    "objective",
    "sigmoid",
]
