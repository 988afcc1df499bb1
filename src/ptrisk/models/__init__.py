from .boosting import BoostedModel, fit_boosted
from .forest import ForestModel, fit_forest
from .knn import KnnModel, fit_knn
from .logistic import LogisticModel, fit_logistic, objective, sigmoid
from .pipeline import (
    MODEL_KINDS,
    ClassWeights,
    DecisionTreeModel,
    FittedPipeline,
    ModelSpec,
    compute_class_weights,
    fit_model,
    fit_pipeline,
)
from .standardizer import StandardizerParams, apply_standardizer, fit_standardizer
from .tree import FrozenTree, build_classification_tree

__all__ = [
    "MODEL_KINDS",
    "BoostedModel",
    "ClassWeights",
    "DecisionTreeModel",
    "FittedPipeline",
    "ForestModel",
    "FrozenTree",
    "KnnModel",
    "LogisticModel",
    "ModelSpec",
    "StandardizerParams",
    "apply_standardizer",
    "build_classification_tree",
    "compute_class_weights",
    "fit_boosted",
    "fit_forest",
    "fit_knn",
    "fit_logistic",
    "fit_model",
    "fit_pipeline",
    "fit_standardizer",
    "objective",
    "sigmoid",
]
