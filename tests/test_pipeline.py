import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptrisk.errors import ContractError
from ptrisk.models import MODEL_KINDS, ModelSpec, fit_pipeline
from ptrisk.rng import RngKey


def _dataset(seed=0, n=40, p=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, -1] = (X[:, -1] > 0).astype(float)  # one binary column
    y = (X[:, 0] + rng.normal(scale=0.7, size=n) > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def test_spec_rejects_unknown_kind():
    with pytest.raises(ContractError):
        ModelSpec("SVM")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_proba_rejects_column_mismatch(kind):
    X, y = _dataset()
    pipeline = fit_pipeline(ModelSpec(kind), X, y, RngKey(0).child(kind))
    with pytest.raises(ContractError):
        pipeline.predict_proba(X[:, :2])
    with pytest.raises(ContractError):
        pipeline.predict_proba(X[0])


@given(st.integers(0, 2**31 - 1), st.integers(12, 30), st.integers(1, 4))
@settings(max_examples=8, deadline=None)
def test_probability_bounds_all_models(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    X_new = rng.normal(size=(10, p))
    for kind in MODEL_KINDS:
        pipeline = fit_pipeline(ModelSpec(kind), X, y, RngKey(seed).child(kind))
        probs = pipeline.predict_proba(X_new)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def _fitted_state(pipeline) -> list:
    """Every array and scalar a fitted pipeline holds."""
    std = pipeline.standardizer
    state = [std.mean, std.std, std.standardized, std.zero_variance]
    model = pipeline.model
    if pipeline.kind == "LR":
        return state + [model.weights, model.intercept, model.converged, model.n_iter]
    if pipeline.kind == "KNN":
        return state + [model.X, model.y, model.k]
    for tree in model.trees:
        state += [tree.feature, tree.threshold, tree.right, tree.value]
    if pipeline.kind == "GBT":
        state += [model.train_loss]
    return state


def test_refit_is_deterministic():
    X, y = _dataset(seed=9)
    for kind in MODEL_KINDS:
        a = _fitted_state(fit_pipeline(ModelSpec(kind), X, y, RngKey(5).child(kind)))
        b = _fitted_state(fit_pipeline(ModelSpec(kind), X, y, RngKey(5).child(kind)))
        assert len(a) == len(b)
        for left, right in zip(a, b):
            left, right = np.asarray(left), np.asarray(right)
            assert left.dtype == right.dtype and left.shape == right.shape
            assert left.tobytes() == right.tobytes()
