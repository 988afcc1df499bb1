import math

import numpy as np
import pytest

from ptrisk.errors import ContractError
from ptrisk.models import apply_standardizer, balanced_weights, fit_standardizer


def test_zscore_population_sd():
    X = np.array([[1.0], [2.0], [3.0]])
    params = fit_standardizer(X)
    got = apply_standardizer(params, X)[:, 0]
    expected = math.sqrt(1.5)  # (3-2)/sqrt(2/3)
    assert got == pytest.approx([-expected, 0.0, expected], abs=1e-12)
    assert abs(got.mean()) < 1e-10
    assert abs(got.std() - 1.0) < 1e-10


def test_binary_column_passthrough():
    X = np.array([[0.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
    params = fit_standardizer(X)
    out = apply_standardizer(params, X)
    assert np.array_equal(out[:, 0], X[:, 0])
    assert abs(out[:, 1].mean()) < 1e-10


def test_constant_column_zeros_with_flag():
    X = np.array([[7.0], [7.0], [7.0]])
    params = fit_standardizer(X)
    assert params.zero_variance[0]
    out = apply_standardizer(params, X)
    assert np.array_equal(out[:, 0], np.zeros(3))


def test_refit_on_standardized_data_is_idempotent():
    rng = np.random.default_rng(0)
    X = rng.normal(loc=3.0, scale=2.0, size=(40, 3))
    params = fit_standardizer(X)
    Xs = apply_standardizer(params, X)
    refit = fit_standardizer(Xs)
    assert np.allclose(refit.mean, 0.0, atol=1e-10)
    assert np.allclose(refit.std, 1.0, atol=1e-10)


def test_apply_rejects_column_mismatch():
    params = fit_standardizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ContractError):
        apply_standardizer(params, np.array([[1.0]]))


def test_class_weights_formula():
    y = np.array([1] * 8 + [0] * 2)
    weights = balanced_weights(y)
    assert weights.tolist() == pytest.approx([0.625] * 8 + [2.5] * 2)
    # weighted class masses are equal
    assert weights[y == 1].sum() == pytest.approx(weights[y == 0].sum())


def test_class_weights_symmetry():
    assert balanced_weights(np.array([0, 1, 0, 1])).tolist() == [1.0] * 4
