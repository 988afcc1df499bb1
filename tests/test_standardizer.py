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


def per_column_standardizer(X):
    """The per-column loop: the reference the row-wise reductions match."""
    standardized = np.array([not np.isin(X[:, j], (0.0, 1.0)).all() for j in range(X.shape[1])], dtype=bool)
    mean = np.zeros(X.shape[1])
    std = np.zeros(X.shape[1])
    for j in np.nonzero(standardized)[0]:
        mean[j] = X[:, j].mean()
        std[j] = X[:, j].std()
    zero_variance = standardized & (std == 0.0)
    out = X.copy()
    for j in np.nonzero(standardized)[0]:
        out[:, j] = 0.0 if zero_variance[j] else (X[:, j] - mean[j]) / std[j]
    return (mean, std, standardized, zero_variance), out


@pytest.mark.parametrize("n", [1, 2, 7, 93, 130, 1000, 4099])
def test_matches_per_column_loop_bit_for_bit(n):
    # binary (with -0.0), constant, signed-zero and continuous columns, in
    # random order; n spans numpy's 8-way unrolled and pairwise (>128) sums
    rng = np.random.default_rng(n)
    for _ in range(5):
        X = np.column_stack(
            [
                rng.choice([-0.0, 0.0, 1.0], size=n),
                np.full(n, rng.normal()),
                rng.choice([-0.0, 0.0, 2.0], size=n),
                rng.normal(loc=30.0, scale=10.0, size=n),
                rng.normal(scale=1e-3, size=n) + 1e6,
                np.round(rng.normal(size=n), 1),
            ]
        )
        # C order, as a fold's rows are: an axis-0 reduction of it would
        # add row by row, not pairwise
        X = np.ascontiguousarray(X[:, rng.permutation(X.shape[1])])
        params = fit_standardizer(X)
        expected, out = per_column_standardizer(X)
        got = (params.mean, params.std, params.standardized, params.zero_variance)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert apply_standardizer(params, X).tobytes() == out.tobytes()


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
