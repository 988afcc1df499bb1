import numpy as np
import pytest

from ptrisk.models import fit_knn


def knn_oracle(X_train, y_train, query, k=7):
    """O(n) scan with the same weighting rules, written independently."""
    dists = [float(np.sqrt(((row - query) ** 2).sum())) for row in X_train]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))[: min(k, len(dists))]
    selected = [(dists[i], y_train[i]) for i in order]
    zeros = [label for d, label in selected if d == 0.0]
    if zeros:
        return sum(zeros) / len(zeros)
    num = sum(label / d for d, label in selected)
    den = sum(1.0 / d for d, _ in selected)
    return num / den


def test_zero_distance_unique_positive():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    y = np.array([1, 0, 0, 0])
    model = fit_knn(X, y, k=3)
    assert model.predict_proba(np.array([[0.0, 0.0]]))[0] == 1.0


def test_zero_distance_group_votes_equally():
    X = np.array([[0.0], [0.0], [0.0], [5.0], [6.0]])
    y = np.array([1, 0, 1, 1, 1])
    model = fit_knn(X, y, k=5)
    # three stored points at distance zero: equal-weight vote 2/3
    assert model.predict_proba(np.array([[0.0]]))[0] == pytest.approx(2.0 / 3.0)


def test_matches_brute_force_oracle_on_planted_fixture():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, size=10)
    model = fit_knn(X, y, k=7)
    queries = rng.normal(size=(25, 3))
    got = model.predict_proba(queries)
    expected = [knn_oracle(X, y, q, k=7) for q in queries]
    assert got == pytest.approx(expected, abs=1e-12)


def test_small_training_set_uses_all_points():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 0, 1])
    model = fit_knn(X, y, k=7)
    probs = model.predict_proba(np.array([[0.5]]))
    assert 0.0 <= probs[0] <= 1.0
    assert probs[0] == pytest.approx(knn_oracle(X, y, np.array([0.5]), k=7))


def per_row_predict(model, X_new):
    """Reference: one query row at a time, neighbours by np.lexsort."""
    k = min(model.k, model.X.shape[0])
    out = np.empty(X_new.shape[0])
    for i, q in enumerate(X_new):
        d = np.sqrt(((model.X - q) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(d.size), d))[:k]
        dist = d[order]
        labels = model.y[order]
        if (dist == 0.0).any():
            out[i] = labels[dist == 0.0].mean()
        else:
            inv = 1.0 / dist
            out[i] = float((inv * labels).sum() / inv.sum())
    return out


@pytest.mark.parametrize("n, p, k", [(5, 1, 7), (40, 3, 7), (300, 10, 7), (500, 22, 9)])
def test_chunked_predictions_match_per_row_loop_bit_for_bit(n, p, k):
    rng = np.random.default_rng(n + p)
    # coarse grid values: many equal distances and exact duplicates of training rows
    X = rng.integers(-2, 3, size=(n, p)).astype(float)
    y = rng.integers(0, 2, size=n)
    model = fit_knn(X, y, k=k)
    queries = np.vstack(
        [X[: min(n, 20)], rng.integers(-2, 3, size=(60, p)).astype(float), rng.normal(size=(60, p))]
    )
    expected = per_row_predict(model, queries)
    assert model.predict_proba(queries).tobytes() == expected.tobytes()
