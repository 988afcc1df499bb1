import numpy as np
import pytest

from ptrisk.cli import main
from ptrisk.models import balanced_weights, fit_logistic, objective
from test_cli import write_ini


def central_difference(theta, X, y, w, C, eps=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (objective(up, X, y, w, C)[0] - objective(dn, X, y, w, C)[0]) / (2 * eps)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 11))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.uniform(0.5, 2.0, size=n)
        theta = rng.normal(scale=0.5, size=p + 1)
        _, analytic = objective(theta, X, y, w, C=1.0)
        numeric = central_difference(theta, X, y, w, C=1.0)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5


def test_separable_1d_ranks_perfectly():
    X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
    y = np.array([0.0] * 10 + [1.0] * 10)
    weights = balanced_weights(y)
    model = fit_logistic(X, y, weights, C=1.0)
    assert model.converged
    assert model.weights[0] > 0
    probs = model.predict_proba(X)
    assert probs[y == 1].min() > probs[y == 0].max()  # in-sample AUC 1.0


def test_convergence_tolerance_met():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + rng.normal(scale=0.8, size=60) > 0).astype(float)
    weights = balanced_weights(y)
    model = fit_logistic(X, y, weights)
    theta = np.append(model.weights, model.intercept)
    sw = weights / weights.mean()
    _, grad = objective(theta, X, y, sw, C=1.0)
    assert np.max(np.abs(grad)) < 1e-8


def test_class_weight_scaling_leaves_fit_unchanged():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 3))
    y = (X[:, 1] > 0.2).astype(float)
    base = balanced_weights(y)
    model_a = fit_logistic(X, y, base)
    model_b = fit_logistic(X, y, base * 37.5)
    assert np.allclose(model_a.weights, model_b.weights, atol=1e-9)
    assert model_a.intercept == pytest.approx(model_b.intercept, abs=1e-9)
    ranks_a = np.argsort(model_a.predict_proba(X))
    ranks_b = np.argsort(model_b.predict_proba(X))
    assert np.array_equal(ranks_a, ranks_b)


def test_newton_fixed_point_stops_converged(tmp_path, monkeypatch):
    # LR on group F2 of a synth cohort with n=1000 and 2% missing cells.
    # In fold 3 (496 x 9) max|grad| is 9.1e-8 after 5 Newton steps; from
    # there the damped step rounds away to nothing, and without the
    # fixed-point stop that step repeated until MAX_ITER with
    # converged=False.
    fits = []

    def recording_fit(*args, **kwargs):
        fits.append(fit_logistic(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr("ptrisk.models.pipeline.fit_logistic", recording_fit)
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        synth={
            "n": "1000",
            "prevalence": "0.80",
            "biomarker_signal": "0.8",
            "reported_signal": "0.5",
            "missing_rate": "0.02",
            "semiquant_rate": "0.1",
            "seed": "20190101",
        },
        protocol={"bootstrap_samples": "1"},
        models={"run": "LR"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    assert [model.converged for model in fits] == [True] * 5
    assert max(model.n_iter for model in fits) <= 50
