"""L2-regularized weighted logistic regression.

Minimizes sum_i w_i * logloss(y_i, sigmoid(x_i.w + b)) + ||w||^2 / (2C)
with an unpenalized intercept, by damped Newton iterations.  They stop
when max|grad| < GRAD_TOL, or when the damped step no longer changes the
parameters in floating point, a fixed point that MAX_ITER more
iterations would only repeat.  Sample
weights are rescaled to mean 1 before optimization so that scaling all
weights by a common constant leaves the fit unchanged (the balanced
class weights already have mean 1, so this is a no-op on the default
path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 1000
GRAD_TOL = 1e-8


def sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1 + e^-z) for z >= 0 and e^z/(1 + e^z) below, from one exp of -|z|
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def objective(theta: np.ndarray, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, C: float):
    """Loss value and gradient at theta = [w..., b]; used by the
    finite-difference gradient check as well as the solver."""
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    # logloss(y, sigmoid(z)) == softplus(z) - y*z, stable for large |z|
    loss = float(np.sum(sample_weight * (np.logaddexp(0.0, z) - y * z)))
    loss += 0.5 / C * float(w @ w)
    r = sample_weight * (sigmoid(z) - y)
    grad = np.empty_like(theta)
    grad[:-1] = X.T @ r + w / C
    grad[-1] = r.sum()
    return loss, grad


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    intercept: float
    converged: bool
    n_iter: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(X, dtype=float) @ self.weights + self.intercept)


def fit_logistic(X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, C: float = 1.0) -> LogisticModel:
    n, p = X.shape
    sw = np.asarray(sample_weight, dtype=float)
    sw = sw / sw.mean()

    theta = np.zeros(p + 1)
    loss, grad = objective(theta, X, y, sw, C)
    n_iter = 0
    converged = False
    for n_iter in range(1, MAX_ITER + 1):
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        w = theta[:-1]
        z = X @ w + theta[-1]
        prob = sigmoid(z)
        d = sw * prob * (1.0 - prob)
        H = np.empty((p + 1, p + 1))
        Xd = X * d[:, None]
        H[:p, :p] = X.T @ Xd + np.eye(p) / C
        H[:p, p] = Xd.sum(axis=0)
        H[p, :p] = H[:p, p]
        H[p, p] = d.sum()
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-10 * np.eye(p + 1), grad)
        # damped Newton: halve until the loss does not increase
        t = 1.0
        for _ in range(60):
            candidate = theta - t * step
            new_loss, new_grad = objective(candidate, X, y, sw, C)
            if new_loss <= loss + 1e-15:
                break
            t *= 0.5
        if np.array_equal(candidate, theta):
            # The accepted step is lost in rounding, so every later iteration
            # would repeat it.  Stop; converged if the decrease a full Newton
            # step predicts, half the Newton decrement g'H^-1 g, is within the
            # rounding of the n-term loss (Boyd & Vandenberghe, Convex
            # Optimization, 9.5.1).
            converged = 0.5 * float(grad @ step) <= n * np.finfo(float).eps * abs(loss)
            break
        theta, loss, grad = candidate, new_loss, new_grad
    else:
        converged = bool(np.max(np.abs(grad)) < GRAD_TOL)

    return LogisticModel(weights=theta[:-1].copy(), intercept=float(theta[-1]), converged=converged, n_iter=n_iter)
