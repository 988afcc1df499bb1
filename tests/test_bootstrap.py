import math

import numpy as np
import pytest

from ptrisk.evaluation import (
    bootstrap_ci,
    bootstrap_distribution,
    evaluate_oof,
    percentile_linear,
    run_oof,
    stratified_kfold,
)
from ptrisk.models import ModelSpec
from ptrisk.rng import RngKey, substream

from test_evaluation import pairwise_auc, report_of


def naive_threshold_metric(name, y, y_hat):
    tp = int(((y == 1) & (y_hat == 1)).sum())
    tn = int(((y == 0) & (y_hat == 0)).sum())
    fp = int(((y == 0) & (y_hat == 1)).sum())
    fn = int(((y == 1) & (y_hat == 0)).sum())
    if name == "sensitivity":
        return tp / (tp + fn) if tp + fn else None
    if name == "specificity":
        return tn / (tn + fp) if tn + fp else None
    if name == "precision":
        return tp / (tp + fp) if tp + fp else 0.0
    sens = tp / (tp + fn) if tp + fn else None
    if sens is None:
        return None
    prec = tp / (tp + fp) if tp + fp else 0.0
    return 2 * prec * sens / (prec + sens) if prec + sens else 0.0


def naive_quantile(values, q):
    v = sorted(values)
    h = q * (len(v) - 1)
    lo = math.floor(h)
    hi = math.ceil(h)
    return v[lo] + (v[hi] - v[lo]) * (h - lo)


def test_constant_metric_zero_width_ci():
    y = np.array([1, 0, 1, 0, 1, 1])
    p = y.astype(float)  # perfect predictions: F1 constant at 1.0
    low, high, discarded = bootstrap_ci(y, p, "f1", B=200, alpha=0.05, threshold=0.5, rng=substream(7, "bootstrap"))
    assert (low, high) == (1.0, 1.0)
    assert discarded > 0  # some resamples are single-class and undefined


def test_bootstrap_deterministic():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=40)
    p = rng.random(40)
    a = bootstrap_ci(y, p, "auc", B=300, alpha=0.05, threshold=0.5, rng=substream(99, "bootstrap"))
    b = bootstrap_ci(y, p, "auc", B=300, alpha=0.05, threshold=0.5, rng=substream(99, "bootstrap"))
    assert a == b
    c = bootstrap_ci(y, p, "auc", B=300, alpha=0.05, threshold=0.5, rng=substream(100, "bootstrap"))
    assert a != c


def oracle_inputs(case):
    rng = np.random.default_rng(12)
    n = 30
    y = rng.integers(0, 2, size=n)
    y[:3] = [1, 0, 1]
    if case == "uniform":
        p = rng.random(n)
    elif case == "knn_ties":  # scores k/5 of a 5-neighbour vote
        p = rng.integers(0, 6, size=n) / 5.0
    elif case == "at_threshold":
        p = rng.choice([0.25, 0.5, 0.75], size=n)
        p[:2] = 0.5
    elif case == "low_prevalence":  # many resamples draw no positive
        y = np.zeros(n, dtype=np.int64)
        y[[4, 17]] = 1
        p = rng.random(n)
    else:  # n large enough that the resamples are drawn in several chunks
        # at 1489 rows a chunk of 11 resamples draws 16379 32-bit indices,
        # an odd number, so the next chunk starts on a carried half-word
        n = 1000 if case == "chunked" else 1489
        y = rng.integers(0, 2, size=n)
        p = np.round(rng.random(n), 2)
    return y, p


ORACLE_CASES = ("uniform", "knn_ties", "at_threshold", "low_prevalence", "chunked", "odd_chunks")


@pytest.mark.parametrize(
    "metric, case",
    [
        pytest.param(metric, case, id=metric if case == "uniform" else f"{metric}-{case}")
        for case in ORACLE_CASES
        for metric in ("auc", "sensitivity", "specificity", "precision", "f1")
    ],
)
def test_bootstrap_matches_naive_oracle(metric, case):
    y, p = oracle_inputs(case)
    n, B, seed = y.size, 200, 4242

    low, high, discarded = bootstrap_ci(
        y, p, metric, B=B, alpha=0.05, threshold=0.5, rng=substream(seed, "bootstrap")
    )

    # independent replay: same substream, naive metric + naive quantile
    gen = substream(seed, "bootstrap")
    indices = gen.integers(0, n, size=(B, n))
    y_hat = (p >= 0.5).astype(int)
    values = []
    bad = 0
    for idx in indices:
        if metric == "auc":
            value = pairwise_auc(y[idx], p[idx])
        else:
            value = naive_threshold_metric(metric, y[idx], y_hat[idx])
        if value is None:
            bad += 1
        else:
            values.append(value)
    assert discarded == bad
    if case == "low_prevalence" and metric in ("auc", "sensitivity", "f1"):
        assert bad > 0
    assert low == naive_quantile(values, 0.025)
    assert high == naive_quantile(values, 0.975)

    # the point comes from the same count path, every row counted once
    point = report_of(y, p).points[metric]
    naive = pairwise_auc(y, p) if metric == "auc" else naive_threshold_metric(metric, y, y_hat)
    assert point == naive
    assert type(point) is type(naive)


def test_interval_nesting_in_alpha():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, size=50)
    p = rng.random(50)
    values, _ = bootstrap_distribution(y, p, "auc", B=400, rng=substream(5, "bootstrap"), threshold=0.5)
    values.sort()
    wide = (percentile_linear(values, 0.025), percentile_linear(values, 0.975))
    narrow = (percentile_linear(values, 0.05), percentile_linear(values, 0.95))
    assert wide[0] <= narrow[0] <= narrow[1] <= wide[1]


def test_all_resamples_discarded():
    # one positive among three rows: some AUC resamples survive, but a
    # sensitivity bootstrap on an all-negative cohort cannot
    y = np.zeros(5, dtype=int)
    p = np.linspace(0, 1, 5)
    low, high, discarded = bootstrap_ci(y, p, "auc", B=50, alpha=0.05, threshold=0.5, rng=substream(1, "bootstrap"))
    assert (low, high) == (None, None)
    assert discarded == 50


def test_low_never_exceeds_high():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(8, 60))
        y = rng.integers(0, 2, size=n)
        p = rng.random(n)
        low, high, _ = bootstrap_ci(
            y, p, "auc", B=100, alpha=0.05, threshold=0.5, rng=substream(trial, "bootstrap")
        )
        if low is not None:
            assert low <= high


def test_evaluate_oof_produces_full_report():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    folds = stratified_kfold(y, k=5, seed=42)
    p_hat = run_oof(X, y, ModelSpec("DT"), folds, RngKey(42), group_tag="F1")
    report = evaluate_oof(y, p_hat, "DT", "F1", B=100, alpha=0.05, seed=42, threshold=0.5)
    assert report.n == 40
    assert set(report.points) == {"auc", "sensitivity", "specificity", "precision", "f1"}
    for metric, low in report.ci_low.items():
        if low is not None:
            assert low <= report.ci_high[metric]
    # determinism of the full report path
    again = evaluate_oof(y, p_hat, "DT", "F1", B=100, alpha=0.05, seed=42, threshold=0.5)
    assert again == report
