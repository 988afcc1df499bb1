import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptrisk import evaluation
from ptrisk.evaluation import (
    evaluate_oof,
    metric_point,
    run_oof,
    stratified_kfold,
)
from ptrisk.errors import ContractError
from ptrisk.models import MODEL_KINDS, ModelSpec, fit_pipeline
from ptrisk.rng import RngKey


def pairwise_auc(y, p):
    """O(n^2) oracle: mean over all (pos, neg) pairs, ties worth 0.5."""
    y = np.asarray(y)
    p = np.asarray(p, dtype=float)
    pos = p[y == 1]
    neg = p[y == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).astype(float)
    ties = (pos[:, None] == neg[None, :]).astype(float)
    return float((wins + 0.5 * ties).sum() / (pos.size * neg.size))


# --- stratified folds -----------------------------------------------------------

def fold_class_counts(labels, assignment):
    counts = {}
    for cls in np.unique(labels):
        counts[cls] = [
            int(((assignment.fold_of == f) & (labels == cls)).sum())
            for f in range(assignment.k)
        ]
    return counts


def test_folds_exact_divisibility():
    labels = np.array([1] * 10 + [0] * 5)
    counts = fold_class_counts(labels, stratified_kfold(labels, k=5, seed=42))
    assert counts[1] == [2, 2, 2, 2, 2]
    assert counts[0] == [1, 1, 1, 1, 1]


def test_folds_paper_scale_counts():
    labels = np.array([1] * 74 + [0] * 19)
    counts = fold_class_counts(labels, stratified_kfold(labels, k=5, seed=42))
    assert sorted(counts[1]) == [14, 15, 15, 15, 15]
    assert sorted(counts[0]) == [3, 4, 4, 4, 4]


def test_folds_deterministic():
    labels = np.array([0, 1] * 20)
    a = stratified_kfold(labels, k=5, seed=42)
    b = stratified_kfold(labels, k=5, seed=42)
    assert np.array_equal(a.fold_of, b.fold_of)


def test_folds_seed_sensitivity():
    labels = np.array([0, 1] * 15)
    assignments = {tuple(stratified_kfold(labels, 5, seed).fold_of) for seed in range(20)}
    assert len(assignments) >= 19


def test_folds_small_class_flagged():
    labels = np.array([1] * 20 + [0] * 3)
    assignment = stratified_kfold(labels, k=5, seed=1)
    assert any("class 0" in w for w in assignment.warnings)


def test_folds_deal_classes_in_ascending_order():
    # each class draws its shuffle from the one substream in ascending
    # class order, so that order fixes the assignment and the warnings
    labels = np.array([2, 1, 0, 2, 1, 1, 1, 2, 1, 0])
    assignment = stratified_kfold(labels, k=4, seed=3)
    assert assignment.fold_of.tolist() == [0, 0, 0, 1, 3, 1, 2, 2, 0, 1]
    assert assignment.warnings == (
        "class 0 has 2 members for 4 folds",
        "class 2 has 3 members for 4 folds",
    )


@given(
    st.integers(20, 300),
    st.floats(0.1, 0.9),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_folds_balance_within_one(n, prevalence, seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < prevalence).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assignment = stratified_kfold(labels, k=5, seed=seed)
    for cls, counts in fold_class_counts(labels, assignment).items():
        ideal = (labels == cls).sum() / 5
        assert all(abs(c - ideal) <= 1.0 for c in counts)


# --- run_oof -------------------------------------------------------------------------

def _fixture_dataset(n=15, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def test_oof_complete_and_fold_consistent():
    X, y = _fixture_dataset(15)
    folds = stratified_kfold(y, k=5, seed=42)
    p_hat = run_oof(X, y, ModelSpec("LR"), folds, RngKey(42), group_tag="F1")
    assert p_hat.shape == (15,) and p_hat.dtype == float
    # each row is predicted by the pipeline fitted with its own fold held out
    for f in range(folds.k):
        test = folds.fold_of == f
        pipeline = fit_pipeline(
            ModelSpec("LR"), X[~test], y[~test], RngKey(42).child("model", "LR", "group", "F1", "fold", f)
        )
        assert p_hat[test].tobytes() == pipeline.predict_proba(X[test]).tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_oof_fits_only_folds_that_hold_rows(kind, monkeypatch):
    # three rows per class for five folds: folds 3 and 4 hold no row
    X, _ = _fixture_dataset(6)
    y = np.array([0, 0, 0, 1, 1, 1])
    folds = stratified_kfold(y, 5, seed=42)
    fitted = []

    def counting_fit(spec, X, y, rng):
        fitted.append(rng.path[-1])
        return fit_pipeline(spec, X, y, rng)

    monkeypatch.setattr(evaluation, "fit_pipeline", counting_fit)
    p_hat = run_oof(X, y, ModelSpec(kind), folds, RngKey(42), group_tag="F1")
    held = [f for f in range(folds.k) if (folds.fold_of == f).any()]
    assert fitted == held == [0, 1, 2]
    assert not np.isnan(p_hat).any()
    for f in held:
        test = folds.fold_of == f
        pipeline = fit_pipeline(
            ModelSpec(kind), X[~test], y[~test], RngKey(42).child("model", kind, "group", "F1", "fold", f)
        )
        assert p_hat[test].tobytes() == pipeline.predict_proba(X[test]).tobytes()


def test_oof_leakage_guard():
    # Fold 0's predictions must come from a pipeline fitted on the other
    # folds alone: shifting the held-out rows must not reach the fit.
    X, y = _fixture_dataset(30, seed=2)
    folds = stratified_kfold(y, k=5, seed=42)
    test_rows = folds.fold_of == 0
    perturbed = X.copy()
    perturbed[test_rows] += 1000.0
    for kind in MODEL_KINDS:
        shifted = run_oof(perturbed, y, ModelSpec(kind), folds, RngKey(42), group_tag="F1")
        alone = fit_pipeline(
            ModelSpec(kind),
            X[~test_rows],
            y[~test_rows],
            RngKey(42).child("model", kind, "group", "F1", "fold", 0),
        )
        expected = alone.predict_proba(perturbed[test_rows])
        assert shifted[test_rows].tobytes() == expected.tobytes()


def test_oof_recovers_planted_signal():
    # three shifted columns plus noise; far stronger than chance
    rng = np.random.default_rng(10)
    n = 300
    y = np.array([0, 1] * (n // 2))
    shift = 1.5
    X = rng.normal(size=(n, 6))
    X[:, :3] += shift * y[:, None]
    folds = stratified_kfold(y, k=5, seed=42)
    p_hat = run_oof(X, y, ModelSpec("RF"), folds, RngKey(42), group_tag="F2")
    assert metric_point("auc", y, p_hat, threshold=0.5) >= 0.85


# --- threshold metrics -------------------------------------------------------------------

def report_of(y, p_hat, threshold=0.5):
    return evaluate_oof(y, p_hat, "LR", "F1", B=20, alpha=0.05, seed=1, threshold=threshold)


def test_unknown_metric_is_refused():
    # without the check, a name that is no threshold metric would fall
    # through _threshold_from_counts to F1
    y, p = np.array([1, 0]), np.array([0.9, 0.1])
    with pytest.raises(ContractError, match="unknown metric 'accuracy'"):
        metric_point("accuracy", y, p, threshold=0.5)


def test_threshold_boundary_inclusive():
    # a score equal to the threshold is predicted positive
    y = np.array([1, 1, 0, 0])
    p = np.array([0.5, 0.2, 0.5, 0.1])
    assert metric_point("sensitivity", y, p, threshold=0.5) == 0.5
    assert metric_point("specificity", y, p, threshold=0.5) == 0.5
    assert metric_point("sensitivity", y, p, threshold=0.2) == 1.0
    assert metric_point("specificity", y, p, threshold=0.6) == 1.0


def test_confusion_and_metrics_half():
    report = report_of([1, 1, 0, 0], [0.9, 0.1, 0.8, 0.2])
    points = {m: report.points[m] for m in ("sensitivity", "specificity", "precision", "f1")}
    assert points == {"sensitivity": 0.5, "specificity": 0.5, "precision": 0.5, "f1": 0.5}
    assert report.flags == ()


def test_metrics_perfect_prediction():
    y = np.array([1, 0, 1, 0, 1])
    report = report_of(y, y)
    assert [report.points[m] for m in ("auc", "sensitivity", "specificity", "precision", "f1")] == [1.0] * 5


def test_metrics_zero_division_policy():
    report = report_of([1, 1, 0], [0.1, 0.2, 0.3])
    assert report.points["precision"] == 0.0
    assert report.points["f1"] == 0.0
    assert report.flags == ("precision_zero_division", "f1_zero_division")


def test_metrics_undefined_when_class_absent():
    report = report_of(np.zeros(4), [0.9, 0.1, 0.9, 0.1])
    assert report.points["sensitivity"] is None
    assert report.points["f1"] is None
    assert report.points["auc"] is None
    assert report.points["specificity"] == 0.5
    assert report.flags == ("sensitivity_undefined", "f1_undefined")


# --- AUC ---------------------------------------------------------------------------------

def test_auc_worked_example():
    y, p = np.array([0, 0, 1, 1]), np.array([0.1, 0.4, 0.35, 0.8])
    assert metric_point("auc", y, p, threshold=0.5) == 0.75


def test_auc_all_ties_and_perfect():
    y = np.array([0, 1, 0, 1])
    assert metric_point("auc", y, np.full(4, 0.3), threshold=0.5) == 0.5
    assert metric_point("auc", y, np.array([0.1, 0.9, 0.2, 0.8]), threshold=0.5) == 1.0


def test_auc_single_class_undefined():
    assert metric_point("auc", np.ones(4), np.linspace(0, 1, 4), threshold=0.5) is None


@given(st.integers(2, 200), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_auc_equals_pairwise_oracle(n, seed, heavy_ties):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    if heavy_ties:
        p = rng.integers(0, 4, size=n) / 4.0
    else:
        p = rng.random(n)
    expected = pairwise_auc(y, p)
    got = metric_point("auc", y, p, threshold=0.5)
    if expected is None:
        assert got is None
    else:
        assert got == expected


@given(st.integers(4, 80), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_auc_invariant_under_monotone_transform(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    p = rng.random(n)
    value = metric_point("auc", y, p, threshold=0.5)
    assert value == metric_point("auc", y, 0.1 + 0.5 * p, threshold=0.5)  # strictly increasing affine map
    assert value == pytest.approx(metric_point("auc", y, np.exp(p), threshold=0.5), abs=1e-12)
