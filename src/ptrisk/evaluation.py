"""Leakage-aware stratified out-of-fold evaluation and uncertainty.

Folds are stratified per class by seeded shuffle + round-robin deal.
For each fold the standardizer and model are fitted on the other folds
only, then applied to the held-out fold; the union of held-out
predictions is the out-of-fold (OOF) set that all metrics are computed
on.  AUC is the tie-aware pairwise probability estimate; threshold
metrics use a fixed cutoff; uncertainty comes from percentile bootstrap
over the OOF pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, TrainingError
from .models import ModelSpec, fit_pipeline
from .rng import RngKey, substream

THRESHOLD_METRICS = ("sensitivity", "specificity", "precision", "f1")
ALL_METRICS = ("auc",) + THRESHOLD_METRICS


# --- fold assignment ---------------------------------------------------------

@dataclass(frozen=True)
class FoldAssignment:
    fold_of: np.ndarray
    k: int
    seed: int
    warnings: tuple = ()


def stratified_kfold(labels: np.ndarray, k: int = 5, seed: int = 42) -> FoldAssignment:
    """Assign each row to one of k folds, stratified per class.

    Within each class the indices are shuffled with the seeded substream
    and dealt round-robin, so per-fold class counts stay within one of
    exact proportionality.  Classes with fewer than k members leave some
    folds without that class; this is flagged, not fatal.
    """
    labels = np.asarray(labels)
    n = labels.size
    if k < 2:
        raise ContractError("k must be at least 2")
    if k > n:
        raise ContractError(f"k={k} exceeds the number of rows ({n})")
    gen = substream(seed, "folds")
    fold_of = np.empty(n, dtype=np.intp)
    warnings = []
    for cls in np.unique(labels):  # ascending class order
        idx = np.nonzero(labels == cls)[0]
        if idx.size < k:
            warnings.append(f"class {cls} has {idx.size} members for {k} folds")
        shuffled = gen.permutation(idx)
        fold_of[shuffled] = np.arange(idx.size) % k
    return FoldAssignment(fold_of=fold_of, k=k, seed=seed, warnings=tuple(warnings))


# --- out-of-fold predictions ---------------------------------------------------

@dataclass
class OofPredictions:
    record_ids: list
    y: np.ndarray
    p_hat: np.ndarray
    fold: np.ndarray
    model_kind: str
    group_tag: str
    fold_pipelines: list = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.record_ids)


def run_oof(
    X: np.ndarray,
    labels: np.ndarray,
    spec: ModelSpec,
    folds: FoldAssignment,
    rng: RngKey,
    record_ids=None,
    group_tag: str = "",
) -> OofPredictions:
    """Cross-fitted probabilities: each row predicted by the pipeline
    trained with that row's fold held out."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n = labels.size
    if folds.fold_of.size != n or X.shape[0] != n:
        raise ContractError("fold assignment does not match the dataset")
    if record_ids is None:
        record_ids = [str(i) for i in range(n)]

    p_hat = np.full(n, np.nan)
    pipelines = []
    for f in range(folds.k):
        test = folds.fold_of == f
        train = ~test
        y_train = labels[train]
        if np.unique(y_train).size < 2:
            raise TrainingError(f"degenerate fold {f}: training split has one class")
        pipeline = fit_pipeline(
            spec, X[train], y_train, rng.child("model", spec.kind, "group", group_tag, "fold", f)
        )
        pipelines.append(pipeline)
        if test.any():
            p_hat[test] = pipeline.predict_proba(X[test])

    unpredicted = int(np.isnan(p_hat).sum())
    if unpredicted:
        raise ContractError(
            f"{unpredicted} rows have no out-of-fold prediction; folds must lie in 0..{folds.k - 1}"
        )
    return OofPredictions(
        record_ids=list(record_ids),
        y=labels.copy(),
        p_hat=p_hat,
        fold=folds.fold_of.copy(),
        model_kind=spec.kind,
        group_tag=group_tag,
        fold_pipelines=pipelines,
    )


# --- threshold metrics -----------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class ThresholdMetrics:
    sensitivity: "float | None"
    specificity: "float | None"
    precision: float
    f1: "float | None"
    flags: tuple = ()


def threshold_labels(p_hat: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Binary labels with an inclusive boundary: p == threshold maps to 1."""
    return (np.asarray(p_hat) >= threshold).astype(np.int64)


def confusion(y: np.ndarray, y_hat: np.ndarray) -> ConfusionCounts:
    y = np.asarray(y).astype(bool)
    y_hat = np.asarray(y_hat).astype(bool)
    if y.shape != y_hat.shape:
        raise ContractError("label vectors differ in length")
    return ConfusionCounts(
        tp=int((y & y_hat).sum()),
        tn=int((~y & ~y_hat).sum()),
        fp=int((~y & y_hat).sum()),
        fn=int((y & ~y_hat).sum()),
    )


def metrics_from_counts(counts: ConfusionCounts) -> ThresholdMetrics:
    """Sensitivity/specificity/precision/F1 with the documented
    zero-division policy: precision is 0 (flagged) when nothing is
    predicted positive; F1 is 0 (flagged) when precision + sensitivity
    is 0; sensitivity/specificity are undefined (None) when their class
    is absent, as is F1 then."""
    flags = []
    if counts.tp + counts.fn > 0:
        sensitivity = counts.tp / (counts.tp + counts.fn)
    else:
        sensitivity = None
        flags.append("sensitivity_undefined")
    if counts.tn + counts.fp > 0:
        specificity = counts.tn / (counts.tn + counts.fp)
    else:
        specificity = None
        flags.append("specificity_undefined")
    if counts.tp + counts.fp > 0:
        precision = counts.tp / (counts.tp + counts.fp)
    else:
        precision = 0.0
        flags.append("precision_zero_division")
    if sensitivity is None:
        f1 = None
        flags.append("f1_undefined")
    elif precision + sensitivity == 0.0:
        f1 = 0.0
        flags.append("f1_zero_division")
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return ThresholdMetrics(sensitivity, specificity, precision, f1, tuple(flags))


# --- AUC ----------------------------------------------------------------------------

def auc(y: np.ndarray, p_hat: np.ndarray) -> "float | None":
    """Tie-aware pairwise AUC via midranks; None for single-class input.

    Equal to the pairwise definition (ties count 0.5) exactly: the
    midrank sum is an exact multiple of 0.5 and the final division is
    the same operation the pairwise count would perform.
    """
    y = np.asarray(y)
    p = np.asarray(p_hat, dtype=float)
    n_pos = int((y == 1).sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(p, kind="stable")
    ranks = np.empty(y.size, dtype=float)
    sorted_p = p[order]
    i = 0
    while i < y.size:
        j = i
        while j + 1 < y.size and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[y == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


# --- bootstrap -----------------------------------------------------------------------

def percentile_linear(sorted_values: np.ndarray, q: float) -> float:
    """Empirical quantile with linear interpolation between order
    statistics: position h = q*(m-1), interpolating v[floor(h)] and
    v[ceil(h)].  This exact formula is part of the reproducibility
    contract."""
    m = len(sorted_values)
    if m == 0:
        raise ContractError("quantile of empty list")
    h = q * (m - 1)
    lo = math.floor(h)
    hi = math.ceil(h)
    return float(sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (h - lo))


def _metric_value(name: str, y, p_hat, y_hat) -> "float | None":
    if name == "auc":
        return auc(y, p_hat)
    tm = metrics_from_counts(confusion(y, y_hat))
    return getattr(tm, name)


def bootstrap_distribution(
    y: np.ndarray, p_hat: np.ndarray, metric: str, B: int, rng: np.random.Generator, threshold: float = 0.5
):
    """Metric values over B resamples; undefined resamples are discarded
    and counted.  Indices are drawn as one (B, n) block from ``rng``."""
    if metric not in ALL_METRICS:
        raise ContractError(f"unknown metric {metric!r}")
    y = np.asarray(y)
    p_hat = np.asarray(p_hat, dtype=float)
    n = y.size
    if n == 0 or B < 1:
        raise ContractError("bootstrap needs a non-empty sample and B >= 1")
    y_hat = threshold_labels(p_hat, threshold)
    indices = rng.integers(0, n, size=(B, n))
    values = []
    discarded = 0
    for b in range(B):
        idx = indices[b]
        value = _metric_value(metric, y[idx], p_hat[idx], y_hat[idx])
        if value is None:
            discarded += 1
        else:
            values.append(value)
    return np.asarray(values, dtype=float), discarded


def bootstrap_ci(
    y: np.ndarray,
    p_hat: np.ndarray,
    metric: str,
    B: int = 1000,
    alpha: float = 0.05,
    rng=None,
    threshold: float = 0.5,
):
    """Percentile CI (low, high, discarded) for a metric over OOF pairs.

    ``rng`` is an integer seed (a dedicated "bootstrap" substream is
    derived from it) or a ready numpy Generator.
    """
    if isinstance(rng, (int, np.integer)):
        rng = substream(int(rng), "bootstrap")
    elif rng is None:
        raise ContractError("bootstrap_ci needs a seed or Generator")
    values, discarded = bootstrap_distribution(y, p_hat, metric, B, rng, threshold)
    if values.size == 0:
        return None, None, discarded
    values.sort()
    low = percentile_linear(values, alpha / 2.0)
    high = percentile_linear(values, 1.0 - alpha / 2.0)
    return low, high, discarded


# --- per-(model, group) report --------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    model_kind: str
    group_tag: str
    n: int
    points: dict  # metric -> float | None
    ci_low: dict
    ci_high: dict
    discarded: dict  # metric -> int
    flags: tuple
    B: int
    alpha: float
    seed: int
    threshold: float


def evaluate_oof(
    oof: OofPredictions,
    B: int = 1000,
    alpha: float = 0.05,
    seed: int = 42,
    threshold: float = 0.5,
) -> MetricReport:
    """Point estimates plus bootstrap CIs for all five metrics; each
    metric gets its own substream keyed by (group, model, metric)."""
    y = oof.y
    p_hat = oof.p_hat
    y_hat = threshold_labels(p_hat, threshold)
    tm = metrics_from_counts(confusion(y, y_hat))
    points = {
        "auc": auc(y, p_hat),
        "sensitivity": tm.sensitivity,
        "specificity": tm.specificity,
        "precision": tm.precision,
        "f1": tm.f1,
    }
    ci_low, ci_high, discarded = {}, {}, {}
    for metric in ALL_METRICS:
        gen = substream(seed, "bootstrap", oof.group_tag, oof.model_kind, metric)
        low, high, bad = bootstrap_ci(y, p_hat, metric, B=B, alpha=alpha, rng=gen, threshold=threshold)
        ci_low[metric], ci_high[metric], discarded[metric] = low, high, bad
    return MetricReport(
        model_kind=oof.model_kind,
        group_tag=oof.group_tag,
        n=len(oof),
        points=points,
        ci_low=ci_low,
        ci_high=ci_high,
        discarded=discarded,
        flags=tm.flags,
        B=B,
        alpha=alpha,
        seed=seed,
        threshold=threshold,
    )
