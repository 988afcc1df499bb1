"""Leakage-aware stratified out-of-fold evaluation and uncertainty.

Folds are stratified per class by seeded shuffle + round-robin deal.
For each fold the standardizer and model are fitted on the other folds
only, then applied to the held-out fold; the union of held-out
predictions is the out-of-fold (OOF) set that all metrics are computed
on.  AUC is the tie-aware pairwise probability estimate; threshold
metrics use a fixed cutoff; uncertainty comes from percentile bootstrap
over the OOF pairs.

Both the point AUC and every bootstrap resample are computed from counts:
a metric depends only on how many rows of each kind (confusion cell, or
score tie group and class) a sample holds, so all B resamples of one
metric are reduced to count arrays and evaluated with array operations,
in chunks small enough to keep memory flat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    for f in range(folds.k):
        test = folds.fold_of == f
        train = ~test
        y_train = labels[train]
        if np.unique(y_train).size < 2:
            raise TrainingError(f"degenerate fold {f}: training split has one class")
        pipeline = fit_pipeline(
            spec, X[train], y_train, rng.child("model", spec.kind, "group", group_tag, "fold", f)
        )
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


def _threshold_from_counts(metric: str, counts: np.ndarray) -> np.ndarray:
    """One threshold metric per row of a (b, 4) array of confusion counts
    in code order 2·y + ŷ (tn, fp, fn, tp); NaN where undefined.  Same
    zero-division policy and float operations as ``metrics_from_counts``."""
    tn, fp, fn, tp = counts.T
    nan = np.full(tp.shape, np.nan)
    if metric == "specificity":
        return np.divide(tn, tn + fp, out=nan, where=tn + fp > 0)
    sensitivity = np.divide(tp, tp + fn, out=nan, where=tp + fn > 0)
    if metric == "sensitivity":
        return sensitivity
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.shape), where=tp + fp > 0)
    if metric == "precision":
        return precision
    total = precision + sensitivity
    f1 = np.divide(2.0 * precision * sensitivity, total, out=np.zeros(tp.shape), where=total != 0.0)
    f1[np.isnan(sensitivity)] = np.nan
    return f1


# --- AUC ----------------------------------------------------------------------------

def _auc_codes(y: np.ndarray, p_hat: np.ndarray):
    """Per-row code 2·(tie group of the score) + [y == 1], and the number
    of codes; tie groups are numbered in ascending score order."""
    _, group = np.unique(p_hat, return_inverse=True)
    width = 2 * (int(group.max()) + 1)
    return 2 * group + (y == 1), width


def _auc_from_counts(counts: np.ndarray) -> np.ndarray:
    """AUC per row of a (b, 2G) count array from ``_auc_codes``; NaN where
    a class is absent.

    Twice the Mann–Whitney U is an exact integer: each positive in tie
    group g scores 2 per negative in a lower group and 1 per negative in
    g.  Halving it is exact, so the only rounding is the division by
    n₊n₋ (Hanley & McNeil 1982), and the value equals the pairwise
    definition with ties worth 0.5 bit for bit.
    """
    neg = counts[:, 0::2]
    pos = counts[:, 1::2]
    below = np.cumsum(neg, axis=1) - neg
    twice_u = (pos * (2 * below + neg)).sum(axis=1)
    pairs = pos.sum(axis=1) * neg.sum(axis=1)
    return np.divide(0.5 * twice_u, pairs, out=np.full(pairs.shape, np.nan), where=pairs > 0)


def auc(y: np.ndarray, p_hat: np.ndarray) -> "float | None":
    """Tie-aware pairwise AUC (ties count 0.5); None for single-class input."""
    y = np.asarray(y)
    if y.size == 0:
        return None
    codes, width = _auc_codes(y, np.asarray(p_hat, dtype=float))
    value = _auc_from_counts(np.bincount(codes, minlength=width)[None, :])[0]
    return None if np.isnan(value) else float(value)


# --- bootstrap -----------------------------------------------------------------------

# Index cells (resamples × rows) handled per chunk of the bootstrap: keeps
# the working arrays to a few hundred kB whatever n and B are.
_CHUNK_CELLS = 1 << 14


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


def bootstrap_distribution(
    y: np.ndarray, p_hat: np.ndarray, metric: str, B: int, rng: np.random.Generator, threshold: float = 0.5
):
    """Metric values over B resamples; undefined resamples are discarded
    and counted.  Indices are drawn as one (B, n) block from ``rng``.

    A resample's metric depends only on how often it drew each kind of
    row, so every row gets a code — its confusion cell 2·y + ŷ for a
    threshold metric, (tie group of the score, y) for AUC — and the
    resamples are reduced to their count of each code.  Confusion counts
    give the threshold metrics and cumulative negative counts per tie
    group give AUC (see ``_auc_from_counts``), equal bit for bit to
    evaluating each resample on its own.  The (B, n) block is reduced in
    chunks of max(1, _CHUNK_CELLS // n) resamples, one flat ``bincount``
    per chunk, so the working arrays stay small whatever n and B are; the
    tie groups are found once per call.
    """
    if metric not in ALL_METRICS:
        raise ContractError(f"unknown metric {metric!r}")
    y = np.asarray(y)
    p_hat = np.asarray(p_hat, dtype=float)
    n = y.size
    if n == 0 or B < 1:
        raise ContractError("bootstrap needs a non-empty sample and B >= 1")
    indices = rng.integers(0, n, size=(B, n))
    if metric == "auc":
        codes, width = _auc_codes(y, p_hat)
        from_counts = _auc_from_counts
    else:
        codes, width = 2 * y.astype(bool) + threshold_labels(p_hat, threshold), 4
        from_counts = functools.partial(_threshold_from_counts, metric)
    values = np.empty(B)
    chunk = max(1, _CHUNK_CELLS // n)
    for start in range(0, B, chunk):
        block = codes[indices[start : start + chunk]]
        rows = block.shape[0]
        block += width * np.arange(rows)[:, None]
        counts = np.bincount(block.reshape(-1), minlength=rows * width).reshape(rows, width)
        values[start : start + rows] = from_counts(counts)
    defined = ~np.isnan(values)
    return values[defined], int(B - defined.sum())


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
