"""Leakage-aware stratified out-of-fold evaluation and uncertainty.

Folds are stratified per class by seeded shuffle + round-robin deal.
For each fold the standardizer and model are fitted on the other folds
only, then applied to the held-out fold; the union of held-out
predictions is the out-of-fold (OOF) set that all metrics are computed
on.  ``run_oof`` returns it as the array p_hat in row order, and
``evaluate_oof`` takes the labels and p_hat of one (model, group) cell
with the cell's names and the protocol's B, alpha, seed and threshold.
AUC is the tie-aware pairwise probability estimate; threshold
metrics use a fixed cutoff; uncertainty comes from percentile bootstrap
over the OOF pairs.

Each metric has one count path, used for its point and for all B
resamples alike: a metric depends only on how many rows of each code
(confusion cell, or score tie group and class) a sample holds, so
``_metric_codes`` gives every row its code and one reducer per metric
(``_threshold_from_counts`` or ``_auc_from_counts``) evaluates any number
of count vectors.  The point is the whole sample with each row counted
once; the resamples are drawn and reduced to count arrays a chunk of
index cells at a time, so a bootstrap never holds all B·n indices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .models import ModelSpec, fit_pipeline
from .rng import RngKey, substream

THRESHOLD_METRICS = ("sensitivity", "specificity", "precision", "f1")
ALL_METRICS = ("auc",) + THRESHOLD_METRICS


# --- fold assignment ---------------------------------------------------------

@dataclass(frozen=True)
class FoldAssignment:
    fold_of: np.ndarray
    k: int
    warnings: tuple = ()


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> FoldAssignment:
    """Assign each row to one of k folds, stratified per class.

    Within each class the indices are shuffled with the seeded substream
    and dealt round-robin, so per-fold class counts stay within one of
    exact proportionality.  Classes with fewer than k members leave some
    folds without that class; this is flagged, not fatal.  The config
    holds k >= 2, and curation k <= n and at least two rows per class,
    which are therefore dealt to different folds.

    The partition follows the order of ``labels``.  A run passes its rows
    in the canonical order, ascending ``record_id`` (``report._curate``),
    so the folds do not depend on the order of the cohort file's rows.
    """
    labels = np.asarray(labels)
    n = labels.size
    gen = substream(seed, "folds")
    fold_of = np.empty(n, dtype=np.intp)
    warnings = []
    ordered = np.sort(labels)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    for cls in ordered[first]:  # ascending class order
        idx = np.nonzero(labels == cls)[0]
        if idx.size < k:
            warnings.append(f"class {cls} has {idx.size} members for {k} folds")
        shuffled = gen.permutation(idx)
        fold_of[shuffled] = np.arange(idx.size) % k
    return FoldAssignment(fold_of=fold_of, k=k, warnings=tuple(warnings))


# --- out-of-fold predictions ---------------------------------------------------

def run_oof(
    X: np.ndarray,
    labels: np.ndarray,
    spec: ModelSpec,
    folds: FoldAssignment,
    rng: RngKey,
    group_tag: str,
) -> np.ndarray:
    """Cross-fitted probabilities p_hat, one per row: each row predicted
    by the pipeline trained with that row's fold held out.

    ``folds`` deals every row to a fold in 0..k-1, so every row is
    predicted once, and, since curation keeps at least two rows of each
    class, every training split holds both classes.  A fold that holds no
    row (every class smaller than k leaves the top folds empty) is not
    fitted."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n = labels.size
    if folds.fold_of.size != n or X.shape[0] != n:
        raise ContractError("fold assignment does not match the dataset")

    p_hat = np.full(n, np.nan)
    for f in range(folds.k):
        test = folds.fold_of == f
        if test.any():
            train = ~test
            pipeline = fit_pipeline(
                spec, X[train], labels[train], rng.child("model", spec.kind, "group", group_tag, "fold", f)
            )
            p_hat[test] = pipeline.predict_proba(X[test])
    return p_hat


# --- metrics from counts ------------------------------------------------------------

def _threshold_from_counts(metric: str, counts: np.ndarray) -> np.ndarray:
    """One threshold metric per row of a (b, 4) array of confusion counts
    in code order 2·y + ŷ (tn, fp, fn, tp); NaN where undefined.

    Zero-division policy: sensitivity and specificity are undefined when
    their class is absent, and so is F1 when sensitivity is; precision is
    0 when nothing is predicted positive, and F1 is 0 when precision +
    sensitivity is 0.
    """
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


def _auc_from_counts(counts: np.ndarray) -> np.ndarray:
    """AUC per row of a (b, 2G) count array of AUC codes (see
    ``_metric_codes``); NaN where a class is absent.

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


def _metric_codes(metric: str, y: np.ndarray, p_hat: np.ndarray, threshold: float):
    """(codes, width, reducer) of a metric over the rows (y, p_hat).

    A metric depends only on how many rows of each code a sample holds.
    For AUC the code is 2·(tie group of the score) + [y == 1], tie groups
    numbered in ascending score order; for a threshold metric it is the
    confusion cell 2·y + ŷ, where ŷ = [p_hat >= threshold] (a score at
    the threshold is positive).  The reducer maps a (b, width) array of
    per-code counts to b metric values, NaN where undefined.
    """
    if metric == "auc":
        scores, group = np.unique(p_hat, return_inverse=True)
        return 2 * group + (y == 1), 2 * scores.size, _auc_from_counts
    if metric not in THRESHOLD_METRICS:
        raise ContractError(f"unknown metric {metric!r}")
    codes = 2 * y.astype(bool) + (p_hat >= threshold)
    return codes, 4, functools.partial(_threshold_from_counts, metric)


def metric_point(metric: str, y: np.ndarray, p_hat: np.ndarray, threshold: float) -> "float | None":
    """The metric on the whole sample, every row counted once; None where
    undefined (AUC on single-class input, say)."""
    codes, width, reducer = _metric_codes(metric, np.asarray(y), np.asarray(p_hat, dtype=float), threshold)
    value = reducer(np.bincount(codes, minlength=width)[None, :])[0]
    return None if np.isnan(value) else float(value)


# --- bootstrap -----------------------------------------------------------------------

# Index cells (resamples × rows) drawn and reduced per chunk of the
# bootstrap: keeps its working arrays to a few hundred kB whatever B is,
# and whatever n is up to this many rows (past it a chunk is one resample).
_CHUNK_CELLS = 1 << 14


def percentile_linear(sorted_values: np.ndarray, q: float) -> float:
    """Empirical quantile with linear interpolation between order
    statistics: position h = q*(m-1), interpolating v[floor(h)] and
    v[ceil(h)], over m >= 1 values.  This exact formula is part of the
    reproducibility contract."""
    m = len(sorted_values)
    h = q * (m - 1)
    lo = math.floor(h)
    hi = math.ceil(h)
    return float(sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (h - lo))


def bootstrap_distribution(
    y: np.ndarray, p_hat: np.ndarray, metric: str, B: int, rng: np.random.Generator, threshold: float
):
    """Metric values over B resamples; undefined resamples are discarded
    and counted.

    The resamples are taken in chunks of max(1, _CHUNK_CELLS // n): each
    chunk draws its own (rows, n) indices from ``rng`` and is reduced by
    one flat ``bincount``, so no (B, n) block is ever held.  The draws
    join into the one (B, n) block ``rng.integers(0, n, size=(B, n))``
    would give, bit for bit: PCG64 keeps the unused 32-bit half of its
    last 64-bit output in its state for the next call.  Each resample is reduced to
    its count of each code of ``_metric_codes`` and evaluated by the same
    reducer as the point, so a resample's value equals the metric of that
    resample evaluated on its own, bit for bit.  The codes are found once
    per call.  The config holds B >= 1 and curation n >= k >= 2.
    """
    y = np.asarray(y)
    n = y.size
    codes, width, reducer = _metric_codes(metric, y, np.asarray(p_hat, dtype=float), threshold)
    values = np.empty(B)
    chunk = max(1, _CHUNK_CELLS // n)
    for start in range(0, B, chunk):
        rows = min(chunk, B - start)
        block = codes[rng.integers(0, n, size=(rows, n))]
        block += width * np.arange(rows)[:, None]
        counts = np.bincount(block.reshape(-1), minlength=rows * width).reshape(rows, width)
        values[start : start + rows] = reducer(counts)
    defined = ~np.isnan(values)
    return values[defined], int(B - defined.sum())


def bootstrap_ci(
    y: np.ndarray,
    p_hat: np.ndarray,
    metric: str,
    B: int,
    alpha: float,
    threshold: float,
    rng: np.random.Generator,
):
    """Percentile CI (low, high, discarded) for a metric over OOF pairs,
    resampled with the numpy Generator ``rng``."""
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
    n: int
    points: dict  # metric -> float | None
    ci_low: dict
    ci_high: dict
    discarded: dict  # metric -> int
    flags: tuple
    B: int


def evaluate_oof(
    y: np.ndarray,
    p_hat: np.ndarray,
    model_kind: str,
    group_tag: str,
    B: int,
    alpha: float,
    seed: int,
    threshold: float,
) -> MetricReport:
    """Point estimates plus B-resample percentile CIs at level 1 - alpha
    for all five metrics of the out-of-fold pairs (y, p_hat) of one cell.
    Each metric resamples its own substream of ``seed`` keyed by
    (group_tag, model_kind, metric).  The flags name each zero-division
    rule of ``_threshold_from_counts`` that the whole sample triggers."""
    y = np.asarray(y)
    p_hat = np.asarray(p_hat, dtype=float)
    points = {metric: metric_point(metric, y, p_hat, threshold) for metric in ALL_METRICS}
    tn, fp, fn, tp = np.bincount(_metric_codes("f1", y, p_hat, threshold)[0], minlength=4)
    fired = {
        "sensitivity_undefined": tp + fn == 0,
        "specificity_undefined": tn + fp == 0,
        "precision_zero_division": tp + fp == 0,
        "f1_undefined": tp + fn == 0,
        "f1_zero_division": tp == 0 < tp + fn,
    }
    ci_low, ci_high, discarded = {}, {}, {}
    for metric in ALL_METRICS:
        gen = substream(seed, "bootstrap", group_tag, model_kind, metric)
        low, high, bad = bootstrap_ci(y, p_hat, metric, B=B, alpha=alpha, rng=gen, threshold=threshold)
        ci_low[metric], ci_high[metric], discarded[metric] = low, high, bad
    return MetricReport(
        n=y.size,
        points=points,
        ci_low=ci_low,
        ci_high=ci_high,
        discarded=discarded,
        flags=tuple(flag for flag, on in fired.items() if on),
        B=B,
    )
