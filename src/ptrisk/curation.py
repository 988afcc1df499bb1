"""Rule-based feature engineering: encode parsed records into aligned
numeric matrices for the three feature groups.  The encoded table holds
exactly the features the groups name, F1 then F2.

Missing values are represented as NaN and are never imputed; rows that
miss any value in the combined feature set are dropped, so F1, F2 and
the combined group share one row identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CurationError
from .parsers import PcrResult, parse_semiquant

DEFAULT_F1_FEATURES = (
    "gender",
    "age",
    "new_sexual_partner",
    "recent_unprotected_intercourse",
    "unprotected_new_partner_12m",
    "prior_std",
    "recent_painkiller_use",
    "chronic_disease",
    "dysuria",
    "abnormal_discharge",
    "intermenstrual_bleeding",
    "genital_irritation",
    "urinary_urgency",
)

DEFAULT_F2_FEATURES = (
    "leukocytes",
    "bilirubin",
    "protein",
    "specific_gravity",
    "ph",
    "ascorbic_acid",
    "microalbumin",
    "calcium",
    "creatinine",
)

GROUP_TAGS = ("F1", "F2", "F3")

DEFAULT_BINARY_TRUE = frozenset({"yes", "y", "true", "1", "pos", "positive"})
DEFAULT_BINARY_FALSE = frozenset({"no", "n", "false", "0", "neg", "negative"})
DEFAULT_GENDER_MAP = {"male": 1.0, "m": 1.0, "female": 0.0, "f": 0.0}

# [lo, hi) years binned by age_histogram; ages outside are only counted.
AGE_RANGE = (0, 120)


@dataclass(frozen=True)
class FeatureGroups:
    """Feature names per group; the combined group is the concatenation."""

    f1: tuple = DEFAULT_F1_FEATURES
    f2: tuple = DEFAULT_F2_FEATURES

    def __post_init__(self):
        overlap = set(self.f1) & set(self.f2)
        if overlap:
            raise CurationError(f"feature groups overlap: {sorted(overlap)}")

    @property
    def f3(self) -> tuple:
        return tuple(self.f1) + tuple(self.f2)

    def names(self, tag: str) -> tuple:
        return {"F1": tuple(self.f1), "F2": tuple(self.f2), "F3": self.f3}[tag]

    def with_proxies(self, rules) -> "FeatureGroups":
        """The groups as ``aggregate_proxies`` leaves the table: in each
        group's list a rule's target takes the place of the first of its
        sources and the other sources go, so the proxy column is used
        where its sources were.  A rule whose sources are split between
        F1 and F2 has no group to go to and is an error."""
        f1, f2 = tuple(self.f1), tuple(self.f2)
        for target, sources in rules:
            if set(sources) & set(f1) and set(sources) & set(f2):
                raise CurationError(
                    f"proxy rule {target}:{'+'.join(sources)} takes sources from both F1 and F2"
                )
            f1, f2 = _with_proxy(f1, target, sources), _with_proxy(f2, target, sources)
        return FeatureGroups(f1=f1, f2=f2)


def _with_proxy(names: tuple, target: str, sources) -> tuple:
    kept = []
    for name in names:
        name = target if name in sources else name
        if name != target or target not in kept:
            kept.append(name)
    return tuple(kept)


@dataclass(frozen=True)
class CurationSettings:
    binary_true: frozenset = DEFAULT_BINARY_TRUE
    binary_false: frozenset = DEFAULT_BINARY_FALSE
    gender_map: dict = field(default_factory=lambda: dict(DEFAULT_GENDER_MAP))
    max_missing_fraction: float = 0.30
    drop_zero_variance: bool = True
    blocklist: tuple = ()
    proxy_rules: tuple = ()  # of (target_name, (source, ...)) pairs
    age_bin_width: int = 5


@dataclass
class FeatureTable:
    """Column-named numeric table; NaN is the missing marker."""

    columns: list
    data: np.ndarray  # shape (n_rows, n_columns), float64
    row_ids: list

    def __post_init__(self):
        if self.data.shape != (len(self.row_ids), len(self.columns)):
            raise CurationError("feature table shape mismatch")

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def copy(self) -> "FeatureTable":
        return FeatureTable(list(self.columns), self.data.copy(), list(self.row_ids))


@dataclass
class CuratedDataset:
    row_ids: list
    labels: np.ndarray  # 0/1 ints
    matrices: dict  # tag -> np.ndarray
    feature_names: dict  # tag -> tuple of names
    dropped_features: dict  # tag -> list of (name, reason)
    dropped_rows: list  # (record_id, reason)

    @property
    def n(self) -> int:
        return len(self.row_ids)


def _parse_binary(raw: str, true_set, false_set) -> float:
    norm = (raw or "").strip().lower()
    if not norm:
        return np.nan
    if norm in true_set:
        return 1.0
    if norm in false_set:
        return 0.0
    return np.nan


def encode_features(
    records: list,
    groups: FeatureGroups = FeatureGroups(),
    settings: CurationSettings = CurationSettings(),
) -> FeatureTable:
    """Encode QC-filtered records into a numeric table with missing markers.

    The columns are the F1 features, then the F2 features.  F1 fields are
    binary-encoded (gender via the configured map, age numeric), and F2
    biomarkers go through the semi-quantitative parser.  Unknown
    categorical levels become missing, never errors.
    """
    columns = list(groups.f1) + list(groups.f2)
    data = np.full((len(records), len(columns)), np.nan)
    for i, record in enumerate(records):
        values = []
        for name in groups.f1:
            raw = record.questionnaire.get(name, "")
            if name == "gender":
                values.append(settings.gender_map.get((raw or "").strip().lower(), np.nan))
            elif name == "age":
                values.append(parse_semiquant(raw))
            else:
                values.append(_parse_binary(raw, settings.binary_true, settings.binary_false))
        for name in groups.f2:
            values.append(parse_semiquant(record.biomarkers_raw.get(name, "")))
        data[i] = values

    return FeatureTable(columns, data, [r.record_id for r in records])


def labels_from_records(records: list) -> np.ndarray:
    """0/1 label vector (1 = PCR positive); records must be QC-filtered."""
    labels = []
    for record in records:
        if record.pcr_result is PcrResult.invalid:
            raise CurationError(f"record {record.record_id} has invalid PCR label")
        labels.append(1 if record.pcr_result is PcrResult.positive else 0)
    return np.asarray(labels, dtype=np.int64)


def aggregate_proxies(table: FeatureTable, rules) -> FeatureTable:
    """Collapse groups of binary indicator columns into OR-proxy columns.

    The proxy is the logical OR of the non-missing sources and is missing
    only when every source is missing; source columns are removed.
    """
    if not rules:
        return table
    out = table.copy()
    for target, sources in rules:
        idx = []
        for name in sources:
            if name not in out.columns:
                raise CurationError(f"proxy source column not found: {name}")
            col = out.column(name)
            finite = col[~np.isnan(col)]
            if finite.size and not np.isin(finite, (0.0, 1.0)).all():
                raise CurationError(f"proxy source column not binary: {name}")
            idx.append(out.columns.index(name))
        block = out.data[:, idx]
        any_one = np.nansum(np.where(np.isnan(block), 0.0, block), axis=1) > 0
        all_missing = np.isnan(block).all(axis=1)
        proxy = np.where(all_missing, np.nan, any_one.astype(float))
        keep = [j for j in range(len(out.columns)) if j not in set(idx)]
        out.data = np.column_stack([out.data[:, keep], proxy])
        out.columns = [out.columns[j] for j in keep] + [target]
    return out


def exclude_features(
    table: FeatureTable,
    max_missing_fraction: float = 0.30,
    drop_zero_variance: bool = True,
    blocklist=(),
):
    """Drop blocklisted, zero-variance, and overly missing columns.

    Returns (reduced table, [(name, reason), ...]); reasons are recorded
    verbatim in the curation report.
    """
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise CurationError("max_missing_fraction must be within [0, 1]")
    blocked = set(blocklist)
    dropped = []
    keep = []
    n = len(table.row_ids)
    for j, name in enumerate(table.columns):
        col = table.data[:, j]
        if name in blocked:
            dropped.append((name, "blocklisted"))
            continue
        missing = float(np.isnan(col).sum()) / n if n else 0.0
        if missing > max_missing_fraction:
            dropped.append((name, f"missingness {missing:.2f} > {max_missing_fraction:.2f}"))
            continue
        if drop_zero_variance and np.unique(col[~np.isnan(col)]).size <= 1:
            dropped.append((name, "zero variance"))
            continue
        keep.append(j)
    reduced = FeatureTable(
        [table.columns[j] for j in keep], table.data[:, keep].copy(), list(table.row_ids)
    )
    return reduced, dropped


def assemble(
    table: FeatureTable,
    labels: np.ndarray,
    groups: FeatureGroups = FeatureGroups(),
    dropped_features=(),
) -> CuratedDataset:
    """Drop rows with missing values in the combined feature set and cut
    the three row-aligned matrices."""
    if len(labels) != len(table.row_ids):
        raise CurationError("labels length does not match table rows")

    effective = {
        "F1": [n for n in groups.f1 if n in table.columns],
        "F2": [n for n in groups.f2 if n in table.columns],
    }
    effective["F3"] = effective["F1"] + effective["F2"]
    if not effective["F3"]:
        raise CurationError("no group features left after exclusions")

    f3_idx = [table.columns.index(n) for n in effective["F3"]]
    f3_block = table.data[:, f3_idx]
    row_missing = np.isnan(f3_block).any(axis=1)

    dropped_rows = []
    for i in np.nonzero(row_missing)[0]:
        missing_names = [effective["F3"][k] for k in np.nonzero(np.isnan(f3_block[i]))[0]]
        dropped_rows.append((table.row_ids[i], f"missing: {', '.join(missing_names)}"))

    keep = ~row_missing
    if not keep.any():
        raise CurationError("no rows survive the combined missing-value filter")

    matrices = {}
    for tag in ("F1", "F2", "F3"):
        idx = [table.columns.index(n) for n in effective[tag]]
        matrices[tag] = table.data[np.ix_(keep, idx)].copy()

    by_tag = {
        "F1": [(n, r) for n, r in dropped_features if n in groups.f1],
        "F2": [(n, r) for n, r in dropped_features if n in groups.f2],
    }
    by_tag["F3"] = by_tag["F1"] + by_tag["F2"]

    return CuratedDataset(
        row_ids=[rid for rid, k in zip(table.row_ids, keep) if k],
        labels=np.asarray(labels)[keep].astype(np.int64),
        matrices=matrices,
        feature_names={tag: tuple(effective[tag]) for tag in GROUP_TAGS},
        dropped_features=by_tag,
        dropped_rows=dropped_rows,
    )


def cohort_summary(ds: CuratedDataset, settings: CurationSettings = CurationSettings()) -> dict:
    """n, prevalence, gender counts and an age histogram for reporting."""
    summary = {
        "n": ds.n,
        "prevalence": float(np.mean(ds.labels)) if ds.n else 0.0,
        "warnings": [],
    }
    f1_names = ds.feature_names["F1"]
    if "gender" in f1_names:
        gender = ds.matrices["F1"][:, f1_names.index("gender")]
        summary["gender_counts"] = {
            "male": int((gender == 1.0).sum()),
            "female": int((gender == 0.0).sum()),
        }
    else:
        summary["gender_counts"] = None
        summary["warnings"].append("gender column absent")
    if "age" in f1_names:
        ages = ds.matrices["F1"][:, f1_names.index("age")]
        bins = age_histogram(ages, settings.age_bin_width)
        outside = int((~np.isnan(ages)).sum()) - sum(b["count"] for b in bins)
        if outside:
            lo, hi = AGE_RANGE
            summary["warnings"].append(f"{outside} ages outside [{lo}, {hi}) left out of the age histogram")
        summary["age_histogram"] = bins
    else:
        summary["age_histogram"] = None
        summary["warnings"].append("age column absent")
    return summary


def age_histogram(ages: np.ndarray, bin_width: int = 5) -> list:
    """Contiguous [lo, hi) bins aligned to multiples of the bin width, over
    the ages inside AGE_RANGE only, so one mistyped age cannot stretch the
    histogram over hundreds of thousands of empty bins."""
    if bin_width <= 0:
        raise CurationError("bin width must be positive")
    ages = np.asarray(ages, dtype=float)
    ages = ages[(ages >= AGE_RANGE[0]) & (ages < AGE_RANGE[1])]
    if ages.size == 0:
        return []
    start = int(np.floor(ages.min() / bin_width)) * bin_width
    stop = int(np.floor(ages.max() / bin_width)) * bin_width + bin_width
    bins = []
    for lo in range(start, stop, bin_width):
        count = int(((ages >= lo) & (ages < lo + bin_width)).sum())
        bins.append({"lo": lo, "hi": lo + bin_width, "count": count})
    return bins
