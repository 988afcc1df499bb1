"""Rule-based feature engineering: encode parsed records into aligned
numeric matrices for the three feature groups.  The encoded table holds
exactly the features the groups name, F1 then F2, and tags each column
with its group; from there on the tags, not the group lists, say which
group a column is in.  A proxy column replaces its sources in place and
takes their group.

Each cohort rule is stated once.  A categorical cell (an F1 binary or
gender) is decoded by one vocabulary lookup on its trimmed, lower-cased
text; ``parsers.load_raw`` decodes the PCR label the same way.  Every
proxy rule is checked and applied by ``aggregate_proxies``, which the
config loader also runs on a cohort with no rows, so a rule the groups
alone make impossible fails at load with the same message.

Missing values are represented as NaN and are never imputed; rows that
miss any value in the combined feature set are dropped, so F1, F2 and
the combined group share one row identity.

The settings come in as required arguments, a ``FeatureGroups`` and a
``CurationSettings`` as the run's config holds them: their dataclass
fields are the only defaults, and no function here has one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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
DEFAULT_GENDER_MALE = frozenset({"male", "m"})
DEFAULT_GENDER_FEMALE = frozenset({"female", "f"})

# [lo, hi) years binned by age_histogram; ages outside are only counted.
AGE_RANGE = (0, 120)


def repeated(names) -> list:
    """The names that occur more than once in ``names``, sorted."""
    return sorted(name for name, count in Counter(names).items() if count > 1)


@dataclass(frozen=True)
class FeatureGroups:
    """Feature names per group; the combined group is the concatenation,
    so no feature may be named twice across f1 and f2."""

    f1: tuple = DEFAULT_F1_FEATURES
    f2: tuple = DEFAULT_F2_FEATURES

    def __post_init__(self):
        twice = repeated([*self.f1, *self.f2])
        if twice:
            raise CurationError(f"feature groups overlap or repeat a feature: {twice}")


@dataclass(frozen=True)
class CurationSettings:
    binary_true: frozenset = DEFAULT_BINARY_TRUE
    binary_false: frozenset = DEFAULT_BINARY_FALSE
    gender_male: frozenset = DEFAULT_GENDER_MALE
    gender_female: frozenset = DEFAULT_GENDER_FEMALE
    max_missing_fraction: float = 0.30
    drop_zero_variance: bool = True
    blocklist: tuple = ()
    proxy_rules: tuple = ()  # of (target_name, (source, ...)) pairs
    age_bin_width: int = 5

    @property
    def gender_map(self) -> dict:
        """Gender token -> code: 1.0 for a male token, 0.0 for a female one."""
        return {**dict.fromkeys(self.gender_female, 0.0), **dict.fromkeys(self.gender_male, 1.0)}


@dataclass
class FeatureTable:
    """Column-named numeric table; NaN is the missing marker.  ``tags``
    holds each column's group, "F1" or "F2"."""

    columns: list
    tags: list
    data: np.ndarray  # shape (n_rows, n_columns), float64
    row_ids: list

    def __post_init__(self):
        shape = (len(self.row_ids), len(self.columns))
        if self.data.shape != shape or len(self.tags) != len(self.columns):
            raise CurationError("feature table shape mismatch")


@dataclass
class CuratedDataset:
    row_ids: list
    labels: np.ndarray  # 0/1 ints
    matrices: dict  # tag -> np.ndarray
    feature_names: dict  # tag -> tuple of names
    dropped_rows: list  # (record_id, reason)

    @property
    def n(self) -> int:
        return len(self.row_ids)


def _lookup(vocab: dict):
    """Decode a cell by its trimmed, lower-cased text; a miss is NaN."""
    return lambda raw: vocab.get(raw.strip().lower(), np.nan)


def encode_features(records: list, groups: FeatureGroups, settings: CurationSettings) -> FeatureTable:
    """Encode QC-filtered records into a numeric table with missing markers.

    The columns are the F1 features, tagged "F1", then the F2 features,
    tagged "F2"; each reads the record field of its name.  Gender is
    decoded by the gender pair, a ``gender_male`` token to 1.0 and a
    ``gender_female`` token to 0.0, and every other F1 field but age by
    the binary pair, where ``binary_true`` wins over ``binary_false``;
    the config holds each list of a pair non-empty and refuses a token
    in both.  Age and the F2 biomarkers go through the semi-quantitative
    parser.  Unknown categorical levels become missing, never errors.
    """
    binary = dict.fromkeys(settings.binary_false, 0.0)
    binary.update(dict.fromkeys(settings.binary_true, 1.0))  # true wins
    by_name = {"gender": _lookup(settings.gender_map), "age": parse_semiquant}
    decode_binary = _lookup(binary)
    columns = [*groups.f1, *groups.f2]
    tags = ["F1"] * len(groups.f1) + ["F2"] * len(groups.f2)
    decoders = [by_name.get(name, decode_binary) for name in groups.f1] + [parse_semiquant] * len(groups.f2)
    data = np.full((len(records), len(columns)), np.nan)
    for i, record in enumerate(records):
        data[i] = [decode(record.fields.get(name, "")) for name, decode in zip(columns, decoders)]
    return FeatureTable(columns, tags, data, [r.record_id for r in records])


def labels_from_records(records: list) -> np.ndarray:
    """0/1 label vector (1 = PCR positive); records must be QC-filtered,
    which drops every invalid PCR label."""
    return np.asarray([record.pcr_result is PcrResult.positive for record in records], dtype=np.int64)


def aggregate_proxies(table: FeatureTable, rules) -> FeatureTable:
    """Collapse groups of binary indicator columns into OR-proxy columns.

    Each proxy takes the place and the group of whichever source comes
    first among the columns, and the other sources go.  Rules apply in
    order, so a later rule may use an earlier target as a source.  Each
    rule's names are checked before its data: a source no column holds,
    sources from both groups (the proxy would have no group) and a target
    naming a column other than its sources (it would be duplicated) are
    errors, and then so is a source with a value other than 0 or 1.  On a
    table with no rows only the name checks can fail, which is how the
    config loader checks the rules against the groups.

    The proxy is the logical OR of the non-missing sources and is missing
    only when every source is missing.
    """
    columns, tags, data = list(table.columns), list(table.tags), table.data
    for target, sources in rules:
        rule = f"{target}:{'+'.join(sources)}"
        for name in sources:
            if name not in columns:
                raise CurationError(f"proxy source column not found: {name}")
        idx = sorted({columns.index(name) for name in sources})
        if len({tags[j] for j in idx}) > 1:
            raise CurationError(f"proxy rule {rule} takes sources from both F1 and F2")
        if target in columns and columns.index(target) not in idx:
            raise CurationError(f"proxy rule {rule} targets a column that is not its source")
        for name in sources:
            col = data[:, columns.index(name)]
            if not np.isin(col[~np.isnan(col)], (0.0, 1.0)).all():
                raise CurationError(f"proxy source column not binary: {name}")
        block = data[:, idx]
        proxy = np.where(np.isnan(block).all(axis=1), np.nan, (block == 1.0).any(axis=1))
        first, rest = idx[0], idx[1:]  # first stays put when the rest go
        data = np.delete(data, rest, axis=1)
        data[:, first] = proxy
        columns = [target if j == first else c for j, c in enumerate(columns) if j not in rest]
        tags = [t for j, t in enumerate(tags) if j not in rest]
    return FeatureTable(columns, tags, data, list(table.row_ids))


def exclude_features(table: FeatureTable, settings: CurationSettings):
    """Drop the columns that ``settings`` rules out: blocklisted ones,
    those missing in more than ``max_missing_fraction`` of the rows, and,
    with ``drop_zero_variance``, those with one value or none.

    A blocklist name that no column holds is an error.  The table has
    been through ``aggregate_proxies``, so a proxy target may be
    blocklisted and a proxy source may not.  On a table with no rows only
    this check can fail, which is how the config loader checks the
    blocklist against the groups and proxy rules.

    Returns (reduced table, [(name, reason), ...]); reasons are recorded
    verbatim in the curation report.  The config holds
    ``max_missing_fraction`` within [0, 1].
    """
    max_missing_fraction = settings.max_missing_fraction
    unknown = [name for name in settings.blocklist if name not in table.columns]
    if unknown:
        raise CurationError(f"[curation] blocklist names no feature column: {unknown}")
    blocked = set(settings.blocklist)
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
        present = col[~np.isnan(col)]
        if settings.drop_zero_variance and (present == present[:1]).all():  # one value, or none
            dropped.append((name, "zero variance"))
            continue
        keep.append(j)
    reduced = FeatureTable(
        [table.columns[j] for j in keep],
        [table.tags[j] for j in keep],
        table.data[:, keep],
        list(table.row_ids),
    )
    return reduced, dropped


def assemble(table: FeatureTable, labels: np.ndarray) -> CuratedDataset:
    """Drop rows with missing values in the combined feature set and cut
    the three row-aligned matrices: F1 and F2 are the columns tagged so,
    in table order, and F3 is F1 then F2.  A group may be left without
    columns; the run refuses a run group that is (``report._curate``)."""
    idx = {tag: [j for j, t in enumerate(table.tags) if t == tag] for tag in ("F1", "F2")}
    idx["F3"] = idx["F1"] + idx["F2"]
    names = {tag: tuple(table.columns[j] for j in idx[tag]) for tag in GROUP_TAGS}

    f3_block = table.data[:, idx["F3"]]
    row_missing = np.isnan(f3_block).any(axis=1)

    dropped_rows = []
    for i in np.nonzero(row_missing)[0]:
        missing_names = [names["F3"][k] for k in np.nonzero(np.isnan(f3_block[i]))[0]]
        dropped_rows.append((table.row_ids[i], f"missing: {', '.join(missing_names)}"))

    keep = ~row_missing
    if not keep.any():
        raise CurationError("no rows survive the combined missing-value filter")

    return CuratedDataset(
        row_ids=[rid for rid, k in zip(table.row_ids, keep) if k],
        labels=np.asarray(labels)[keep].astype(np.int64),
        matrices={tag: table.data[np.ix_(keep, idx[tag])] for tag in GROUP_TAGS},
        feature_names=names,
        dropped_rows=dropped_rows,
    )


def cohort_summary(ds: CuratedDataset, settings: CurationSettings) -> dict:
    """n, prevalence, gender counts and an age histogram, in bins of
    ``settings.age_bin_width`` years, for reporting."""
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


def age_histogram(ages: np.ndarray, bin_width: int) -> list:
    """Contiguous [lo, hi) bins aligned to multiples of the bin width, over
    the ages inside AGE_RANGE only, so one mistyped age cannot stretch the
    histogram over hundreds of thousands of empty bins.  The config holds
    ``bin_width`` positive."""
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
