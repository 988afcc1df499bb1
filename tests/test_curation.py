import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptrisk.curation import (
    CurationSettings,
    DEFAULT_F1_FEATURES,
    DEFAULT_F2_FEATURES,
    FeatureGroups,
    FeatureTable,
    age_histogram,
    aggregate_proxies,
    assemble,
    cohort_summary,
    encode_features,
    exclude_features,
    labels_from_records,
)
from ptrisk.errors import CurationError
from ptrisk.parsers import PcrResult, RawRecord, SourceCohort


def make_record(record_id, questionnaire=None, biomarkers=None, visual="", pcr=PcrResult.positive):
    return RawRecord(
        record_id=record_id,
        source_cohort=SourceCohort.UT2018,
        qc_flag="OK",
        visual_text=visual,
        questionnaire=questionnaire or {},
        biomarkers_raw=biomarkers or {},
        pcr_result=pcr,
    )


SMALL_GROUPS = FeatureGroups(f1=("gender", "age", "prior_std"), f2=("leukocytes", "ph"))


def test_group_defaults_concatenate():
    groups = FeatureGroups()
    assert groups.f3 == DEFAULT_F1_FEATURES + DEFAULT_F2_FEATURES
    assert len(DEFAULT_F1_FEATURES) == 13
    assert len(DEFAULT_F2_FEATURES) == 9


def test_groups_reject_overlap():
    with pytest.raises(CurationError):
        FeatureGroups(f1=("age", "x"), f2=("x",))


# --- encode_features -----------------------------------------------------------

def test_encode_gender_and_binaries():
    records = [
        make_record("a", {"gender": "male", "age": "25", "prior_std": "yes"}, {"leukocytes": "5", "ph": "6"}),
        make_record("b", {"gender": "female", "age": "31", "prior_std": "no"}, {"leukocytes": "<5", "ph": "7,5"}),
    ]
    table = encode_features(records, SMALL_GROUPS)
    assert table.column("gender").tolist() == [1.0, 0.0]
    assert table.column("prior_std").tolist() == [1.0, 0.0]
    assert table.column("age").tolist() == [25.0, 31.0]
    assert table.column("leukocytes").tolist() == [5.0, 5.0]
    assert table.column("ph").tolist() == [6.0, 7.5]


def test_encode_unknown_level_is_missing():
    records = [make_record("a", {"gender": "other", "age": "x", "prior_std": "maybe"})]
    table = encode_features(records, SMALL_GROUPS)
    assert np.isnan(table.column("gender")[0])
    assert np.isnan(table.column("age")[0])
    assert np.isnan(table.column("prior_std")[0])


def test_encode_visual_onehot_reference_unknown():
    records = [
        make_record("a", visual="average, cloudy"),
        make_record("b", visual=""),
    ]
    table = encode_features(records, SMALL_GROUPS)
    assert table.column("color_light")[0] == 0.0
    assert table.column("color_average")[0] == 1.0
    assert table.column("color_dark")[0] == 0.0
    # unknown appearance = reference category = all zeros
    assert table.column("color_light")[1] == 0.0
    assert table.column("color_average")[1] == 0.0
    assert table.column("color_dark")[1] == 0.0
    assert table.column("cloudiness_cloudy")[0] == 1.0


def test_labels_from_records():
    records = [make_record("a"), make_record("b", pcr=PcrResult.negative)]
    assert labels_from_records(records).tolist() == [1, 0]


# --- aggregate_proxies -----------------------------------------------------------

def _table(columns, rows, ids=None):
    data = np.asarray(rows, dtype=float)
    return FeatureTable(list(columns), data, ids or [f"r{i}" for i in range(len(rows))])


def test_proxy_or():
    table = _table(["a", "b", "c", "keep"], [[0, 1, 0, 5], [0, 0, 0, 6], [1, 1, 1, 7]])
    out = aggregate_proxies(table, [("proxy", ("a", "b", "c"))])
    assert out.columns == ["keep", "proxy"]
    assert out.column("proxy").tolist() == [1.0, 0.0, 1.0]


def test_proxy_missing_propagation():
    nan = np.nan
    table = _table(["a", "b"], [[nan, nan], [nan, 0], [nan, 1]])
    out = aggregate_proxies(table, [("p", ("a", "b"))])
    got = out.column("p")
    assert np.isnan(got[0])
    assert got[1] == 0.0 and got[2] == 1.0


def test_proxy_rejects_non_binary_source():
    table = _table(["a", "b"], [[0, 2.5], [1, 0]])
    with pytest.raises(CurationError) as err:
        aggregate_proxies(table, [("p", ("a", "b"))])
    assert "b" in str(err.value)


# --- exclude_features ---------------------------------------------------------------

def test_exclude_zero_variance():
    table = _table(["const", "varies"], [[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
    reduced, dropped = exclude_features(table)
    assert reduced.columns == ["varies"]
    assert dropped == [("const", "zero variance")]


def test_exclude_missingness_threshold():
    nan = np.nan
    rows = [[1.0, 1.0], [2.0, nan], [3.0, nan], [4.0, 2.0], [5.0, 3.0]]
    table = _table(["full", "gappy"], rows)
    reduced, dropped = exclude_features(table, max_missing_fraction=0.30)
    assert reduced.columns == ["full"]
    assert dropped == [("gappy", "missingness 0.40 > 0.30")]


def test_exclude_blocklist_regardless_of_content():
    table = _table(["lab_result_code", "x"], [[1.0, 1.0], [2.0, 2.0]])
    reduced, dropped = exclude_features(table, blocklist=["lab_result_code"])
    assert reduced.columns == ["x"]
    assert dropped == [("lab_result_code", "blocklisted")]


def test_exclude_keeps_zero_variance_when_disabled():
    table = _table(["const"], [[7.0], [7.0]])
    reduced, dropped = exclude_features(table, drop_zero_variance=False)
    assert reduced.columns == ["const"] and dropped == []


@given(
    st.integers(5, 30),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_exclusion_monotone_in_threshold(n, t_low, t_high, seed):
    t_low, t_high = min(t_low, t_high), max(t_low, t_high)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, 4))
    data[rng.random(size=data.shape) < 0.4] = np.nan
    table = _table(["a", "b", "c", "d"], data)
    kept_low, _ = exclude_features(table, max_missing_fraction=t_low, drop_zero_variance=False)
    kept_high, _ = exclude_features(table, max_missing_fraction=t_high, drop_zero_variance=False)
    assert set(kept_low.columns) <= set(kept_high.columns)


# --- assemble ------------------------------------------------------------------------

def test_assemble_drops_row_with_any_missing():
    groups = FeatureGroups(f1=("age",), f2=("ph",))
    nan = np.nan
    table = _table(["age", "ph"], [[20, 7], [21, nan], [22, 6], [23, 5], [24, 8]])
    ds = assemble(table, np.array([1, 1, 0, 0, 1]), groups)
    assert ds.n == 4
    for tag in ("F1", "F2", "F3"):
        assert ds.matrices[tag].shape[0] == 4
    assert ds.row_ids == ["r0", "r2", "r3", "r4"]
    assert ds.labels.tolist() == [1, 0, 0, 1]
    assert ds.dropped_rows == [("r1", "missing: ph")]


def test_assemble_identity_without_missing():
    groups = FeatureGroups(f1=("age",), f2=("ph",))
    table = _table(["age", "ph"], [[20, 7], [21, 6]])
    ds = assemble(table, np.array([1, 0]), groups)
    assert ds.n == 2 and ds.dropped_rows == []
    assert ds.feature_names["F3"] == ("age", "ph")


def test_assemble_errors_on_zero_rows():
    groups = FeatureGroups(f1=("age",), f2=())
    table = _table(["age"], [[np.nan], [np.nan]])
    with pytest.raises(CurationError):
        assemble(table, np.array([1, 0]), groups)


def test_assemble_partitions_dropped_features_by_group():
    groups = FeatureGroups(f1=("age", "gone1"), f2=("ph", "gone2"))
    table = _table(["age", "ph"], [[20, 7], [30, 6]])
    ds = assemble(
        table,
        np.array([1, 0]),
        groups,
        dropped_features=[("gone1", "zero variance"), ("gone2", "blocklisted")],
    )
    assert ds.dropped_features["F1"] == [("gone1", "zero variance")]
    assert ds.dropped_features["F2"] == [("gone2", "blocklisted")]
    assert len(ds.dropped_features["F3"]) == 2
    assert ds.feature_names["F1"] == ("age",)


@given(st.integers(6, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 0.4))
@settings(max_examples=30, deadline=None)
def test_assemble_row_alignment_and_accounting(n, seed, missing_rate):
    rng = np.random.default_rng(seed)
    groups = FeatureGroups(f1=("a", "b"), f2=("c",))
    data = rng.normal(size=(n, 3))
    data[rng.random(size=data.shape) < missing_rate] = np.nan
    labels = rng.integers(0, 2, size=n)
    table = _table(["a", "b", "c"], data)
    try:
        ds = assemble(table, labels, groups)
    except CurationError:
        assert np.isnan(data).any(axis=1).all()
        return
    assert ds.matrices["F1"].shape[0] == ds.matrices["F2"].shape[0] == ds.matrices["F3"].shape[0]
    assert ds.n + len(ds.dropped_rows) == n
    assert len(ds.labels) == ds.n
    # no imputation: every surviving value came verbatim from the input
    for tag in ("F1", "F2", "F3"):
        assert not np.isnan(ds.matrices[tag]).any()
    kept = [i for i, rid in enumerate(table.row_ids) if rid in set(ds.row_ids)]
    assert np.array_equal(ds.matrices["F3"], data[kept])


# --- cohort_summary -----------------------------------------------------------------

def test_summary_prevalence():
    groups = FeatureGroups(f1=("gender", "age"), f2=("ph",))
    table = _table(["gender", "age", "ph"], [[1, 20, 7], [0, 21, 6], [1, 29, 7], [0, 40, 5]])
    ds = assemble(table, np.array([1, 1, 1, 0]), groups)
    summary = cohort_summary(ds)
    assert summary["n"] == 4
    assert summary["prevalence"] == pytest.approx(0.75)
    assert summary["gender_counts"] == {"male": 2, "female": 2}


def test_summary_age_histogram():
    bins = age_histogram(np.array([20.0, 21.0, 29.0]), bin_width=5)
    assert bins == [
        {"lo": 20, "hi": 25, "count": 2},
        {"lo": 25, "hi": 30, "count": 1},
    ]


def test_summary_age_histogram_bins_only_plausible_ages():
    groups = FeatureGroups(f1=("age",), f2=("ph",))
    table = _table(["age", "ph"], [[20, 7], [3e6, 6], [-1, 7], [29, 5], [120, 6]])
    summary = cohort_summary(assemble(table, np.array([1, 1, 0, 0, 1]), groups))
    assert summary["age_histogram"] == [
        {"lo": 20, "hi": 25, "count": 1},
        {"lo": 25, "hi": 30, "count": 1},
    ]
    assert "3 ages outside [0, 120) left out of the age histogram" in summary["warnings"]
    assert age_histogram(np.array([3e6]), bin_width=5) == []


def test_summary_without_age_warns():
    groups = FeatureGroups(f1=("gender",), f2=("ph",))
    table = _table(["gender", "ph"], [[1, 7], [0, 6]])
    ds = assemble(table, np.array([1, 0]), groups)
    summary = cohort_summary(ds)
    assert summary["age_histogram"] is None
    assert "age column absent" in summary["warnings"]
