import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptrisk.curation import (
    DEFAULT_F1_FEATURES,
    DEFAULT_F2_FEATURES,
    CurationSettings,
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
from ptrisk.parsers import PcrResult, RawRecord, Schema, load_raw


def make_record(record_id, fields=None, pcr=PcrResult.positive):
    return RawRecord(
        record_id=record_id,
        beta_assay=False,
        qc_flag="OK",
        fields=fields or {},
        pcr_result=pcr,
    )


SMALL_GROUPS = FeatureGroups(f1=("gender", "age", "prior_std"), f2=("leukocytes", "ph"))
SMALL_TAGS = ["F1", "F1", "F1", "F2", "F2"]


def test_group_defaults_concatenate():
    table = encode_features([], FeatureGroups(), CurationSettings())
    assert table.columns == list(DEFAULT_F1_FEATURES + DEFAULT_F2_FEATURES)
    assert table.tags == ["F1"] * 13 + ["F2"] * 9
    assert len(DEFAULT_F1_FEATURES) == 13
    assert len(DEFAULT_F2_FEATURES) == 9


def test_groups_reject_overlap():
    with pytest.raises(CurationError):
        FeatureGroups(f1=("age", "x"), f2=("x",))


def _column(table, name):
    return table.data[:, table.columns.index(name)]


# --- encode_features -----------------------------------------------------------

def test_encode_gender_and_binaries():
    records = [
        make_record("a", {"gender": "male", "age": "25", "prior_std": "yes", "leukocytes": "5", "ph": "6"}),
        make_record("b", {"gender": "female", "age": "31", "prior_std": "no", "leukocytes": "<5", "ph": "7,5"}),
    ]
    table = encode_features(records, SMALL_GROUPS, CurationSettings())
    assert table.columns == ["gender", "age", "prior_std", "leukocytes", "ph"]
    assert table.tags == SMALL_TAGS
    assert _column(table, "gender").tolist() == [1.0, 0.0]
    assert _column(table, "prior_std").tolist() == [1.0, 0.0]
    assert _column(table, "age").tolist() == [25.0, 31.0]
    assert _column(table, "leukocytes").tolist() == [5.0, 5.0]
    assert _column(table, "ph").tolist() == [6.0, 7.5]


def test_every_vocabulary_ignores_surrounding_spaces_and_case(tmp_path):
    # the PCR label, the binaries and gender are each matched after
    # trimming and lower-casing the cell
    path = tmp_path / "cased.csv"
    path.write_text(
        "record_id,qc_flag,pcr_result,gender,age,prior_std,leukocytes,ph\n"
        "a,OK, Positive ,  MALE,25, Yes ,5,6\n"
        "b,OK,NEG , Female,31,NO  ,<5,7\n"
    )
    records = load_raw(path, Schema(questionnaire={name: name for name in SMALL_GROUPS.f1 + SMALL_GROUPS.f2}))
    assert [r.pcr_result for r in records] == [PcrResult.positive, PcrResult.negative]
    table = encode_features(records, SMALL_GROUPS, CurationSettings())
    assert _column(table, "gender").tolist() == [1.0, 0.0]
    assert _column(table, "prior_std").tolist() == [1.0, 0.0]


def test_encode_unknown_level_is_missing():
    records = [make_record("a", {"gender": "other", "age": "x", "prior_std": "maybe"})]
    table = encode_features(records, SMALL_GROUPS, CurationSettings())
    assert np.isnan(_column(table, "gender")[0])
    assert np.isnan(_column(table, "age")[0])
    assert np.isnan(_column(table, "prior_std")[0])


def test_encode_visual_onehot_reference_unknown():
    # an appearance text, described or unknown, is an unmapped field that
    # no group names: it encodes to no column and changes no feature
    base = {"gender": "male", "age": "25", "prior_std": "yes"}
    biomarkers = [{"leukocytes": "5", "ph": "6"}, {"leukocytes": "<5", "ph": "7,5"}]
    records = [
        make_record("a", {**base, **biomarkers[0], "visual_text": "average, cloudy"}),
        make_record("b", {**base, **biomarkers[1], "visual_text": ""}),
    ]
    bare = [make_record(r.record_id, {**base, **b}) for r, b in zip(records, biomarkers)]
    table = encode_features(records, SMALL_GROUPS, CurationSettings())
    assert table.columns == ["gender", "age", "prior_std", "leukocytes", "ph"]
    np.testing.assert_array_equal(table.data, encode_features(bare, SMALL_GROUPS, CurationSettings()).data)
    table = encode_features(records, FeatureGroups(), CurationSettings())
    assert table.columns == list(DEFAULT_F1_FEATURES + DEFAULT_F2_FEATURES)


def test_labels_from_records():
    records = [make_record("a"), make_record("b", pcr=PcrResult.negative)]
    assert labels_from_records(records).tolist() == [1, 0]


# --- aggregate_proxies -----------------------------------------------------------

def _table(columns, rows, tags=None):
    data = np.asarray(rows, dtype=float)
    tags = tags or ["F1"] * len(columns)
    return FeatureTable(list(columns), tags, data, [f"r{i}" for i in range(len(rows))])


@pytest.mark.parametrize(
    "tags, shape, row_ids",
    [
        (["F1"], (2, 2), ["r0", "r1"]),  # zip would pair the second column with no group
        (["F1", "F2"], (2, 3), ["r0", "r1"]),
        (["F1", "F2"], (2, 2), ["r0"]),
    ],
)
def test_feature_table_refuses_a_shape_mismatch(tags, shape, row_ids):
    with pytest.raises(CurationError, match="feature table shape mismatch"):
        FeatureTable(["a", "b"], tags, np.zeros(shape), row_ids)


def test_proxy_or():
    table = _table(["a", "b", "c", "keep"], [[0, 1, 0, 5], [0, 0, 0, 6], [1, 1, 1, 7]])
    out = aggregate_proxies(table, [("proxy", ("a", "b", "c"))])
    assert out.columns == ["proxy", "keep"]
    assert _column(out, "proxy").tolist() == [1.0, 0.0, 1.0]
    assert table.columns == ["a", "b", "c", "keep"] and table.data.shape == (3, 4)


def test_proxy_takes_first_source_place_and_group():
    columns = ["a", "k1", "b", "c", "k2", "d"]
    tags = ["F1", "F1", "F1", "F2", "F2", "F2"]
    rows = [[0, 0, 1, 0, 5, 0], [0, 0, 0, 1, 6, 0], [0, 1, 0, 0, 7, 0], [0, 0, 0, 0, 8, 0]]
    table = _table(columns, rows, tags)
    # "r" chains onto the earlier target "p"; sources list in any order
    rules = [("p", ("b", "a")), ("q", ("d", "c")), ("r", ("p", "k1"))]
    out = aggregate_proxies(table, rules)
    assert out.columns == ["r", "q", "k2"]
    assert out.tags == ["F1", "F2", "F2"]
    assert _column(out, "r").tolist() == [1.0, 0.0, 1.0, 0.0]
    assert _column(out, "q").tolist() == [0.0, 1.0, 0.0, 0.0]
    ds = assemble(out, np.array([1, 0, 1, 0]))
    assert ds.feature_names == {"F1": ("r",), "F2": ("q", "k2"), "F3": ("r", "q", "k2")}
    # sources from both groups are refused before their values are checked:
    # k2 is not binary, yet the split is what the error names
    with pytest.raises(CurationError, match="takes sources from both F1 and F2"):
        aggregate_proxies(table, [("m", ("k1", "k2"))])


def test_proxy_rejects_target_that_is_another_column():
    table = _table(["a", "b", "keep"], [[0, 1, 5], [1, 0, 6]])
    with pytest.raises(CurationError, match="keep:a\\+b"):
        aggregate_proxies(table, [("keep", ("a", "b"))])
    # a target may reuse the name of one of its own sources
    assert aggregate_proxies(table, [("a", ("a", "b"))]).columns == ["a", "keep"]


def test_proxy_missing_propagation():
    nan = np.nan
    table = _table(["a", "b"], [[nan, nan], [nan, 0], [nan, 1]])
    out = aggregate_proxies(table, [("p", ("a", "b"))])
    got = _column(out, "p")
    assert np.isnan(got[0])
    assert got[1] == 0.0 and got[2] == 1.0


def test_proxy_rejects_non_binary_source():
    table = _table(["a", "b"], [[0, 2.5], [1, 0]])
    with pytest.raises(CurationError) as err:
        aggregate_proxies(table, [("p", ("a", "b"))])
    assert "b" in str(err.value)


# --- exclude_features ---------------------------------------------------------------

def test_exclude_zero_variance():
    table = _table(["const", "varies"], [[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]], ["F1", "F2"])
    reduced, dropped = exclude_features(table, CurationSettings())
    assert reduced.columns == ["varies"] and reduced.tags == ["F2"]
    assert dropped == [("const", "zero variance")]


def test_exclude_zero_variance_ignores_sign_of_zero_and_missing_cells():
    # -0.0 equals 0.0, missing cells are not values, and a column with no
    # value left has no variance
    nan = np.nan
    rows = [[-0.0, nan, 1.0], [0.0, nan, 2.0], [nan, nan, 3.0], [-0.0, nan, 4.0]]
    table = _table(["signed_zero", "all_missing", "varies"], rows)
    reduced, dropped = exclude_features(table, CurationSettings(max_missing_fraction=1.0))
    assert reduced.columns == ["varies"]
    assert dropped == [("signed_zero", "zero variance"), ("all_missing", "zero variance")]


def test_exclude_missingness_threshold():
    nan = np.nan
    rows = [[1.0, 1.0], [2.0, nan], [3.0, nan], [4.0, 2.0], [5.0, 3.0]]
    table = _table(["full", "gappy"], rows)
    reduced, dropped = exclude_features(table, CurationSettings(max_missing_fraction=0.30))
    assert reduced.columns == ["full"]
    assert dropped == [("gappy", "missingness 0.40 > 0.30")]


def test_exclude_blocklist_regardless_of_content():
    table = _table(["lab_result_code", "x"], [[1.0, 1.0], [2.0, 2.0]])
    reduced, dropped = exclude_features(table, CurationSettings(blocklist=("lab_result_code",)))
    assert reduced.columns == ["x"]
    assert dropped == [("lab_result_code", "blocklisted")]


def test_exclude_keeps_zero_variance_when_disabled():
    table = _table(["const"], [[7.0], [7.0]])
    reduced, dropped = exclude_features(table, CurationSettings(drop_zero_variance=False))
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
    kept_low, _ = exclude_features(table, CurationSettings(max_missing_fraction=t_low, drop_zero_variance=False))
    kept_high, _ = exclude_features(table, CurationSettings(max_missing_fraction=t_high, drop_zero_variance=False))
    assert set(kept_low.columns) <= set(kept_high.columns)


# --- assemble ------------------------------------------------------------------------

def test_assemble_drops_row_with_any_missing():
    nan = np.nan
    table = _table(["age", "ph"], [[20, 7], [21, nan], [22, 6], [23, 5], [24, 8]], ["F1", "F2"])
    ds = assemble(table, np.array([1, 1, 0, 0, 1]))
    assert ds.n == 4
    for tag in ("F1", "F2", "F3"):
        assert ds.matrices[tag].shape[0] == 4
    assert ds.row_ids == ["r0", "r2", "r3", "r4"]
    assert ds.labels.tolist() == [1, 0, 0, 1]
    assert ds.dropped_rows == [("r1", "missing: ph")]


def test_assemble_identity_without_missing():
    table = _table(["age", "ph"], [[20, 7], [21, 6]], ["F1", "F2"])
    ds = assemble(table, np.array([1, 0]))
    assert ds.n == 2 and ds.dropped_rows == []
    assert ds.feature_names["F3"] == ("age", "ph")


def test_assemble_groups_columns_by_tag():
    # F1 and F2 keep table order within each tag; F3 is F1 then F2
    table = _table(["a", "x", "b"], [[1, 2, 3], [4, 5, 6]], ["F1", "F2", "F1"])
    ds = assemble(table, np.array([1, 0]))
    assert ds.feature_names == {"F1": ("a", "b"), "F2": ("x",), "F3": ("a", "b", "x")}
    np.testing.assert_array_equal(ds.matrices["F3"], table.data[:, [0, 2, 1]])
    np.testing.assert_array_equal(ds.matrices["F2"], table.data[:, [1]])


def test_assemble_errors_on_zero_rows():
    table = _table(["age"], [[np.nan], [np.nan]])
    with pytest.raises(CurationError):
        assemble(table, np.array([1, 0]))


@given(st.integers(6, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 0.4))
@settings(max_examples=30, deadline=None)
def test_assemble_row_alignment_and_accounting(n, seed, missing_rate):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, 3))
    data[rng.random(size=data.shape) < missing_rate] = np.nan
    labels = rng.integers(0, 2, size=n)
    table = _table(["a", "b", "c"], data, ["F1", "F1", "F2"])
    try:
        ds = assemble(table, labels)
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
    rows = [[1, 20, 7], [0, 21, 6], [1, 29, 7], [0, 40, 5]]
    table = _table(["gender", "age", "ph"], rows, ["F1", "F1", "F2"])
    ds = assemble(table, np.array([1, 1, 1, 0]))
    summary = cohort_summary(ds, CurationSettings())
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
    table = _table(["age", "ph"], [[20, 7], [3e6, 6], [-1, 7], [29, 5], [120, 6]], ["F1", "F2"])
    summary = cohort_summary(assemble(table, np.array([1, 1, 0, 0, 1])), CurationSettings())
    assert summary["age_histogram"] == [
        {"lo": 20, "hi": 25, "count": 1},
        {"lo": 25, "hi": 30, "count": 1},
    ]
    assert "3 ages outside [0, 120) left out of the age histogram" in summary["warnings"]
    assert age_histogram(np.array([3e6]), bin_width=5) == []


def test_summary_without_age_warns():
    table = _table(["gender", "ph"], [[1, 7], [0, 6]], ["F1", "F2"])
    ds = assemble(table, np.array([1, 0]))
    summary = cohort_summary(ds, CurationSettings())
    assert summary["age_histogram"] is None
    assert "age column absent" in summary["warnings"]
