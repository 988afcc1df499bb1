import pytest
from hypothesis import given, strategies as st

from ptrisk.errors import DataError, SchemaError
from ptrisk.parsers import (
    CLOUDINESS,
    COLORS,
    PcrResult,
    Schema,
    SourceCohort,
    SemiQuantValue,
    VisualAppearance,
    load_raw,
    parse_semiquant,
    parse_visual,
    qc_filter,
    RawRecord,
)
from conftest import load_corpus


# --- fixture corpora ---------------------------------------------------------

@pytest.mark.parametrize("text,color,cloudiness", load_corpus("visual_corpus.tsv"))
def test_visual_corpus(text, color, cloudiness):
    assert parse_visual(text) == VisualAppearance(color, cloudiness)


@pytest.mark.parametrize("text,value,ineq", load_corpus("semiquant_corpus.tsv"))
def test_semiquant_corpus(text, value, ineq):
    expected_value = None if value == "missing" else float(value)
    got = parse_semiquant(text)
    assert got.value == expected_value
    assert got.was_inequality is (ineq == "true")


def test_corpus_sizes():
    assert len(load_corpus("visual_corpus.tsv")) >= 20
    assert len(load_corpus("semiquant_corpus.tsv")) >= 12


# --- parse_visual details ------------------------------------------------------

def test_visual_empty_and_none():
    assert parse_visual("") == VisualAppearance("unknown", "unknown")
    assert parse_visual(None) == VisualAppearance("unknown", "unknown")


def test_very_cloudy_never_degrades():
    assert parse_visual("very cloudy").cloudiness == "very_cloudy"
    assert parse_visual("cloudy").cloudiness == "cloudy"


def test_semiquant_missing_never_flags_inequality():
    got = parse_semiquant("<abc")
    assert got.is_missing and got.was_inequality is False
    with pytest.raises(ValueError):
        SemiQuantValue(None, True)


# --- properties ----------------------------------------------------------------

@given(st.text(max_size=80))
def test_visual_total_and_deterministic(text):
    first = parse_visual(text)
    assert first.color in COLORS and first.cloudiness in CLOUDINESS
    assert parse_visual(text) == first


@given(st.text(max_size=80))
def test_visual_render_roundtrip(text):
    # the canonical text of an appearance parses back to it
    parsed = parse_visual(text)
    assert parse_visual(f"{parsed.color}, {parsed.cloudiness.replace('_', ' ')}") == parsed


@given(st.text(max_size=40))
def test_semiquant_total(text):
    got = parse_semiquant(text)
    if got.is_missing:
        assert got.was_inequality is False
    else:
        assert isinstance(got.value, float)


# --- load_raw --------------------------------------------------------------------

SMALL_SCHEMA = Schema(
    questionnaire={"gender": "gender", "age": "age"},
    biomarkers={"leukocytes": "leukocytes"},
)


def test_load_raw_small_file(fixtures_dir):
    records = load_raw(fixtures_dir / "cohort_small.csv", SMALL_SCHEMA)
    assert [r.record_id for r in records] == ["R1", "R2", "R3"]
    assert records[0].pcr_result is PcrResult.positive
    assert records[1].pcr_result is PcrResult.negative
    assert records[0].source_cohort is SourceCohort.UT2018
    assert records[1].source_cohort is SourceCohort.LeipzigCE2019
    assert records[0].visual_text == "light, cloudless"
    assert records[0].questionnaire["gender"] == "male"
    assert records[0].biomarkers_raw["leukocytes"] == "<5"
    assert records[2].biomarkers_raw["leukocytes"] == "7,2"


def test_load_raw_ignores_utf8_bom(fixtures_dir, tmp_path):
    original = fixtures_dir / "cohort_small.csv"
    bom_copy = tmp_path / "cohort_bom.csv"
    bom_copy.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert load_raw(bom_copy, SMALL_SCHEMA) == load_raw(original, SMALL_SCHEMA)


def test_load_raw_missing_pcr_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("record_id,qc_flag,age\nR1,OK,30\n")
    with pytest.raises(SchemaError) as err:
        load_raw(path, Schema(questionnaire={"age": "age"}))
    assert "pcr_result" in str(err.value)


def test_load_raw_semicolon_delimiter(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("record_id;qc_flag;age;pcr_result\nS1;OK;30;1\nS2;OK;22;0\n")
    records = load_raw(path, Schema(questionnaire={"age": "age"}))
    assert [r.record_id for r in records] == ["S1", "S2"]
    assert records[0].pcr_result is PcrResult.positive
    assert records[1].pcr_result is PcrResult.negative
    assert records[0].source_cohort is SourceCohort.Other


def test_load_raw_duplicate_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("record_id,qc_flag,pcr_result\nA,OK,POS\nA,OK,NEG\n")
    with pytest.raises(DataError):
        load_raw(path, Schema())


def test_load_raw_unparseable_pcr_is_invalid(tmp_path):
    path = tmp_path / "inv.csv"
    path.write_text("record_id,qc_flag,pcr_result\nA,OK,maybe\n")
    (record,) = load_raw(path, Schema())
    assert record.pcr_result is PcrResult.invalid


def test_load_raw_unassigned_columns_go_to_questionnaire(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("record_id,qc_flag,pcr_result,extra_note\nA,OK,POS,hello\n")
    (record,) = load_raw(path, Schema())
    assert record.questionnaire["extra_note"] == "hello"


# --- qc_filter ---------------------------------------------------------------------

def _record(record_id, qc="OK", cohort=SourceCohort.UT2018, pcr=PcrResult.positive):
    return RawRecord(
        record_id=record_id,
        source_cohort=cohort,
        qc_flag=qc,
        visual_text="",
        questionnaire={},
        biomarkers_raw={},
        pcr_result=pcr,
    )


def test_qc_filter_flags():
    records = [
        _record("a"),
        _record("b", qc="FAIL"),
        _record("c"),
        _record("d", qc="FAIL"),
        _record("e"),
    ]
    kept = qc_filter(records, {"OK"})
    assert [r.record_id for r in kept] == ["a", "c", "e"]


def test_qc_filter_excludes_beta_lamp_regardless_of_flag():
    records = [
        _record("a"),
        _record("b", cohort=SourceCohort.BetaLAMP),
        _record("c"),
        _record("d"),
    ]
    kept = qc_filter(records, {"OK"})
    assert [r.record_id for r in kept] == ["a", "c", "d"]


def test_qc_filter_excludes_invalid_pcr():
    records = [_record("a"), _record("b", pcr=PcrResult.invalid)]
    assert [r.record_id for r in qc_filter(records, {"OK"})] == ["a"]


def test_qc_filter_identity_when_all_valid():
    records = [_record("a"), _record("b")]
    assert qc_filter(records, {"OK"}) == records


@given(st.lists(st.tuples(st.sampled_from(["OK", "FAIL"]), st.booleans()), max_size=30))
def test_qc_filter_is_subsequence(spec):
    records = [
        _record(
            f"r{i}",
            qc=qc,
            cohort=SourceCohort.BetaLAMP if beta else SourceCohort.Other,
        )
        for i, (qc, beta) in enumerate(spec)
    ]
    kept = qc_filter(records, {"OK"})
    ids = [r.record_id for r in records]
    kept_ids = [r.record_id for r in kept]
    it = iter(ids)
    assert all(any(x == k for x in it) for k in kept_ids)
