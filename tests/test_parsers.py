import csv
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ptrisk.cli import main
from ptrisk.config import load_config
from ptrisk.errors import DataError, SchemaError
from ptrisk.parsers import (
    PcrResult,
    Schema,
    load_raw,
    parse_semiquant,
    qc_filter,
    RawRecord,
)
from conftest import load_corpus


# --- semi-quantitative values ------------------------------------------------

@pytest.mark.parametrize("text,value,ineq", load_corpus("semiquant_corpus.tsv"))
def test_semiquant_corpus(text, value, ineq):
    # ``ineq`` marks the rows whose text starts with an inequality marker;
    # the parser strips the marker and returns the bare number either way
    got = parse_semiquant(text)
    if value == "missing":
        assert math.isnan(got)
    else:
        assert got == float(value)


def test_corpus_sizes():
    assert len(load_corpus("semiquant_corpus.tsv")) >= 12


def test_semiquant_missing_never_flags_inequality():
    # an inequality marker before no finite number is missing, not a bound;
    # only one leading marker is stripped
    for text in ("<abc", "<", "> ", ">=", "≤n/a", "<nan", ">inf", "<-inf", "<<5", "<>5"):
        assert math.isnan(parse_semiquant(text)), text


@given(st.text(max_size=40))
def test_semiquant_total(text):
    got = parse_semiquant(text)
    assert isinstance(got, float)
    assert math.isnan(got) or math.isfinite(got)


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
    assert [r.beta_assay for r in records] == [False, False, False]
    # the appearance column is mapped nowhere, so it is kept under its header
    assert records[0].fields["visual_text"] == "light, cloudless"
    assert records[0].fields["gender"] == "male"
    assert records[0].fields["leukocytes"] == "<5"
    assert records[2].fields["leukocytes"] == "7,2"


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
    assert not records[0].beta_assay


@pytest.mark.parametrize("text", ["", " \n\t\r\n  "])
def test_load_raw_empty_file(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=r"cohort file .*empty\.csv is empty"):
        load_raw(path, Schema())


def test_load_raw_quoted_newline_stays_in_its_cell(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'record_id,qc_flag,pcr_result,note\r\nA,OK,POS,"two\nlines"\r\nB,OK,NEG,"x\r\ny"\r\n')
    records = load_raw(path, Schema())
    assert [r.fields["note"] for r in records] == ["two\nlines", "x\r\ny"]
    assert [r.pcr_result for r in records] == [PcrResult.positive, PcrResult.negative]


def test_load_raw_holds_a_1000_row_cohort_once(tmp_path):
    # rows are parsed one at a time from the file's text and equal cells
    # share one string; holding every line, every row and every cell
    # string at once peaked at 3.21 MiB on this cohort
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[input]\npath = {tmp_path / 'cohort.csv'}\n[synth]\nn = 1000\n", encoding="utf-8")
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path)]) == 0
    config = load_config(ini)
    tracemalloc.start()
    try:
        records = load_raw(config.input_path, config.schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20

    with open(config.input_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1000
    assert records == [
        RawRecord(
            record_id=row.pop("record_id"),
            beta_assay=row.pop("source_cohort") == "BetaLAMP",
            qc_flag=row.pop("qc_flag"),
            pcr_result={"POS": PcrResult.positive, "NEG": PcrResult.negative}[row.pop("pcr_result")],
            fields=row,
        )
        for row in rows
    ]
    cells = [text for record in records for text in record.fields.values()]
    assert len({id(text) for text in cells}) == len(set(cells))


def test_load_raw_duplicate_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("record_id,qc_flag,pcr_result\nA,OK,POS\nA,OK,NEG\n")
    with pytest.raises(DataError):
        load_raw(path, Schema())


def test_load_raw_rejects_repeated_headers(tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text("record_id,qc_flag,pcr_result,age,note,age,note\nA,OK,POS,25,x,99,y\n")
    with pytest.raises(SchemaError, match="age, note"):
        load_raw(path, Schema(questionnaire={"age": "age"}))
    # blank headers (e.g. from trailing delimiters) may repeat
    path.write_text("record_id,qc_flag,pcr_result,age,,\nA,OK,POS,25,,\n")
    (record,) = load_raw(path, Schema(questionnaire={"age": "age"}))
    assert record.fields["age"] == "25"


def test_load_raw_rejects_cells_past_the_header(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("record_id,qc_flag,pcr_result,age\nA,OK,POS,25\nB,OK,POS,25,99\n")
    with pytest.raises(DataError, match="'B'"):
        load_raw(path, Schema(questionnaire={"age": "age"}))
    # trailing empty cells are only trailing delimiters
    path.write_text("record_id,qc_flag,pcr_result,age\nA,OK,POS,25,, \n")
    (record,) = load_raw(path, Schema(questionnaire={"age": "age"}))
    assert record.fields == {"age": "25"}


def test_load_raw_mapped_name_shadows_same_named_column(tmp_path):
    path = tmp_path / "both.csv"
    path.write_text("record_id,qc_flag,pcr_result,AgeYears,age\nA,OK,POS,25,99\n")
    (record,) = load_raw(path, Schema(questionnaire={"age": "AgeYears"}))
    assert record.fields["age"] == "25"
    assert "AgeYears" not in record.fields


def test_load_raw_rejects_a_name_mapped_to_two_columns(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("record_id,qc_flag,pcr_result,pH,ph\nA,OK,POS,6,7\n")
    with pytest.raises(SchemaError, match="ph"):
        load_raw(path, Schema(questionnaire={"ph": "pH"}, biomarkers={"ph": "ph"}))
    (record,) = load_raw(path, Schema(questionnaire={"ph": "ph"}, biomarkers={"ph": "ph"}))
    assert record.fields == {"pH": "6", "ph": "7"}


@pytest.mark.parametrize(
    "cohort,beta",
    [("BetaLAMP", True), (" beta lamp ", True), ("Beta_LAMP", True), ("beta-lamp", True),
     ("UT2018", False), ("LeipzigCE2019", False), ("", False)],
)
def test_load_raw_marks_beta_assay_rows(tmp_path, cohort, beta):
    header = ["record_id", "source_cohort", "qc_flag", "pcr_result"]
    path = _write_rows(tmp_path / "c.csv", header, [["A", cohort, "OK", "POS"]])
    (record,) = load_raw(path, Schema())
    assert record.beta_assay is beta
    # without a cohort column no row is a beta-assay row
    assert load_raw(path, Schema(source_cohort=None))[0].beta_assay is False


# --- the urine-appearance column ------------------------------------------------
# No schema field maps it, so it is an unmapped column, kept verbatim in the
# record's fields under its header and read by no feature.

APPEARANCE_HEADER = ["record_id", "qc_flag", "pcr_result", "age", "visual_text"]
APPEARANCE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)


def _write_rows(path, header, rows, delimiter=","):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def test_visual_empty_and_none(fixtures_dir, tmp_path):
    # an empty appearance cell is kept as empty text; a file without the
    # column has no such entry; neither is an error
    records = load_raw(fixtures_dir / "cohort_small.csv", Schema())
    assert records[2].fields["visual_text"] == ""
    path = _write_rows(tmp_path / "none.csv", APPEARANCE_HEADER[:-1], [["A", "OK", "POS", "25"]])
    (record,) = load_raw(path, Schema())
    assert record.fields == {"age": "25"}


def test_very_cloudy_never_degrades(tmp_path):
    # the text is not normalised: spacing, case and punctuation survive
    texts = ["very cloudy", "very   cloudy", " Very Cloudy; dark ", "cloudy", "Trüb (unklar)"]
    rows = [[f"R{i}", "OK", "POS", "25", text] for i, text in enumerate(texts)]
    path = _write_rows(tmp_path / "appearance.csv", APPEARANCE_HEADER, rows)
    assert [r.fields["visual_text"] for r in load_raw(path, Schema())] == texts


@given(APPEARANCE_TEXT)
@settings(max_examples=60, deadline=None)
def test_visual_total_and_deterministic(text):
    # any appearance text loads, loads the same twice, and leaves the
    # record's other fields as they are without the column
    with tempfile.TemporaryDirectory() as tmp:
        row = ["A", "OK", "POS", "25"]
        path = _write_rows(Path(tmp) / "with.csv", APPEARANCE_HEADER, [row + [text]])
        bare = _write_rows(Path(tmp) / "bare.csv", APPEARANCE_HEADER[:-1], [row])
        (first,) = load_raw(path, Schema())
        assert load_raw(path, Schema()) == [first]
        (without,) = load_raw(bare, Schema())
    fields = dict(first.fields)
    del fields["visual_text"]
    assert fields == without.fields
    assert (first.record_id, first.qc_flag, first.pcr_result, first.beta_assay) == (
        without.record_id, without.qc_flag, without.pcr_result, without.beta_assay,
    )


@given(APPEARANCE_TEXT, st.sampled_from([",", ";"]))
@settings(max_examples=60, deadline=None)
def test_visual_render_roundtrip(text, delimiter):
    # an appearance text written to a cohort file reads back verbatim
    with tempfile.TemporaryDirectory() as tmp:
        rows = [["A", "OK", "POS", "25", text]]
        path = _write_rows(Path(tmp) / "c.csv", APPEARANCE_HEADER, rows, delimiter)
        (record,) = load_raw(path, Schema())
    assert record.fields["visual_text"] == text


def test_load_raw_unparseable_pcr_is_invalid(tmp_path):
    path = tmp_path / "inv.csv"
    path.write_text("record_id,qc_flag,pcr_result\nA,OK,maybe\n")
    (record,) = load_raw(path, Schema())
    assert record.pcr_result is PcrResult.invalid


def test_load_raw_unassigned_columns_go_to_fields(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("record_id,qc_flag,pcr_result,extra_note\nA,OK,POS,hello\n")
    (record,) = load_raw(path, Schema())
    assert record.fields == {"extra_note": "hello"}


@given(st.booleans(), st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_load_raw_on_any_bytes_returns_records_or_raises_data_error(with_header, data):
    # with a valid header first, the rows themselves are exercised
    header = b"record_id,qc_flag,pcr_result\n" if with_header else b""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        path.write_bytes(header + data)
        try:
            records = load_raw(path, Schema())
        except DataError:
            return
    assert all(isinstance(record, RawRecord) for record in records)


# --- qc_filter ---------------------------------------------------------------------

def _record(record_id, qc="OK", beta=False, pcr=PcrResult.positive):
    return RawRecord(record_id=record_id, beta_assay=beta, qc_flag=qc, fields={}, pcr_result=pcr)


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
        _record("b", beta=True),
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
        _record(f"r{i}", qc=qc, beta=beta)
        for i, (qc, beta) in enumerate(spec)
    ]
    kept = qc_filter(records, {"OK"})
    ids = [r.record_id for r in records]
    kept_ids = [r.record_id for r in kept]
    it = iter(ids)
    assert all(any(x == k for x in it) for k in kept_ids)
