"""Raw cohort ingestion and deterministic text normalization.

Semi-quantitative lab strings such as "<5" or "7,2" are reduced to
numbers.  All parsing is total: no input string raises, unparseable
content degrades to missing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DataError, SchemaError

# --- category vocabularies -------------------------------------------------

class SourceCohort(str, Enum):
    UT2018 = "UT2018"
    LeipzigCE2019 = "LeipzigCE2019"
    BetaLAMP = "BetaLAMP"
    Other = "Other"


class PcrResult(str, Enum):
    positive = "positive"
    negative = "negative"
    invalid = "invalid"


# PCR label vocabulary, overridable through the schema config.
DEFAULT_PCR_POSITIVE = frozenset({"pos", "positive", "1", "true", "yes", "+"})
DEFAULT_PCR_NEGATIVE = frozenset({"neg", "negative", "0", "false", "no", "-"})

# QC flags accepted by default; the real flag vocabulary is deployment-specific.
DEFAULT_VALID_FLAGS = frozenset({"OK", "PASS", "VALID"})

_COHORT_ALIASES = {
    "ut2018": SourceCohort.UT2018,
    "ut_2018": SourceCohort.UT2018,
    "leipzigce2019": SourceCohort.LeipzigCE2019,
    "leipzig_ce_2019": SourceCohort.LeipzigCE2019,
    "leipzig2019": SourceCohort.LeipzigCE2019,
    "betalamp": SourceCohort.BetaLAMP,
    "beta_lamp": SourceCohort.BetaLAMP,
    "beta-lamp": SourceCohort.BetaLAMP,
}


# --- domain types ----------------------------------------------------------

@dataclass(frozen=True)
class RawRecord:
    record_id: str
    source_cohort: SourceCohort
    qc_flag: str
    questionnaire: dict
    biomarkers_raw: dict
    pcr_result: PcrResult


@dataclass(frozen=True)
class Schema:
    """Maps logical field names to column headers of the input file.

    ``questionnaire`` / ``biomarkers`` assign logical feature names to
    columns; every mapped column must exist in the file.  Columns mapped
    nowhere are retained in the questionnaire map under their own header.
    """

    record_id: str = "record_id"
    qc_flag: str = "qc_flag"
    pcr_result: str = "pcr_result"
    source_cohort: "str | None" = "source_cohort"
    questionnaire: dict = field(default_factory=dict)
    biomarkers: dict = field(default_factory=dict)
    pcr_positive: frozenset = DEFAULT_PCR_POSITIVE
    pcr_negative: frozenset = DEFAULT_PCR_NEGATIVE


# --- semi-quantitative parsing ----------------------------------------------

_INEQ_MARKERS = ("<=", ">=", "<", ">", "≤", "≥")


def parse_semiquant(text: "str | None") -> float:
    """Parse a lab value string to a float; "<5" gives 5.0.

    One leading inequality marker is stripped, decimal commas are accepted,
    surrounding whitespace is ignored.  Anything that does not leave a
    finite number is missing, returned as NaN.
    """
    if text is None:
        return math.nan
    stripped = text.strip()
    for marker in _INEQ_MARKERS:
        if stripped.startswith(marker):
            stripped = stripped[len(marker) :].strip()
            break
    try:
        value = float(stripped.replace(",", "."))
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


# --- file ingestion ----------------------------------------------------------

def _parse_pcr(raw: str, schema: Schema) -> PcrResult:
    norm = raw.strip().lower()
    if norm in schema.pcr_positive:
        return PcrResult.positive
    if norm in schema.pcr_negative:
        return PcrResult.negative
    return PcrResult.invalid


def parse_source_cohort(raw: "str | None") -> SourceCohort:
    if raw is None:
        return SourceCohort.Other
    return _COHORT_ALIASES.get(raw.strip().lower().replace(" ", ""), SourceCohort.Other)


def _sniff_delimiter(header_line: str) -> str:
    return ";" if header_line.count(";") > header_line.count(",") else ","


def load_raw(path, schema: Schema) -> list:
    """Read a delimited cohort file into RawRecords, preserving row order.

    The delimiter (comma or semicolon) is auto-detected from the header
    line, and a UTF-8 byte-order mark before the header is dropped.
    Every column named by the schema must be present; a missing one
    raises SchemaError naming the logical field.  A non-empty header that
    appears twice is a SchemaError too, because its cells would be
    ambiguous.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            content = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read cohort file {path}: {exc}") from exc
    if not content.strip():
        raise DataError(f"cohort file {path} is empty")

    delimiter = _sniff_delimiter(content.splitlines()[0])
    reader = csv.reader(io.StringIO(content), delimiter=delimiter)
    rows = list(reader)
    header = [h.strip() for h in rows[0]]
    repeated = sorted({name for name in header if name and header.count(name) > 1})
    if repeated:
        raise SchemaError(f"repeated column headers: {', '.join(repeated)}")
    col_index = {name: i for i, name in enumerate(header)}

    required = {
        "record_id": schema.record_id,
        "qc_flag": schema.qc_flag,
        "pcr_result": schema.pcr_result,
    }
    for logical, column in required.items():
        if column not in col_index:
            raise SchemaError(f"{logical} (column {column!r} not in file)")
    for logical, column in {**schema.questionnaire, **schema.biomarkers}.items():
        if column not in col_index:
            raise SchemaError(f"{logical} (column {column!r} not in file)")

    core_columns = set(required.values()) | {schema.source_cohort}
    assigned = core_columns | set(schema.questionnaire.values()) | set(schema.biomarkers.values())
    unassigned = [c for c in header if c not in assigned]

    def cell(row, column):
        idx = col_index.get(column)
        if idx is None or idx >= len(row):
            return ""
        return row[idx]

    records = []
    seen_ids = set()
    for row in rows[1:]:
        if not any(c.strip() for c in row):
            continue
        record_id = cell(row, schema.record_id).strip()
        if not record_id:
            raise DataError("row with empty record_id")
        if record_id in seen_ids:
            raise DataError(f"duplicate record_id {record_id!r}")
        seen_ids.add(record_id)

        questionnaire = {
            logical: cell(row, column) for logical, column in schema.questionnaire.items()
        }
        for column in unassigned:
            questionnaire[column] = cell(row, column)
        biomarkers = {
            logical: cell(row, column) for logical, column in schema.biomarkers.items()
        }
        source = (
            parse_source_cohort(cell(row, schema.source_cohort))
            if schema.source_cohort is not None and schema.source_cohort in col_index
            else SourceCohort.Other
        )
        records.append(
            RawRecord(
                record_id=record_id,
                source_cohort=source,
                qc_flag=cell(row, schema.qc_flag).strip(),
                questionnaire=questionnaire,
                biomarkers_raw=biomarkers,
                pcr_result=_parse_pcr(cell(row, schema.pcr_result), schema),
            )
        )
    return records


def qc_filter(records: list, valid_flags=DEFAULT_VALID_FLAGS) -> list:
    """Keep rows with an accepted QC flag, a usable PCR label, and a
    non-beta-assay source; relative order is preserved."""
    if not valid_flags:
        raise ValueError("valid_flags must be non-empty")
    return [
        r
        for r in records
        if r.qc_flag in valid_flags
        and r.source_cohort is not SourceCohort.BetaLAMP
        and r.pcr_result is not PcrResult.invalid
    ]
