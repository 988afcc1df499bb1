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

class PcrResult(str, Enum):
    positive = "positive"
    negative = "negative"
    invalid = "invalid"


# PCR label vocabulary, overridable through the schema config.
DEFAULT_PCR_POSITIVE = frozenset({"pos", "positive", "1", "true", "yes", "+"})
DEFAULT_PCR_NEGATIVE = frozenset({"neg", "negative", "0", "false", "no", "-"})

# QC flags ``ExperimentConfig`` accepts by default; the real flag
# vocabulary is deployment-specific.
DEFAULT_VALID_FLAGS = frozenset({"OK", "PASS", "VALID"})

# Source-cohort spellings (lower case, spaces removed) of the beta-LAMP
# assay cohort, which qc_filter excludes.
_BETA_ASSAY_COHORTS = frozenset({"betalamp", "beta_lamp", "beta-lamp"})


# --- domain types ----------------------------------------------------------

@dataclass(frozen=True)
class RawRecord:
    """One parsed row.  ``fields`` maps each feature name to its raw cell
    text: the logical names of both schema maps, and every unmapped
    column under its own header.  ``beta_assay`` marks a row whose source
    cohort is the beta-LAMP assay."""

    record_id: str
    beta_assay: bool
    qc_flag: str
    fields: dict
    pcr_result: PcrResult


@dataclass(frozen=True)
class Schema:
    """Maps logical field names to column headers of the input file.

    ``questionnaire`` / ``biomarkers`` assign logical feature names to
    columns; every mapped column must exist in the file.  Both maps feed
    one ``RawRecord.fields`` dict, which also holds every column mapped
    nowhere under its own header; a mapped name shadows a header of the
    same name.  A feature's group comes from the feature groups, not from
    the map that names its column.
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


def _sniff_delimiter(header_line: str) -> str:
    return ";" if header_line.count(";") > header_line.count(",") else ","


def _csv_rows(text, delimiter: str, path):
    """The csv rows of ``text``; a malformed line is a DataError naming
    the file and the line."""
    reader = csv.reader(text, delimiter=delimiter)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"cohort file {path} line {reader.line_num}: {exc}") from exc


def load_raw(path, schema: Schema) -> list:
    """Read a delimited cohort file into RawRecords, preserving row order.

    The delimiter (comma or semicolon) is auto-detected from the header
    line, and a UTF-8 byte-order mark before the header is dropped.
    Every column named by the schema must be present; a missing one
    raises SchemaError naming the logical field.  A non-empty header that
    appears twice is a SchemaError too, because its cells would be
    ambiguous, and so is a name the two schema maps send to different
    columns.  A row with a non-empty cell past the last header is a
    DataError naming the record: its cells are likely shifted.  A file
    that is not UTF-8 text, or a line the csv module cannot split (a bare
    carriage return outside quotes, say), is a DataError naming the file.

    The cohort is held once: rows are parsed one at a time from an
    in-memory copy of the file's text, and equal cells share one string
    across all records.  The whole file is still read, on purpose.
    glibc malloc raises its mmap threshold, and its heap trim threshold
    to twice that, to the size of the largest mmapped block freed so far.
    The ``io.StringIO`` copy takes four bytes per character, so freeing
    it after a 1000-row cohort (about 0.5 MiB) lifts both thresholds
    above the size of the model fits' temporaries.  Without that copy, a
    1000-row RF and GBT run took 50k to 180k minor page faults instead of
    about 2k, whether rows came from the string directly or from the file
    handle.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            content = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read cohort file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cohort file {path} is not UTF-8 text: {exc}") from exc
    if not content.strip():
        raise DataError(f"cohort file {path} is empty")

    text = io.StringIO(content)
    delimiter = _sniff_delimiter(text.readline().splitlines()[0])
    text.seek(0)
    rows = _csv_rows(text, delimiter, path)
    header = [h.strip() for h in next(rows)]
    repeated = sorted({name for name in header if name and header.count(name) > 1})
    if repeated:
        raise SchemaError(f"repeated column headers: {', '.join(repeated)}")
    col_index = {name: i for i, name in enumerate(header)}

    required = {
        "record_id": schema.record_id,
        "qc_flag": schema.qc_flag,
        "pcr_result": schema.pcr_result,
    }
    mapped = {**schema.questionnaire, **schema.biomarkers}
    for logical, column in [*required.items(), *mapped.items()]:
        if column not in col_index:
            raise SchemaError(f"{logical} (column {column!r} not in file)")
    clashes = sorted(n for n, c in schema.questionnaire.items() if schema.biomarkers.get(n, c) != c)
    if clashes:
        raise SchemaError(f"mapped to two different columns: {', '.join(clashes)}")

    assigned = set(required.values()) | {schema.source_cohort} | set(mapped.values())
    field_columns = {c: c for c in header if c not in assigned} | mapped

    def cell(row, column):
        idx = col_index.get(column)
        if idx is None or idx >= len(row):
            return ""
        return row[idx]

    records = []
    seen_ids = set()
    texts = {}  # each distinct cell text, stored once
    for row in rows:
        if not any(c.strip() for c in row):
            continue
        row = [texts.setdefault(c, c) for c in row]
        record_id = cell(row, schema.record_id).strip()
        if not record_id:
            raise DataError("row with empty record_id")
        if any(c.strip() for c in row[len(header) :]):
            raise DataError(f"record {record_id!r} has cells past the last of {len(header)} columns")
        if record_id in seen_ids:
            raise DataError(f"duplicate record_id {record_id!r}")
        seen_ids.add(record_id)

        cohort = cell(row, schema.source_cohort).strip().lower().replace(" ", "")
        records.append(
            RawRecord(
                record_id=record_id,
                beta_assay=cohort in _BETA_ASSAY_COHORTS,
                qc_flag=cell(row, schema.qc_flag).strip(),
                fields={name: cell(row, column) for name, column in field_columns.items()},
                pcr_result=_parse_pcr(cell(row, schema.pcr_result), schema),
            )
        )
    return records


def qc_filter(records: list, valid_flags) -> list:
    """Keep rows with an accepted QC flag, a usable PCR label, and a
    non-beta-assay source; relative order is preserved."""
    return [
        r
        for r in records
        if r.qc_flag in valid_flags
        and not r.beta_assay
        and r.pcr_result is not PcrResult.invalid
    ]
