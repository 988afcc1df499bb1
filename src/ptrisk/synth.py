"""Synthetic raw cohorts in the ingestion schema.

Continuous biomarkers are class-conditional Gaussians with a configured
standardized mean shift; patient-reported binaries are Bernoulli with a
log-odds shift.  Both families have closed-form large-sample AUCs which
are recorded in the ground-truth sidecar, so evaluation code can be
checked against known discrimination.

Each column draws whole from its own substream of ``config.seed``, under
``("synth", ...)``: ``labels`` (one permutation; its first
round(n * prevalence) rows are positive), ``source``, ``gender``,
``age``, ``("reported", name)`` for each reported binary and
``("biomarker", name)`` for each biomarker.  Two streams are read cell
by cell.  ``missing`` is one uniform per feature cell, row by row over
the 22 feature columns in header order (gender, age, the reported
binaries, the biomarkers); a cell below ``missing_rate`` is blank.
``semiquant`` scans the biomarker cells row by row: one uniform per
cell, and for a cell below ``semiquant_rate`` a second that renders it
"<x" (below 0.5) or ">x".  So equal configs give byte-identical files.

``make_out_dir`` makes the output directory of ``synth`` and of ``run``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curation import DEFAULT_F1_FEATURES, DEFAULT_F2_FEATURES
from .errors import ConfigError
from .rng import substream

# Per-biomarker base (mean, scale); clinical realism is out of scope,
# these only give the columns distinct magnitudes.
BIOMARKER_BASES = {
    "leukocytes": (15.0, 10.0),
    "bilirubin": (0.5, 0.3),
    "protein": (20.0, 12.0),
    "specific_gravity": (1.018, 0.006),
    "ph": (6.2, 0.7),
    "ascorbic_acid": (10.0, 6.0),
    "microalbumin": (18.0, 9.0),
    "calcium": (2.3, 0.8),
    "creatinine": (95.0, 35.0),
}

REPORTED_FEATURES = tuple(name for name in DEFAULT_F1_FEATURES if name not in ("gender", "age"))

COHORT_FILENAME = "cohort.csv"
SIDECAR_FILENAME = "cohort_sidecar.json"


@dataclass(frozen=True)
class SynthConfig:
    n: int = 93
    prevalence: float = 0.80
    biomarker_signal: float = 0.0  # standardized mean shift, designated F2 columns
    reported_signal: float = 0.0  # log-odds shift, designated F1 binaries
    missing_rate: float = 0.0
    semiquant_rate: float = 0.0  # fraction of biomarker cells rendered "<x"/">x"
    seed: int = 20190101
    signal_biomarkers: tuple = ("leukocytes", "bilirubin", "protein")
    signal_reported: tuple = ("new_sexual_partner", "prior_std")

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        for name in ("prevalence", "missing_rate", "semiquant_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1], got {value}")
        for name in ("biomarker_signal", "reported_signal"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        n_pos = positive_count(self.n, self.prevalence)
        if not 1 <= n_pos <= self.n - 1:
            raise ConfigError(
                f"prevalence {self.prevalence} with n={self.n} leaves a single class"
            )
        unknown_b = set(self.signal_biomarkers) - set(DEFAULT_F2_FEATURES)
        unknown_r = set(self.signal_reported) - set(DEFAULT_F1_FEATURES)
        if unknown_b or unknown_r:
            raise ConfigError(f"unknown signal columns: {sorted(unknown_b | unknown_r)}")


def positive_count(n: int, prevalence: float) -> int:
    """round(n * prevalence) with half-up rounding."""
    return int(math.floor(n * prevalence + 0.5))


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def implied_auc_gaussian(shift: float) -> float:
    """Large-sample AUC of one column whose class means differ by
    ``shift`` standard deviations (equal variances)."""
    return normal_cdf(shift / math.sqrt(2.0))


def implied_auc_binary(log_odds_shift: float) -> float:
    """Large-sample tie-aware AUC of a Bernoulli column whose negatives
    have log-odds 0 and positives log-odds ``log_odds_shift``."""
    p0 = 0.5
    p1 = 1.0 / (1.0 + math.exp(-log_odds_shift))
    return p1 * (1.0 - p0) + 0.5 * (p1 * p0 + (1.0 - p1) * (1.0 - p0))


@dataclass
class CohortData:
    header: list
    rows: list  # list of list-of-str, ready for csv writing
    sidecar: dict

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buffer.getvalue()


def generate_cohort(config: SynthConfig) -> CohortData:
    """Build the full cohort table and ground-truth sidecar in memory,
    drawing each column whole from its substream (module docstring)."""
    config.validate()
    n = config.n
    n_pos = positive_count(n, config.prevalence)

    def draw(*path) -> np.random.Generator:
        return substream(config.seed, "synth", *path)

    positive = np.zeros(n, dtype=bool)
    positive[draw("labels").permutation(n)[:n_pos]] = True

    width = max(4, len(str(n - 1)))  # zero-padded ids sort as text in numeric order
    columns = {
        "record_id": np.char.mod(f"S%0{width}d", np.arange(n)),
        "source_cohort": np.where(draw("source").random(n) < 0.5, "UT2018", "LeipzigCE2019"),
        "qc_flag": np.full(n, "OK"),
        "gender": np.where(draw("gender").random(n) < 0.5, "male", "female"),
        "age": draw("age").integers(18, 50, size=n).astype(str),
    }
    for name in REPORTED_FEATURES:
        shift = config.reported_signal if name in config.signal_reported else 0.0
        prob = 1.0 / (1.0 + np.exp(-np.where(positive, shift, 0.0)))
        columns[name] = np.where(draw("reported", name).random(n) < prob, "yes", "no")

    semiquant_gen = draw("semiquant")
    marks = np.full((n, len(DEFAULT_F2_FEATURES)), "")
    for cell in np.ndindex(marks.shape):  # row-major
        if semiquant_gen.random() < config.semiquant_rate:
            marks[cell] = "<" if semiquant_gen.random() < 0.5 else ">"
    for j, name in enumerate(DEFAULT_F2_FEATURES):
        mu, scale = BIOMARKER_BASES[name]
        shift = config.biomarker_signal if name in config.signal_biomarkers else 0.0
        centers = mu + np.where(positive, 0.5, -0.5) * shift * scale
        values = draw("biomarker", name).normal(loc=centers, scale=scale)
        columns[name] = np.char.add(marks[:, j], np.char.mod("%.3f", values))

    features = ["gender", "age", *REPORTED_FEATURES, *DEFAULT_F2_FEATURES]
    missing = draw("missing").random((n, len(features))) < config.missing_rate
    for j, name in enumerate(features):
        columns[name] = np.where(missing[:, j], "", columns[name])
    columns["pcr_result"] = np.where(positive, "POS", "NEG")

    implied = {
        name: implied_auc_gaussian(config.biomarker_signal)
        for name in config.signal_biomarkers
    }
    implied.update(
        {name: implied_auc_binary(config.reported_signal) for name in config.signal_reported}
    )
    sidecar = {
        "format_version": 1,
        "config": dataclasses.asdict(config),
        "n_positive": int(n_pos),
        "implied_auc": implied,
    }
    rows = np.column_stack(list(columns.values())).tolist()
    return CohortData(header=list(columns), rows=rows, sidecar=sidecar)


def make_out_dir(out_dir) -> Path:
    """Make the output directory ``out_dir`` if it is missing and return it
    as a Path.  A path the OS refuses to make (it names a file, runs
    through one, or is not writable) is a ConfigError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from exc
    return out_dir


def write_cohort(config: SynthConfig, out_dir) -> tuple:
    """Write cohort.csv and cohort_sidecar.json; returns both paths."""
    out_dir = make_out_dir(out_dir)
    cohort = generate_cohort(config)
    cohort_path = out_dir / COHORT_FILENAME
    sidecar_path = out_dir / SIDECAR_FILENAME
    # no newline translation, so every OS writes the same bytes
    cohort_path.write_text(cohort.to_csv(), encoding="utf-8", newline="")
    sidecar_path.write_text(
        json.dumps(cohort.sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline=""
    )
    return cohort_path, sidecar_path
