"""Synthetic raw cohorts in the ingestion schema.

Continuous biomarkers are class-conditional Gaussians with a configured
standardized mean shift; patient-reported binaries are Bernoulli with a
log-odds shift.  Both families have closed-form large-sample AUCs which
are recorded in the ground-truth sidecar, so evaluation code can be
checked against known discrimination.
"""

from __future__ import annotations

import csv
import io
import json
import math
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
        if self.biomarker_signal < 0 or self.reported_signal < 0:
            raise ConfigError("signal strengths must be non-negative")
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


def implied_auc_binary(log_odds_shift: float, base_log_odds: float = 0.0) -> float:
    """Large-sample tie-aware AUC of a Bernoulli column under a log-odds shift."""
    p0 = 1.0 / (1.0 + math.exp(-base_log_odds))
    p1 = 1.0 / (1.0 + math.exp(-(base_log_odds + log_odds_shift)))
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
    """Build the full cohort table and ground-truth sidecar in memory.

    Deterministic: every column draws from its own substream under
    ``config.seed``, so equal configs give byte-identical files.
    """
    config.validate()
    n = config.n
    n_pos = positive_count(n, config.prevalence)

    label_gen = substream(config.seed, "synth", "labels")
    positive = np.zeros(n, dtype=bool)
    positive[label_gen.permutation(n)[:n_pos]] = True

    reported = {}
    for name in DEFAULT_F1_FEATURES:
        if name in ("gender", "age"):
            continue
        gen = substream(config.seed, "synth", "reported", name)
        shift = config.reported_signal if name in config.signal_reported else 0.0
        log_odds = np.where(positive, shift, 0.0)
        prob = 1.0 / (1.0 + np.exp(-log_odds))
        reported[name] = gen.random(n) < prob

    gender_gen = substream(config.seed, "synth", "gender")
    gender = np.where(gender_gen.random(n) < 0.5, "male", "female")
    age_gen = substream(config.seed, "synth", "age")
    ages = age_gen.integers(18, 50, size=n)

    biomarkers = {}
    for name in DEFAULT_F2_FEATURES:
        gen = substream(config.seed, "synth", "biomarker", name)
        mu, scale = BIOMARKER_BASES[name]
        shift = config.biomarker_signal if name in config.signal_biomarkers else 0.0
        centers = mu + np.where(positive, 0.5, -0.5) * shift * scale
        biomarkers[name] = gen.normal(loc=centers, scale=scale)

    source_gen = substream(config.seed, "synth", "source")
    sources = np.where(source_gen.random(n) < 0.5, "UT2018", "LeipzigCE2019")

    missing_gen = substream(config.seed, "synth", "missing")
    semiquant_gen = substream(config.seed, "synth", "semiquant")

    def maybe_missing(rendered: str) -> str:
        return "" if missing_gen.random() < config.missing_rate else rendered

    header = (
        ["record_id", "source_cohort", "qc_flag", "gender", "age"]
        + [name for name in DEFAULT_F1_FEATURES if name not in ("gender", "age")]
        + list(DEFAULT_F2_FEATURES)
        + ["pcr_result"]
    )
    rows = []
    for i in range(n):
        row = [
            f"S{i:04d}",
            str(sources[i]),
            "OK",
            maybe_missing(str(gender[i])),
            maybe_missing(str(int(ages[i]))),
        ]
        for name in DEFAULT_F1_FEATURES:
            if name in ("gender", "age"):
                continue
            row.append(maybe_missing("yes" if reported[name][i] else "no"))
        for name in DEFAULT_F2_FEATURES:
            rendered = f"{biomarkers[name][i]:.3f}"
            if semiquant_gen.random() < config.semiquant_rate:
                direction = "<" if semiquant_gen.random() < 0.5 else ">"
                rendered = f"{direction}{rendered}"
            row.append(maybe_missing(rendered))
        row.append("POS" if positive[i] else "NEG")
        rows.append(row)

    implied = {
        name: implied_auc_gaussian(config.biomarker_signal)
        for name in config.signal_biomarkers
    }
    implied.update(
        {name: implied_auc_binary(config.reported_signal) for name in config.signal_reported}
    )
    sidecar = {
        "format_version": 1,
        "config": {
            "n": config.n,
            "prevalence": config.prevalence,
            "biomarker_signal": config.biomarker_signal,
            "reported_signal": config.reported_signal,
            "missing_rate": config.missing_rate,
            "semiquant_rate": config.semiquant_rate,
            "seed": config.seed,
            "signal_biomarkers": list(config.signal_biomarkers),
            "signal_reported": list(config.signal_reported),
        },
        "n_positive": int(n_pos),
        "implied_auc": implied,
    }
    return CohortData(header=header, rows=rows, sidecar=sidecar)


def write_cohort(config: SynthConfig, out_dir) -> tuple:
    """Write cohort.csv and cohort_sidecar.json; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = generate_cohort(config)
    cohort_path = out_dir / COHORT_FILENAME
    sidecar_path = out_dir / SIDECAR_FILENAME
    cohort_path.write_text(cohort.to_csv(), encoding="utf-8")
    sidecar_path.write_text(
        json.dumps(cohort.sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return cohort_path, sidecar_path
