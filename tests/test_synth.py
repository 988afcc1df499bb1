import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptrisk.curation import (
    DEFAULT_F1_FEATURES,
    DEFAULT_F2_FEATURES,
    assemble,
    encode_features,
    exclude_features,
    labels_from_records,
)
from ptrisk.errors import ConfigError
from ptrisk.parsers import Schema, load_raw, parse_semiquant, qc_filter
from ptrisk.synth import (
    SynthConfig,
    generate_cohort,
    implied_auc_binary,
    implied_auc_gaussian,
    positive_count,
    write_cohort,
)

FULL_SCHEMA = Schema(
    questionnaire={name: name for name in DEFAULT_F1_FEATURES},
    biomarkers={name: name for name in DEFAULT_F2_FEATURES},
)


def test_paper_scale_positive_count():
    cohort = generate_cohort(SynthConfig(n=93, prevalence=0.80, seed=5))
    labels = [row[-1] for row in cohort.rows]
    assert labels.count("POS") == 74
    assert cohort.sidecar["n_positive"] == 74


@given(st.integers(4, 200), st.floats(0.05, 0.95), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_exact_prevalence(n, prevalence, seed):
    expected = positive_count(n, prevalence)
    if not 1 <= expected <= n - 1:
        return
    cohort = generate_cohort(SynthConfig(n=n, prevalence=prevalence, seed=seed))
    labels = [row[-1] for row in cohort.rows]
    assert labels.count("POS") == expected


def test_deterministic_bytes(tmp_path):
    config = SynthConfig(n=40, prevalence=0.5, biomarker_signal=0.8, seed=77,
                         missing_rate=0.1, semiquant_rate=0.2)
    a = generate_cohort(config).to_csv()
    b = generate_cohort(config).to_csv()
    assert a == b
    c = generate_cohort(SynthConfig(n=40, prevalence=0.5, biomarker_signal=0.8, seed=78,
                                    missing_rate=0.1, semiquant_rate=0.2)).to_csv()
    assert a != c


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(prevalence=1.5).validate()
    with pytest.raises(ConfigError):
        SynthConfig(prevalence=0.0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(n=1).validate()
    with pytest.raises(ConfigError):
        SynthConfig(missing_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        SynthConfig(signal_biomarkers=("nope",)).validate()


def test_implied_auc_closed_form():
    # shift 1.19 standard deviations corresponds to AUC ~ 0.80
    assert implied_auc_gaussian(1.19) == pytest.approx(0.80, abs=1e-3)
    assert implied_auc_gaussian(0.0) == 0.5


def test_implied_auc_gaussian_monte_carlo():
    delta = 1.19
    gen = np.random.default_rng(123)
    pos = gen.normal(loc=delta, size=1_000_000)
    neg = gen.normal(size=1_000_000)
    mc = float((pos > neg).mean())
    assert implied_auc_gaussian(delta) == pytest.approx(mc, abs=2e-3)


def test_implied_auc_binary_monte_carlo():
    shift = 1.3
    gen = np.random.default_rng(42)
    p1 = 1.0 / (1.0 + math.exp(-shift))
    pos = gen.random(1_000_000) < p1
    neg = gen.random(1_000_000) < 0.5
    mc = float((pos > neg).mean() + 0.5 * (pos == neg).mean())
    assert implied_auc_binary(shift) == pytest.approx(mc, abs=2e-3)


def test_sidecar_records_implied_aucs():
    config = SynthConfig(n=50, prevalence=0.5, biomarker_signal=1.19, reported_signal=0.7, seed=1)
    sidecar = generate_cohort(config).sidecar
    for name in config.signal_biomarkers:
        assert sidecar["implied_auc"][name] == pytest.approx(0.80, abs=1e-3)
    for name in config.signal_reported:
        assert sidecar["implied_auc"][name] == implied_auc_binary(0.7)


def test_visual_rendering_roundtrips(tmp_path):
    # the cohort renders no appearance field and no other unmapped column:
    # every rendered cell reads back verbatim under its mapped name
    config = SynthConfig(n=40, prevalence=0.5, missing_rate=0.1, semiquant_rate=0.3, seed=9)
    cohort = generate_cohort(config)
    cohort_path, _ = write_cohort(config, tmp_path)
    records = load_raw(cohort_path, FULL_SCHEMA)
    assert "visual_text" not in cohort.header
    assert len(records) == len(cohort.rows)
    for row, record in zip(cohort.rows, records):
        cells = dict(zip(cohort.header, row))
        assert record.record_id == cells["record_id"]
        assert record.questionnaire == {name: cells[name] for name in DEFAULT_F1_FEATURES}
        assert record.biomarkers_raw == {name: cells[name] for name in DEFAULT_F2_FEATURES}


def test_semiquant_rendering_parses_back():
    config = SynthConfig(n=30, prevalence=0.5, semiquant_rate=1.0, seed=3)
    cohort = generate_cohort(config)
    biomarker_start = cohort.header.index(DEFAULT_F2_FEATURES[0])
    saw_inequality = False
    for row in cohort.rows:
        for j, name in enumerate(DEFAULT_F2_FEATURES):
            raw = row[biomarker_start + j]
            marked = raw[0] in "<>"
            assert parse_semiquant(raw) == float(raw[1:] if marked else raw)
            saw_inequality = saw_inequality or marked
    assert saw_inequality


def test_roundtrip_through_ingestion_and_curation(tmp_path):
    config = SynthConfig(
        n=60, prevalence=0.5, biomarker_signal=0.5, reported_signal=0.5,
        missing_rate=0.0, semiquant_rate=0.25, seed=11,
    )
    cohort_path, sidecar_path = write_cohort(config, tmp_path)
    assert cohort_path.exists() and sidecar_path.exists()
    records = qc_filter(load_raw(cohort_path, FULL_SCHEMA))
    assert len(records) == 60
    table = encode_features(records)
    table, dropped = exclude_features(table)
    ds = assemble(table, labels_from_records(records), dropped_features=dropped)
    assert ds.n == 60  # no rows lost when missing_rate is 0
    assert ds.matrices["F3"].shape[1] == len(DEFAULT_F1_FEATURES) + len(DEFAULT_F2_FEATURES)
    assert ds.matrices["F1"].shape[1] == 13
    assert ds.matrices["F2"].shape[1] == 9


def test_missingness_drops_rows_downstream(tmp_path):
    config = SynthConfig(n=80, prevalence=0.5, missing_rate=0.08, seed=21)
    cohort_path, _ = write_cohort(config, tmp_path)
    records = qc_filter(load_raw(cohort_path, FULL_SCHEMA))
    table = encode_features(records)
    table, dropped = exclude_features(table)
    ds = assemble(table, labels_from_records(records), dropped_features=dropped)
    assert ds.n < 80
    assert ds.n + len(ds.dropped_rows) == 80
