import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptrisk.curation import (
    DEFAULT_F1_FEATURES,
    DEFAULT_F2_FEATURES,
    CurationSettings,
    FeatureGroups,
    assemble,
    encode_features,
    exclude_features,
    labels_from_records,
)
from ptrisk.errors import ConfigError
from ptrisk.parsers import DEFAULT_VALID_FLAGS, Schema, load_raw, parse_semiquant, qc_filter
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


def test_record_ids_sort_as_text_in_numeric_order():
    # four digits up to 10,000 rows, so every pinned cohort keeps its ids,
    # and wider past that, so the canonical record_id order is the row order
    assert generate_cohort(SynthConfig(n=10, prevalence=0.5, seed=1)).rows[-1][0] == "S0009"
    ids = [row[0] for row in generate_cohort(SynthConfig(n=10_001, prevalence=0.5, seed=1)).rows]
    assert (ids[0], ids[-1]) == ("S00000", "S10000")
    assert sorted(ids) == ids


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


def test_sidecar_config_is_every_synth_setting(tmp_path):
    config = SynthConfig(n=50, prevalence=0.5, missing_rate=0.1, signal_reported=("prior_std",))
    _, sidecar_path = write_cohort(config, tmp_path)
    recorded = json.loads(sidecar_path.read_text())["config"]
    assert set(recorded) == {field.name for field in dataclasses.fields(SynthConfig)}
    as_tuples = {key: tuple(v) if isinstance(v, list) else v for key, v in recorded.items()}
    assert SynthConfig(**as_tuples) == config


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
        features = DEFAULT_F1_FEATURES + DEFAULT_F2_FEATURES
        assert record.fields == {name: cells[name] for name in features}


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
    records = qc_filter(load_raw(cohort_path, FULL_SCHEMA), DEFAULT_VALID_FLAGS)
    assert len(records) == 60
    table = encode_features(records, FeatureGroups(), CurationSettings())
    table, dropped = exclude_features(table, CurationSettings())
    assert dropped == []
    ds = assemble(table, labels_from_records(records))
    assert ds.n == 60  # no rows lost when missing_rate is 0
    assert ds.matrices["F3"].shape[1] == len(DEFAULT_F1_FEATURES) + len(DEFAULT_F2_FEATURES)
    assert ds.matrices["F1"].shape[1] == 13
    assert ds.matrices["F2"].shape[1] == 9


def test_missingness_drops_rows_downstream(tmp_path):
    config = SynthConfig(n=80, prevalence=0.5, missing_rate=0.08, seed=21)
    cohort_path, _ = write_cohort(config, tmp_path)
    records = qc_filter(load_raw(cohort_path, FULL_SCHEMA), DEFAULT_VALID_FLAGS)
    table = encode_features(records, FeatureGroups(), CurationSettings())
    table, _ = exclude_features(table, CurationSettings())
    ds = assemble(table, labels_from_records(records))
    assert ds.n < 80
    assert ds.n + len(ds.dropped_rows) == 80


# The [synth] settings every perfbench workload shares (perfbench/workloads.py).
WORKLOAD_SYNTH = dict(prevalence=0.80, biomarker_signal=0.8, reported_signal=0.5,
                      semiquant_rate=0.1, seed=20190101)
PINNED_CONFIGS = {
    "defaults": SynthConfig(),
    "paper93": SynthConfig(n=93, missing_rate=0.0, **WORKLOAD_SYNTH),
    "ci1k": SynthConfig(n=1000, missing_rate=0.02, **WORKLOAD_SYNTH),
    "trees1k": SynthConfig(n=1000, missing_rate=0.0, **WORKLOAD_SYNTH),
    "dense": SynthConfig(n=200, prevalence=0.5, biomarker_signal=1.0, reported_signal=0.7,
                         missing_rate=0.3, semiquant_rate=0.9, seed=7,
                         signal_biomarkers=("ph", "creatinine"),
                         signal_reported=("prior_std",)),
    "six_digit_ids": SynthConfig(n=10_001, prevalence=0.5, missing_rate=0.05,
                                 semiquant_rate=0.2, seed=1),
}
# sha256 of (cohort.csv, cohort_sidecar.json) for each config above
PINNED_DIGESTS = {
    "defaults": ("dd7d3c0cb548d5517814ed7ef497f3802a0349fb1dd1fceea14bc07925649aa2",
                 "05f29acd0b0dc97378eda3b43b6627c567bc67f5f3ff8249151a7f8b29bf39c2"),
    "paper93": ("508b06a825a4d87c89882d553ddeb0ebee0d872433c912f4a081c59368c4f29a",
                "9418dcd992f02598d6d37fd60e0c7be4d890eac5fa4d5ff1d9a4727ad2249b10"),
    "ci1k": ("9e8888770eb85f3efa77983c0d8c7a9e46ebdedd7a472197a373d28b88754766",
             "e8ea98ac2a2c0f09d996a9a38eb9d1f0bedc2664da49c26f43f216928e00db00"),
    "trees1k": ("ad94feec5e49ebcb7608fc7b3a3028ab8e4b9a6fab3b6e899aa15b341ee04e3d",
                "4c689ecec17384adc935f0e60c8f1c340b4dd932ea363d0b7e34d1b59215d4dc"),
    "dense": ("c4d01a782e39eaea61695c63e197dc5dd585b4b65405fac1672f116bd98ca49e",
              "180ad21974804ae3e70e31b5e2caa4e36a6ee463fee5fc2644085f4d7585ed64"),
    "six_digit_ids": ("0e8ef30e102a806b186a65ef7a8ece5d026722452f1245afd53c90cf76617d24",
                      "4f75cf7a796e900b3c2085af5580b98376bf35271ba440347a14fcfc62025b66"),
}


def test_written_cohort_bytes_are_pinned(tmp_path):
    # every benchmark workload and the golden bundle run on synth cohorts,
    # so the same [synth] settings must keep writing the same bytes
    digests = {}
    for name, config in PINNED_CONFIGS.items():
        paths = write_cohort(config, tmp_path / name)
        digests[name] = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == PINNED_DIGESTS
