import hashlib
import json
import re
from pathlib import Path

import pytest

from ptrisk.cli import main
from ptrisk.config import load_config
from ptrisk.report import _fmt


def write_ini(path: Path, out_dir: Path, **overrides) -> Path:
    sections = {
        "input": {"path": str(out_dir / "cohort.csv")},
        "synth": {"n": "60", "prevalence": "0.7", "biomarker_signal": "0.9", "seed": "7"},
        "protocol": {"bootstrap_samples": "50"},
        "models": {"run": "RF"},
        "groups": {"run": "F2"},
        "output": {"dir": str(out_dir)},
    }
    for section, values in overrides.items():
        sections.setdefault(section, {}).update(values)
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
    path.write_text("\n".join(lines) + "\n")
    return path


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_default_demo(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    cohort = (tmp_path / "cohort.csv").read_text().splitlines()
    assert len(cohort) == 94  # header + 93 rows
    assert sum(1 for line in cohort[1:] if line.endswith("POS")) == 74
    sidecar = json.loads((tmp_path / "cohort_sidecar.json").read_text())
    assert sidecar["n_positive"] == 74


def test_synth_seed_changes_digest(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--out", str(a), "--seed", "1"]) == 0
    assert main(["synth", "--out", str(b), "--seed", "2"]) == 0
    assert digest(a / "cohort.csv") != digest(b / "cohort.csv")


def test_synth_invalid_prevalence_exit_1(tmp_path, capsys):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, synth={"prevalence": "1.5"})
    assert main(["synth", "--config", str(ini)]) == 1
    assert "prevalence" in capsys.readouterr().err


def test_run_restricted_grid(tmp_path, capsys):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    assert (tmp_path / "metrics_F2_RF.json").exists()
    assert (tmp_path / "oof_F2_RF.csv").exists()
    payload = json.loads((tmp_path / "metrics_F2_RF.json").read_text())
    assert payload["protocol"] == {
        "k": 5,
        "seed": 42,
        "threshold": 0.5,
        "bootstrap_samples": 50,
        "alpha": 0.05,
    }
    assert payload["n"] == 60
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert set(manifest["files"]) == {
        "curation_report.json",
        "cohort_summary.json",
        "metrics_F2_RF.json",
        "oof_F2_RF.csv",
        "table_F2.csv",
        "table_F2_extended.csv",
        "plot_auc_ci.csv",
        "plot_sens_spec.csv",
        "plot_age_hist.csv",
    }


def test_run_missing_input_exit_2(tmp_path, capsys):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "ingest" in err
    # partial outputs are removed on failure
    assert not (tmp_path / "manifest.json").exists()


def test_run_internal_error_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("ptrisk.cli.run_experiment", lambda config: 1 / 0)
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    assert main(["run", "--config", str(ini)]) == 3


def test_failed_rerun_keeps_previous_bundle(tmp_path):
    grid = {"models": {"run": "DT"}, "groups": {"run": "F1"}}
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, **grid)
    bad = write_ini(tmp_path / "bad.ini", tmp_path, protocol={"k": "500"}, **grid)
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    before = {p.name: digest(p) for p in tmp_path.iterdir()}

    assert main(["run", "--config", str(bad)]) == 3  # k exceeds the 60 rows
    after = {p.name: digest(p) for p in tmp_path.iterdir()}
    assert after == before
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert {name: after[name] for name in manifest["files"]} == manifest["files"]


def test_oof_file_shape(tmp_path):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    main(["synth", "--config", str(ini)])
    main(["run", "--config", str(ini)])
    lines = (tmp_path / "oof_F2_RF.csv").read_text().splitlines()
    assert lines[0] == "record_id,fold,y,p_hat"
    assert len(lines) == 61
    record_id, fold, y, p_hat = lines[1].split(",")
    assert record_id.startswith("S")
    assert int(fold) in range(5)
    assert int(y) in (0, 1)
    assert 0.0 <= float(p_hat) <= 1.0


def test_full_grid_cardinality_and_tables(tmp_path):
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        models={"run": "LR|DT|RF|GBT|KNN"},
        groups={"run": "F1|F2|F3"},
        synth={"n": "50", "prevalence": "0.6", "biomarker_signal": "0.9", "seed": "3"},
        protocol={"bootstrap_samples": "25"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    metrics = list(tmp_path.glob("metrics_*.json"))
    assert len(metrics) == 15
    table = (tmp_path / "table_F1.csv").read_text().splitlines()
    assert table[0] == "model,auc_95ci,precision_95ci,f1_95ci"
    assert [line.split(",")[0] for line in table[1:6]] == ["LR", "DT", "RF", "XGB", "KNN"]
    assert table[6].startswith("#")  # XGB footnote
    auc_rows = (tmp_path / "plot_auc_ci.csv").read_text().splitlines()
    assert auc_rows[1].startswith("reference,,,0.5")
    assert len(auc_rows) == 2 + 15  # header + reference + grid
    hist_rows = (tmp_path / "plot_age_hist.csv").read_text().splitlines()[1:]
    assert sum(int(r.split(",")[2]) for r in hist_rows) == 50


def test_rerun_reproduces_digests(tmp_path):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    main(["synth", "--config", str(ini)])
    assert main(["run", "--config", str(ini)]) == 0
    first = json.loads((tmp_path / "manifest.json").read_text())
    assert main(["run", "--config", str(ini)]) == 0
    second = json.loads((tmp_path / "manifest.json").read_text())
    assert first == second


def test_tables_and_plotdata_regenerate(tmp_path):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    main(["synth", "--config", str(ini)])
    main(["run", "--config", str(ini)])
    before = digest(tmp_path / "table_F2.csv")
    (tmp_path / "table_F2.csv").unlink()
    assert main(["tables", "--config", str(ini)]) == 0
    assert digest(tmp_path / "table_F2.csv") == before
    before_plot = digest(tmp_path / "plot_auc_ci.csv")
    assert main(["plotdata", "--config", str(ini)]) == 0
    assert digest(tmp_path / "plot_auc_ci.csv") == before_plot


def test_tables_and_plotdata_refuse_untrusted_bundle(tmp_path, capsys):
    grid = {"models": {"run": "DT"}, "groups": {"run": "F1"}}
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, **grid)
    other = write_ini(tmp_path / "other.ini", tmp_path, protocol={"seed": "7"}, **grid)
    main(["synth", "--config", str(ini)])
    assert main(["run", "--config", str(ini)]) == 0
    manifest = tmp_path / "manifest.json"
    pristine = manifest.read_bytes()

    # a config with another config_hash does not own this bundle
    for command in ("tables", "plotdata"):
        assert main([command, "--config", str(other)]) == 2
        assert "different config" in capsys.readouterr().err
    assert manifest.read_bytes() == pristine

    # an input file that no longer matches its manifest digest
    metrics = tmp_path / "metrics_F1_DT.json"
    original = metrics.read_bytes()
    metrics.write_bytes(original.replace(b'"n": 60', b'"n": 61'))
    assert main(["tables", "--config", str(ini)]) == 2
    assert "metrics_F1_DT.json" in capsys.readouterr().err
    metrics.write_bytes(original)
    summary = tmp_path / "cohort_summary.json"
    summary.write_bytes(summary.read_bytes() + b" ")
    assert main(["plotdata", "--config", str(ini)]) == 2
    assert "cohort_summary.json" in capsys.readouterr().err
    assert manifest.read_bytes() == pristine

    manifest.unlink()
    assert main(["tables", "--config", str(ini)]) == 2
    assert "manifest.json" in capsys.readouterr().err


def test_tables_on_incomplete_bundle_exit_2(tmp_path, capsys):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    main(["synth", "--config", str(ini)])
    main(["run", "--config", str(ini)])
    (tmp_path / "metrics_F2_RF.json").unlink()
    assert main(["tables", "--config", str(ini)]) == 2
    assert "F2/RF" in capsys.readouterr().err


def test_fmt_rendering():
    assert _fmt(0.672649, 0.5557, 0.7923, 4) == "0.6726 [0.5557, 0.7923]"
    assert _fmt(0.5, 0.25, 0.75, 3) == "0.500 [0.250, 0.750]"
    assert _fmt(None, None, None, 4) == "NA(single-class)"
    assert _fmt(0.25, None, None, 3) == "0.250 [NA, NA]"


def test_load_config_defaults_match_protocol(tmp_path):
    config = load_config(None)
    assert (config.k, config.seed, config.threshold) == (5, 42, 0.5)
    assert (config.bootstrap_samples, config.alpha) == (1000, 0.05)
    assert config.run_models == ("LR", "DT", "RF", "GBT", "KNN")
    assert config.run_groups == ("F1", "F2", "F3")
    assert len(config.groups.f1) == 13 and len(config.groups.f2) == 9


def test_load_config_parses_sections(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "\n".join(
            [
                "[protocol]",
                "k = 4",
                "seed = 9",
                "[models]",
                "run = LR|KNN",
                "gbt_row_subsample = 0.5",
                "[curation]",
                "max_missing_fraction = 0.2",
                "blocklist = lab_result_code",
                "proxy_rules = irritation:genital_irritation+dysuria",
                "[schema]",
                "record_id = SampleID",
            ]
        )
    )
    config = load_config(ini)
    assert config.k == 4 and config.seed == 9
    assert config.run_models == ("LR", "KNN")
    assert config.gbt_row_subsample == 0.5
    assert config.curation.max_missing_fraction == 0.2
    assert config.curation.blocklist == ("lab_result_code",)
    assert config.curation.proxy_rules == (("irritation", ("genital_irritation", "dysuria")),)
    assert config.schema.record_id == "SampleID"


def test_load_config_rejects_bad_values(tmp_path):
    from ptrisk.errors import ConfigError

    ini = tmp_path / "bad.ini"
    ini.write_text("[protocol]\nk = covfefe\n")
    with pytest.raises(ConfigError):
        load_config(ini)
    ini.write_text("[models]\nrun = SVM\n")
    with pytest.raises(ConfigError):
        load_config(ini)


def test_overlapping_feature_groups_are_a_config_error(tmp_path, capsys):
    from ptrisk.errors import ConfigError

    ini = tmp_path / "overlap.ini"
    ini.write_text("[groups]\nf1 = age | ph\nf2 = ph | nitrite\n")
    with pytest.raises(ConfigError, match="ph"):
        load_config(ini)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path)]) == 1
    assert "overlap" in capsys.readouterr().err


def test_proxy_target_takes_the_place_of_its_sources(tmp_path, monkeypatch, capsys):
    from ptrisk import report
    from ptrisk.curation import DEFAULT_F1_FEATURES, DEFAULT_F2_FEATURES

    datasets = []

    def recording_assemble(*args, **kwargs):
        datasets.append(assemble(*args, **kwargs))
        return datasets[-1]

    assemble = report.assemble
    monkeypatch.setattr(report, "assemble", recording_assemble)
    rule = {"proxy_rules": "irritation:genital_irritation+dysuria"}
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, curation=rule)
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    f1 = [name for name in DEFAULT_F1_FEATURES if name != "genital_irritation"]
    f1[f1.index("dysuria")] = "irritation"
    assert datasets[0].feature_names["F1"] == tuple(f1)
    assert datasets[0].feature_names["F2"] == DEFAULT_F2_FEATURES

    # sources split between F1 and F2 leave the proxy no group
    split = write_ini(tmp_path / "split.ini", tmp_path, curation={"proxy_rules": "mixed:dysuria+ph"})
    assert main(["run", "--config", str(split)]) == 2
    assert "mixed:dysuria+ph" in capsys.readouterr().err

    # the encoded table holds only the group features, so no color_* column exists
    rule = {"proxy_rules": "dark_or_avg:color_dark+color_average"}
    unknown = write_ini(tmp_path / "unknown.ini", tmp_path, curation=rule)
    assert main(["run", "--config", str(unknown)]) == 2
    assert "color_dark" in capsys.readouterr().err


@pytest.mark.parametrize(
    "curation,named",
    [({"age_bin_width": "0"}, "age_bin_width"), ({"valid_flags": ""}, "valid_flags")],
)
def test_curation_settings_are_checked_at_load(tmp_path, capsys, curation, named):
    from ptrisk.errors import ConfigError

    ini = write_ini(tmp_path / "cfg.ini", tmp_path, curation=curation)
    with pytest.raises(ConfigError, match=named):
        load_config(ini)
    assert main(["run", "--config", str(ini)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run", "tables", "plotdata"])
def test_seed_outside_synth_is_rejected(tmp_path, capsys, command):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    assert main([command, "--config", str(ini), "--seed", "99"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_load_config_rejects_unknown_keys(tmp_path, capsys):
    from ptrisk.errors import ConfigError

    ini = tmp_path / "typo.ini"
    for text, named in (
        ("[protocol]\nbootstrap_sample = 10\n", "[protocol] bootstrap_sample"),
        ("[protcol]\nk = 3\n", "[protcol] k"),
        ("[DEFAULT]\nk = 3\n[protocol]\nseed = 1\n", "[DEFAULT] k"),
        # an appearance column is an ordinary unmapped column, not a schema field
        ("[schema]\nvisual_text = Appearance\n", "[schema] visual_text"),
    ):
        ini.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(ini)
        assert main(["synth", "--config", str(ini), "--out", str(tmp_path)]) == 1
        assert named in capsys.readouterr().err
    # the column-map sections are free-form
    ini.write_text("[schema.questionnaire]\nage = AgeYears\n[schema.biomarkers]\nph = pH\n")
    assert load_config(ini).schema.questionnaire == {"age": "AgeYears"}


EVERY_KEY_INI = """
[input]
path = elsewhere.csv
[schema]
record_id = SampleID
qc_flag = QC
pcr_result = PCR
source_cohort = Cohort
[schema.pcr_values]
positive = Detected
negative = Not detected
[schema.questionnaire]
age = AgeYears
[schema.biomarkers]
ph = pH
[groups]
f1 = gender|age|prior_std
f2 = leukocytes|ph
run = F3
[curation]
valid_flags = OK
max_missing_fraction = 0.1
drop_zero_variance = false
blocklist = ph
proxy_rules = irritation:genital_irritation+dysuria
binary_true = Yes
binary_false = No
gender_male = man
gender_female = woman
age_bin_width = 10
[protocol]
k = 3
seed = 7
threshold = 0.4
bootstrap_samples = 200
alpha = 0.1
[models]
run = LR|DT
gbt_row_subsample = 0.5
gbt_col_subsample = 0.6
[synth]
n = 120
prevalence = 0.5
biomarker_signal = 1.0
reported_signal = 0.5
missing_rate = 0.1
semiquant_rate = 0.2
seed = 3
signal_biomarkers = ph
signal_reported = prior_std
[output]
dir = elsewhere
"""


def _leaves(tree: dict, prefix="") -> dict:
    """Setting path -> value; the column maps and gender_map are one leaf each."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict) and key not in ("questionnaire", "biomarkers", "gender_map"):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def test_every_config_key_reaches_to_dict(tmp_path):
    ini = tmp_path / "every.ini"
    ini.write_text(EVERY_KEY_INI)
    config = load_config(ini)
    default = load_config(None)
    leaves, default_leaves = _leaves(config.to_dict()), _leaves(default.to_dict())
    assert leaves.keys() == default_leaves.keys()
    assert [path for path in leaves if leaves[path] == default_leaves[path]] == []
    assert config.out_dir == "elsewhere" != default.out_dir
    assert config.curation.gender_map == {"man": 1.0, "woman": 0.0}
    assert config.schema.pcr_negative == frozenset({"not detected"})


def test_empty_config_hashes_like_defaults(tmp_path):
    ini = tmp_path / "empty.ini"
    ini.write_text("")
    # pinned: a change here changes every config_hash and curation_report.json
    assert load_config(None).config_hash() == (
        "0b84de1726d70fe79bdd9604d7e3e7ec8b81b5dd33a42a84e6e1800a3a08966c"
    )
    assert load_config(ini).config_hash() == load_config(None).config_hash()
    assert load_config(ini) == load_config(None)
