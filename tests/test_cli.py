import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ptrisk.cli import main
from ptrisk.config import load_config
from ptrisk.report import _fmt

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


@pytest.mark.parametrize("key", ["biomarker_signal", "reported_signal"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_synth_non_finite_signal_exit_1(tmp_path, capsys, key, value):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, synth={key: value})
    assert main(["synth", "--config", str(ini)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "cohort.csv").exists()


def test_config_file_not_utf8_exit_1(tmp_path, capsys):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    ini.write_bytes("# r\u00e9sum\u00e9\n".encode("latin-1") + ini.read_bytes())
    assert main(["synth", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert str(ini) in err and "UTF-8" in err


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

    assert main(["run", "--config", str(bad)]) == 2  # k exceeds the 60 rows
    after = {p.name: digest(p) for p in tmp_path.iterdir()}
    assert after == before
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert {name: after[name] for name in manifest["files"]} == manifest["files"]


BUNDLE_OUTPUTS = ("oof_", "metrics_", "table_", "plot_")


def test_rerun_removes_the_old_runs_outputs(tmp_path):
    # the old manifest's bare names the new one lacks are deleted; its
    # other names, and files that no manifest listed, are left alone
    out = tmp_path / "out"
    wide = {"models": {"run": "DT|KNN"}, "groups": {"run": "F1|F2"}}
    wide_ini = write_ini(tmp_path / "wide.ini", out, **wide)
    narrow_ini = write_ini(tmp_path / "narrow.ini", out, models={"run": "DT"}, groups={"run": "F1"})
    assert main(["synth", "--config", str(wide_ini)]) == 0
    assert main(["run", "--config", str(wide_ini)]) == 0
    outside = tmp_path / "x"
    outside.write_text("not the bundle's\n")
    (out / "sub").mkdir()
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("../x", str(outside), ".", "..", "sub"):
        manifest["files"][name] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))

    assert main(["run", "--config", str(narrow_ini)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    outputs = {p.name for p in out.iterdir() if p.name.startswith(BUNDLE_OUTPUTS)}
    assert outputs == {name for name in manifest["files"] if name.startswith(BUNDLE_OUTPUTS)}
    assert outputs == {
        "oof_F1_DT.csv",
        "metrics_F1_DT.json",
        "table_F1.csv",
        "table_F1_extended.csv",
        "plot_auc_ci.csv",
        "plot_sens_spec.csv",
        "plot_age_hist.csv",
    }
    assert outside.read_text() == "not the bundle's\n"
    assert (out / "sub").is_dir() and (out / "cohort.csv").exists()


def test_unreadable_old_manifest_deletes_nothing(tmp_path):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, models={"run": "DT"}, groups={"run": "F1"})
    assert main(["synth", "--config", str(ini)]) == 0
    (tmp_path / "metrics_F2_KNN.json").write_text("{}\n")
    (tmp_path / "manifest.json").write_text('{"files": {"metrics_F2_KNN.json": ')
    assert main(["run", "--config", str(ini)]) == 0
    assert (tmp_path / "metrics_F2_KNN.json").exists()


def test_manifest_files_that_are_not_an_object_delete_nothing(tmp_path):
    # a list's two-character strings were once read as (name, digest)
    # pairs, so an old manifest listing "ab" made a rerun delete "a"
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, models={"run": "DT"}, groups={"run": "F1"})
    assert main(["synth", "--config", str(ini)]) == 0
    (tmp_path / "a").write_text("not the bundle's\n")
    (tmp_path / "manifest.json").write_text('{"files": ["ab", "no"]}')
    assert main(["run", "--config", str(ini)]) == 0
    assert (tmp_path / "a").read_text() == "not the bundle's\n"


def test_run_group_emptied_by_exclusions_fails_at_curation(tmp_path, monkeypatch, capsys):
    # a run group with no feature left is refused before any fit; it used
    # to fit every F1 cell and then fail evaluation on an empty argmax
    from ptrisk import report
    from ptrisk.curation import DEFAULT_F2_FEATURES

    fits = []
    monkeypatch.setattr(report, "run_oof", lambda *args, **kwargs: fits.append(args))
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        curation={"blocklist": " | ".join(DEFAULT_F2_FEATURES)},
        models={"run": "DT"},
        groups={"run": "F1|F2|F3"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "curation" in err and "run group F2 has no features left" in err
    assert all(f"{name} (blocklisted)" in err for name in DEFAULT_F2_FEATURES)
    assert fits == []
    assert not (tmp_path / "manifest.json").exists()


def test_every_feature_excluded_names_them_at_curation(tmp_path, capsys):
    from ptrisk.curation import DEFAULT_F1_FEATURES, DEFAULT_F2_FEATURES

    features = DEFAULT_F1_FEATURES + DEFAULT_F2_FEATURES
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        curation={"blocklist": " | ".join(features)},
        models={"run": "DT"},
        groups={"run": "F3"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "curation" in err and "run group F3 has no features left" in err
    assert all(f"{name} (blocklisted)" in err for name in features)
    assert not (tmp_path / "manifest.json").exists()


def test_fewer_rows_than_folds_fails_at_curation(tmp_path, capsys):
    synth = {"n": "4", "prevalence": "0.5"}
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, synth=synth, models={"run": "DT"})
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "curation" in err and "4 curated rows are fewer than the k=5 folds" in err
    assert not (tmp_path / "manifest.json").exists()


def test_single_member_class_fails_at_curation(tmp_path, capsys):
    # one positive among ten rows: its fold's training split is single-class
    # whatever the fold assignment; this used to exit from stage evaluation
    synth = {"n": "10", "prevalence": "0.1"}
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, synth=synth, models={"run": "DT|LR"})
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "curation" in err and "class 1 has 1 curated row(s)" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("cohort", ["all_rows_fail_qc", "header_only"])
def test_no_row_passing_qc_fails_at_curation(tmp_path, capsys, cohort):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, models={"run": "DT"})
    assert main(["synth", "--config", str(ini)]) == 0
    path = tmp_path / "cohort.csv"
    header, *rows = path.read_text().splitlines()
    if cohort == "header_only":
        rows = []
    else:
        rows = [row.replace(",OK,", ",FAIL,", 1) for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "curation" in err and f"no row passed QC ({len(rows)} rows read)" in err
    assert not (tmp_path / "manifest.json").exists()


def test_no_row_surviving_the_missing_value_filter_fails_at_curation(tmp_path, capsys):
    # every feature is kept however much it misses, and each row misses one
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        synth={"n": "20", "missing_rate": "0.5"},
        curation={"max_missing_fraction": "1.0"},
        models={"run": "DT"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "stage 'curation'" in err and "no rows survive the combined missing-value filter" in err
    assert not (tmp_path / "manifest.json").exists()


def test_small_class_fold_warning_reaches_stderr(tmp_path, capsys):
    # three positives cannot reach all five folds: flagged, not fatal
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        synth={"n": "10", "prevalence": "0.3"},
        models={"run": "DT|LR"},
        groups={"run": "F3"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(ini)]) == 0
    err = capsys.readouterr().err
    assert "warning: class 1 has 3 members for 5 folds" in err.splitlines()
    assert json.loads((tmp_path / "manifest.json").read_text())["complete"] is True


@pytest.mark.parametrize("damage", ["bare_cr_line_ends", "latin_1"])
def test_unreadable_cohort_text_fails_at_ingest(tmp_path, capsys, damage):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, models={"run": "DT"})
    assert main(["synth", "--config", str(ini)]) == 0
    path = tmp_path / "cohort.csv"
    text = path.read_text(encoding="utf-8")
    if damage == "bare_cr_line_ends":
        path.write_bytes(text.replace("\n", "\r").encode("utf-8"))
    else:
        path.write_bytes(text.replace(",OK,", ",ÖK,", 1).encode("latin-1"))
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err and str(path) in err
    assert not (tmp_path / "manifest.json").exists()


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


def test_manifest_digests_the_bundle_bytes_on_disk(tmp_path):
    # the manifest lists exactly the bundle's files, each with the sha256
    # of its bytes on disk
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, models={"run": "DT|KNN"}, groups={"run": "F1|F2"})
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    bundle = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    files = json.loads(bundle["manifest.json"])["files"]
    assert set(files) == set(bundle) - {"manifest.json", "cfg.ini", "cohort.csv", "cohort_sidecar.json"}
    assert {name: hashlib.sha256(bundle[name]).hexdigest() for name in files} == files


def test_failed_run_publish_leaves_no_stale_manifest(tmp_path, monkeypatch):
    # the disk fills while a rerun with another seed writes its second
    # table, which leaves the bundle as it was, or while its files are
    # moved into place
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    other = write_ini(tmp_path / "other.ini", tmp_path, protocol={"seed": "7"})
    main(["synth", "--config", str(ini)])
    assert main(["run", "--config", str(ini)]) == 0
    before = {p.name: digest(p) for p in tmp_path.iterdir()}
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    write_text, replace = Path.write_text, os.replace

    def half_written(self, data, *args, **kwargs):
        if self.name == "table_F2_extended.csv":
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise full
        return write_text(self, data, *args, **kwargs)

    def moved_once(src, dst):
        if Path(dst).name == "table_F2_extended.csv":
            raise full
        return replace(src, dst)

    for target, attr, fault in ((Path, "write_text", half_written), (os, "replace", moved_once)):
        with monkeypatch.context() as patch:
            patch.setattr(target, attr, fault)
            assert main(["run", "--config", str(other)]) == 3
        manifest = tmp_path / "manifest.json"
        if manifest.exists():
            files = json.loads(manifest.read_text())["files"]
            assert {name: digest(tmp_path / name) for name in files} == files
        assert list(tmp_path.glob(".staging-*")) == []
        if fault is half_written:
            assert {p.name: digest(p) for p in tmp_path.iterdir()} == before


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
                "[curation]",
                "max_missing_fraction = 0.2",
                "blocklist = lab_result_code",
                "proxy_rules = irritation:genital_irritation+dysuria;either:irritation+prior_std",
                "[schema]",
                "record_id = SampleID",
            ]
        )
    )
    config = load_config(ini)
    assert config.k == 4 and config.seed == 9
    assert config.run_models == ("LR", "KNN")
    assert config.curation.max_missing_fraction == 0.2
    assert config.curation.blocklist == ("lab_result_code",)
    assert config.curation.proxy_rules == (
        ("irritation", ("genital_irritation", "dysuria")),
        ("either", ("irritation", "prior_std")),
    )
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
    ini.write_text("[protocol]\nk = 1\n")
    with pytest.raises(ConfigError, match="k must be at least 2"):
        load_config(ini)
    ini.write_text("[protocol]\nbootstrap_samples = 0\n")
    with pytest.raises(ConfigError, match="bootstrap_samples must be at least 1"):
        load_config(ini)


def test_overlapping_feature_groups_are_a_config_error(tmp_path, capsys):
    from ptrisk.errors import ConfigError

    ini = tmp_path / "overlap.ini"
    ini.write_text("[groups]\nf1 = age | ph\nf2 = ph | nitrite\n")
    with pytest.raises(ConfigError, match="ph"):
        load_config(ini)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path)]) == 1
    assert "overlap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("groups", "run", "F1|F1", "F1"),
        ("models", "run", "DT|DT", "DT"),
        ("groups", "f1", "age|age|gender", "age"),
        ("groups", "f2", "ph|protein|ph", "ph"),
    ],
)
def test_repeated_names_are_a_config_error(tmp_path, capsys, section, key, value, named):
    # a repeated cell once ran twice and then failed at the manifest stage,
    # and a repeated feature became a duplicate column; both are refused at
    # load, before ingest (the cohort file does not exist)
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, **{section: {key: value}})
    assert main(["run", "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert "repeat" in err and repr(named) in err


@pytest.mark.parametrize("command", ["synth", "run"])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_output_directory_through_a_file_is_a_config_error(tmp_path, capsys, command, out):
    # once an internal error (exit 3) from mkdir; run refuses it before
    # ingest, so the missing cohort file is not reached
    (tmp_path / "taken").write_text("a file\n")
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    assert main([command, "--config", str(ini), "--out", str(tmp_path / out)]) == 1
    assert f"output directory {tmp_path / out}" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "a file\n"


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

    # sources split between F1 and F2 leave the proxy no group; the groups
    # alone decide that, so it is a config error
    split = write_ini(tmp_path / "split.ini", tmp_path, curation={"proxy_rules": "mixed:dysuria+ph"})
    assert main(["run", "--config", str(split)]) == 1
    assert "mixed:dysuria+ph" in capsys.readouterr().err

    # the encoded table holds only the group features, so no color_* column exists
    rule = {"proxy_rules": "dark_or_avg:color_dark+color_average"}
    unknown = write_ini(tmp_path / "unknown.ini", tmp_path, curation=rule)
    assert main(["run", "--config", str(unknown)]) == 1
    assert "color_dark" in capsys.readouterr().err


def test_parsed_records_are_freed_before_the_grid(tmp_path, monkeypatch):
    # ingest and curation hand the grid only the curated dataset, so no
    # parsed record outlives them; holding them kept 93 alive here
    import gc

    from ptrisk import report
    from ptrisk.parsers import RawRecord

    def live_records() -> int:
        gc.collect()
        return sum(isinstance(obj, RawRecord) for obj in gc.get_objects())

    held = []

    def probing_evaluate_oof(*args, **kwargs):
        held.append(live_records())
        return evaluate_oof(*args, **kwargs)

    evaluate_oof = report.evaluate_oof
    monkeypatch.setattr(report, "evaluate_oof", probing_evaluate_oof)
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, synth={"n": "93"}, models={"run": "DT"})
    assert main(["synth", "--config", str(ini)]) == 0
    before = live_records()
    assert main(["run", "--config", str(ini)]) == 0
    assert held == [before]


def test_run_does_not_import_numpy_ma(tmp_path):
    # a bare np.unique calls np.ma.is_masked, which imports numpy.ma (about
    # 1 MB of RSS); only a fresh process shows what a run imports
    ini = write_ini(
        tmp_path / "cfg.ini",
        tmp_path,
        synth={"n": "40", "missing_rate": "0.05"},
        models={"run": "LR|DT|RF|GBT|KNN"},
        groups={"run": "F1|F2|F3"},
        protocol={"bootstrap_samples": "20"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    code = "import sys; from ptrisk.cli import main; code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    assert last_line_of_fresh_process(code, "run", "--config", str(ini)) == "0 False"


def last_line_of_fresh_process(code, *args):
    """The last stdout line of ``python -c code *args`` on this package."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.stdout, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_and_config_load_do_not_import_numpy_random():
    # numpy imports numpy.random on first use; setup (import, then config
    # load) never uses it, so a run pays for it only when it first draws
    code = "import sys; import ptrisk.cli; from ptrisk.config import load_config; load_config(); print('numpy.random' in sys.modules)"
    assert last_line_of_fresh_process(code) == "False"


@pytest.mark.parametrize(
    "section,key", [("schema.questionnaire", "age"), ("schema.biomarkers", "leukocytes")]
)
def test_partial_column_map_keeps_the_other_features(tmp_path, monkeypatch, section, key):
    # a column map that names one feature leaves every other feature under
    # its own header, and each group still finds its columns there
    from ptrisk import report
    from ptrisk.curation import DEFAULT_F1_FEATURES, DEFAULT_F2_FEATURES

    datasets = []

    def recording_assemble(*args, **kwargs):
        datasets.append(assemble(*args, **kwargs))
        return datasets[-1]

    assemble = report.assemble
    monkeypatch.setattr(report, "assemble", recording_assemble)
    ini = write_ini(tmp_path / "cfg.ini", tmp_path, **{section: {key: key}})
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    assert datasets[0].feature_names["F1"] == DEFAULT_F1_FEATURES
    assert datasets[0].feature_names["F2"] == DEFAULT_F2_FEATURES
    curation_report = json.loads((tmp_path / "curation_report.json").read_text())
    assert curation_report["dropped_features"] == []


@pytest.mark.parametrize(
    "curation,named",
    [
        ({"age_bin_width": "0"}, "age_bin_width"),
        ({"valid_flags": ""}, "valid_flags"),
        # proxy rules the feature groups alone make impossible
        ({"proxy_rules": "mixed:dysuria+ph"}, "takes sources from both F1 and F2"),
        ({"proxy_rules": "dark_or_avg:color_dark+color_average"}, "not found: color_dark"),
        ({"proxy_rules": "ph:dysuria+prior_std"}, "targets a column that is not its source"),
        # a later rule sees the columns an earlier one left: dysuria is gone
        (
            {"proxy_rules": "irritation:genital_irritation+dysuria;again:dysuria+prior_std"},
            "not found: dysuria",
        ),
        ({"max_missing_fraction": "1.5"}, "max_missing_fraction"),
        ({"max_missing_fraction": "-0.1"}, "max_missing_fraction"),
    ],
)
def test_curation_settings_are_checked_at_load(tmp_path, capsys, curation, named):
    from ptrisk.errors import ConfigError

    ini = write_ini(tmp_path / "cfg.ini", tmp_path, curation=curation)
    with pytest.raises(ConfigError, match=named):
        load_config(ini)
    assert main(["run", "--config", str(ini)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run"])
def test_seed_outside_synth_is_rejected(tmp_path, capsys, command):
    ini = write_ini(tmp_path / "cfg.ini", tmp_path)
    assert main([command, "--config", str(ini), "--seed", "99"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv,named",
    [
        (["tables"], "invalid choice: 'tables'"),  # deleted; run writes every bundle file
        (["run", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "required: command"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, named):
    # a usage error is a config error (1), not a data error (2), and main
    # returns it rather than raising SystemExit
    assert main(argv) == 1
    assert named in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["-h"]) == 0
    assert "{synth,run}" in capsys.readouterr().out


def test_usage_error_exit_code_from_the_command_line():
    proc = subprocess.run(
        [sys.executable, "-m", "ptrisk.cli", "plotdata"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert "invalid choice: 'plotdata'" in proc.stderr


def test_load_config_rejects_unknown_keys(tmp_path, capsys):
    from ptrisk.errors import ConfigError

    ini = tmp_path / "typo.ini"
    for text, named in (
        ("[protocol]\nbootstrap_sample = 10\n", "[protocol] bootstrap_sample"),
        ("[protcol]\nk = 3\n", "[protcol] k"),
        ("[DEFAULT]\nk = 3\n[protocol]\nseed = 1\n", "[DEFAULT] k"),
        # an appearance column is an ordinary unmapped column, not a schema field
        ("[schema]\nvisual_text = Appearance\n", "[schema] visual_text"),
        # the boosting subsample fractions are fixed, not settings
        ("[models]\ngbt_row_subsample = 0.8\n", "[models] gbt_row_subsample"),
        ("[models]\ngbt_col_subsample = 0.8\n", "[models] gbt_col_subsample"),
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
f1 = gender|age|prior_std|genital_irritation|dysuria
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
        "f0352205702b9452c02d5dabc1b82797b8b18d651ca7767f94ac5f71f5b16562"
    )
    assert load_config(ini).config_hash() == load_config(None).config_hash()
    assert load_config(ini) == load_config(None)
