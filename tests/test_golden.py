"""Golden outputs of one small full-grid run, pinned under tests/fixtures.

The run is the ``test_cli.py`` INI config (n=60, B=50) with every model
and every feature group.  The pin covers every output that does not
depend on the input path: the sha256 of every ``oof_*.csv``,
``table_*.csv`` and ``plot_*.csv`` and of ``cohort_summary.json``, and
the ``metrics``, ``flags`` and ``protocol`` blocks of every
``metrics_*.json``.  ``manifest.json`` and ``curation_report.json`` are
not pinned because they embed the input path.  A second, smaller run
(LR and KNN, threshold 1.0) is pinned the same way, because there LR
predicts no positive and its reports carry zero-division flags.

A change that alters outputs on purpose re-pins with

    PYTHONPATH=src python tests/test_golden.py

and says why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from ptrisk.cli import main
from test_cli import write_ini

GOLDEN = Path(__file__).parent / "fixtures" / "golden_bundle.json"


def _digests(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def fingerprint(out_dir: Path) -> dict:
    payloads = {
        p.name: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(out_dir.glob("metrics_*.json"))
    }
    return {
        "oof": _digests(out_dir.glob("oof_*.csv")),
        "files": _digests(
            [*out_dir.glob("table_*.csv"), *out_dir.glob("plot_*.csv"), out_dir / "cohort_summary.json"]
        ),
        **{
            block: {name: payload[block] for name, payload in payloads.items()}
            for block in ("metrics", "flags", "protocol")
        },
    }


THRESHOLD_ONE = {"models": {"run": "LR|KNN"}, "protocol": {"threshold": "1.0"}}


def run_full_grid(out_dir: Path, **overrides) -> dict:
    sections = {"models": {"run": "LR|DT|RF|GBT|KNN"}, "groups": {"run": "F1|F2|F3"}}
    for section, values in overrides.items():
        sections[section] = {**sections.get(section, {}), **values}
    ini = write_ini(out_dir / "cfg.ini", out_dir, **sections)
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    return fingerprint(out_dir)


def run_pinned(tmp: Path) -> dict:
    (tmp / "grid").mkdir()
    (tmp / "threshold_1").mkdir()
    pinned = run_full_grid(tmp / "grid")
    pinned["threshold_1"] = run_full_grid(tmp / "threshold_1", **THRESHOLD_ONE)
    return pinned


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return run_full_grid(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def threshold_one(tmp_path_factory):
    return run_full_grid(tmp_path_factory.mktemp("golden_threshold_1"), **THRESHOLD_ONE)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_full_grid(golden):
    cells = {f"{g}_{m}" for g in ("F1", "F2", "F3") for m in ("LR", "DT", "RF", "GBT", "KNN")}
    assert set(golden["oof"]) == {f"oof_{c}.csv" for c in cells}
    for block in ("metrics", "flags", "protocol"):
        assert set(golden[block]) == {f"metrics_{c}.json" for c in cells}
    tables = {f"table_{g}{x}.csv" for g in ("F1", "F2", "F3") for x in ("", "_extended")}
    plots = {f"plot_{p}.csv" for p in ("auc_ci", "sens_spec", "age_hist")}
    assert set(golden["files"]) == tables | plots | {"cohort_summary.json"}


def test_oof_digests_match_golden(bundle, golden):
    assert bundle["oof"] == golden["oof"]


def test_metrics_blocks_match_golden(bundle, golden):
    assert bundle["metrics"] == golden["metrics"]


def test_flags_and_protocol_blocks_match_golden(bundle, golden):
    # flags are compared as lists: their order is part of the bytes
    assert bundle["flags"] == golden["flags"]
    assert bundle["protocol"] == golden["protocol"]


def test_tables_plots_and_summary_match_golden(bundle, golden):
    assert bundle["files"] == golden["files"]


def test_flagged_reports_match_golden(threshold_one, golden):
    assert ["precision_zero_division", "f1_zero_division"] in golden["threshold_1"]["flags"].values()
    assert threshold_one == golden["threshold_1"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = run_pinned(Path(tmp))
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
