"""The bundle is a function of the cohort's records, not of the order of
the file's rows: curation puts the QC-kept records in ascending
``record_id`` order before any other use."""

import json
import random
from pathlib import Path

import pytest

from ptrisk.cli import main
from test_cli import write_ini
from test_golden import GOLDEN, fingerprint


def synth_reordered(out_dir: Path, reorder, **overrides) -> Path:
    """Write the synth cohort of the ``test_cli`` config with its data
    rows passed through ``reorder``, and return the config file."""
    ini = write_ini(out_dir / "cfg.ini", out_dir, **overrides)
    assert main(["synth", "--config", str(ini)]) == 0
    cohort = out_dir / "cohort.csv"
    header, *rows = cohort.read_text(encoding="utf-8").splitlines(keepends=True)
    cohort.write_text(header + "".join(reorder(rows)), encoding="utf-8")
    return ini


@pytest.mark.parametrize(
    "reorder",
    [lambda rows: rows[::-1], lambda rows: random.Random(0).sample(rows, len(rows))],
    ids=["reversed", "shuffled"],
)
def test_reordered_golden_cohort_gives_the_golden_outputs(tmp_path, reorder):
    # the golden run's grid on the golden cohort with its rows reordered
    grid = {"models": {"run": "LR|DT|RF|GBT|KNN"}, "groups": {"run": "F1|F2|F3"}}
    ini = synth_reordered(tmp_path, reorder, **grid)
    assert main(["run", "--config", str(ini)]) == 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reordered = fingerprint(tmp_path)
    assert reordered["oof"] == golden["oof"]
    assert reordered["metrics"] == golden["metrics"]


def test_rows_removed_by_qc_are_listed_in_record_id_order(tmp_path):
    def reverse_and_fail_two(rows):
        failed = {"S0003", "S0050"}
        return [
            row.replace(",OK,", ",FAIL,", 1) if row.split(",")[0] in failed else row
            for row in reversed(rows)
        ]

    ini = synth_reordered(tmp_path, reverse_and_fail_two, models={"run": "DT"}, groups={"run": "F1"})
    assert main(["run", "--config", str(ini)]) == 0
    report = json.loads((tmp_path / "curation_report.json").read_text(encoding="utf-8"))
    assert report["rows_removed_by_qc"] == ["S0003", "S0050"]
    oof_ids = [line.split(",")[0] for line in (tmp_path / "oof_F1_DT.csv").read_text().splitlines()[1:]]
    assert oof_ids == sorted(oof_ids) and len(oof_ids) == 58
