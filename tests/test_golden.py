"""Golden outputs of one small full-grid run, pinned under tests/fixtures.

The run is the ``test_cli.py`` INI config (n=60, B=50) with every model
and every feature group.  The pin is path-independent: the sha256 of
every ``oof_*.csv`` and the ``metrics`` block of every ``metrics_*.json``.
``manifest.json`` is not pinned because it embeds the input path.

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


def fingerprint(out_dir: Path) -> dict:
    return {
        "oof": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("oof_*.csv"))
        },
        "metrics": {
            p.name: json.loads(p.read_text(encoding="utf-8"))["metrics"]
            for p in sorted(out_dir.glob("metrics_*.json"))
        },
    }


def run_full_grid(out_dir: Path) -> dict:
    ini = write_ini(
        out_dir / "cfg.ini",
        out_dir,
        models={"run": "LR|DT|RF|GBT|KNN"},
        groups={"run": "F1|F2|F3"},
    )
    assert main(["synth", "--config", str(ini)]) == 0
    assert main(["run", "--config", str(ini)]) == 0
    return fingerprint(out_dir)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return run_full_grid(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_full_grid(golden):
    cells = {f"{g}_{m}" for g in ("F1", "F2", "F3") for m in ("LR", "DT", "RF", "GBT", "KNN")}
    assert set(golden["oof"]) == {f"oof_{c}.csv" for c in cells}
    assert set(golden["metrics"]) == {f"metrics_{c}.json" for c in cells}


def test_oof_digests_match_golden(bundle, golden):
    assert bundle["oof"] == golden["oof"]


def test_metrics_blocks_match_golden(bundle, golden):
    assert bundle["metrics"] == golden["metrics"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = run_full_grid(Path(tmp))
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
