"""The names and attributes the benchmark's tracer reads from the package.

``perfbench/tracer.py`` wraps package functions by name and reads the
fitted models' attributes for its span notes.  One traced ``ptrisk run``
of the full model grid, as ``perfbench/child.py trace`` runs it, must
find every target and write every note.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ptrisk.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = """\
[input]
path = {dir}/cohort.csv
[groups]
run = F3
[models]
run = LR|DT|RF|GBT|KNN
[protocol]
bootstrap_samples = 20
[synth]
n = 40
prevalence = 0.7
seed = 5
"""


def test_traced_run_finds_every_target_and_note(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(CONFIG.format(dir=tmp_path), encoding="utf-8")
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path)]) == 0
    result = tmp_path / "result.json"
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1"
    )
    child = ROOT / "perfbench" / "child.py"
    proc = subprocess.run(
        [sys.executable, str(child), "trace", str(result), str(ini), str(tmp_path / "out")],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text(encoding="utf-8"))
    assert traced["missing_spans"] == []
    spans = traced["spans"]
    assert [span for span in spans if "notes_error" in span] == []
    fits = [span["notes"] for span in spans if span["name"] == "models.fit"]
    assert sorted({notes["kind"] for notes in fits}) == ["DT", "GBT", "KNN", "LR", "RF"]
    for notes in fits:
        if notes["kind"] in ("DT", "RF", "GBT"):
            assert notes["tree_nodes"] > 0
        if notes["kind"] == "LR":
            assert isinstance(notes["lr_iters"], int) and isinstance(notes["lr_converged"], bool)
