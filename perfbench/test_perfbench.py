"""Tests of the benchmark itself, on small copies of each workload.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import outputs
import run
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7  # not the default seed: outputs are checked run against run, not against a pin


def tiny(name):
    """The workload's grid at n=40 and B=20, named apart so no pinned reference applies."""
    return replace(WORKLOADS[name], name=f"{name}-tiny", n=40, B=20)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def reports(request):
    workload = tiny(request.param)
    timed = run.bench(ROOT, workload, SEED, seconds=0, trace=False)
    traced = run.bench(ROOT, workload, SEED, seconds=0, trace=True)
    return workload, timed, traced


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_every_metric_is_reported_with_its_unit(reports):
    _, timed, traced = reports
    for report, units in ((timed, run.END_TO_END_UNITS), (traced, layers.metric_units())):
        line = report["line"]
        assert report["problems"] == [] and report["missing"] == []
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == units
    assert timed["line"]["metrics"]["pass_frac"]["value"] == 1.0


def test_traced_run_counts_match_the_grid(reports):
    workload, _, traced = reports
    metrics = {name: entry["value"] for name, entry in traced["line"]["metrics"].items()}
    cells = len(workload.models) * len(workload.groups)
    assert metrics["evaluation.resamples"] == workload.B * 5 * cells
    assert metrics["parsers.rows_read"] == workload.n
    for kind in ("RF", "GBT"):
        assert (metrics[f"models.tree_nodes.{kind}"] > 0) == (kind in workload.models)
    assert 0.0 < metrics["trace.coverage_frac"] <= 1.0


def _rewrite(out_dir: Path, name: str, digest_too: bool) -> None:
    path = out_dir / name
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    if digest_too:
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize(
    "mode, digest_too",
    [("run", False), ("trace", True)],
    ids=["bundle-disagrees-with-manifest", "traced-output-differs-from-untraced"],
)
def test_broken_output_counts_as_failed(monkeypatch, mode, digest_too):
    launch = run.Invocation.launch

    def launch_then_break(self, launch_mode):
        result = launch(self, launch_mode)
        if launch_mode == mode:
            _rewrite(result.out_dir, "oof_F3_GBT.csv", digest_too)
        return result

    monkeypatch.setattr(run.Invocation, "launch", launch_then_break)
    report = run.bench(ROOT, tiny("trees1k"), SEED, seconds=0, trace=mode == "trace")
    line = report["line"]
    assert not line["correct"] and line["failed"] == 1
    assert any("oof_F3_GBT.csv" in p or "differ" in p for p in report["problems"])
    if mode == "run":
        assert line["metrics"]["pass_frac"]["value"] == 0.0


def test_changed_output_fails_the_pinned_reference(tmp_path):
    (tmp_path / "oof_F1_LR.csv").write_text("record_id,fold,y,p_hat\nr1,0,1,0.5\n", encoding="utf-8")
    (tmp_path / "metrics_F1_LR.json").write_text(json.dumps({"metrics": {"auc": 0.5}}), encoding="utf-8")
    reference = outputs.fingerprint(tmp_path)
    assert outputs.reference_problems(tmp_path, reference) == []
    (tmp_path / "metrics_F1_LR.json").write_text(json.dumps({"metrics": {"auc": 0.6}}), encoding="utf-8")
    assert outputs.reference_problems(tmp_path, reference) == [
        "metrics_F1_LR.json differs from the pinned reference"
    ]


def test_absent_wrapped_function_is_reported_missing():
    sys.path.insert(0, str(ROOT / "src"))
    absent = Tracer().install([("ptrisk.evaluation", "bootstrap_ci_renamed", "evaluation.bootstrap_ci", None)])
    assert absent == ["evaluation.bootstrap_ci"]

    workload = tiny("trees1k")
    inv = run.Invocation(ROOT, workload, SEED, deadline=time.monotonic() + 120)
    try:
        inv.prepare()
        traced = inv.launch("trace")
    finally:
        inv.cleanup()
    assert traced.problems == [] and traced.result["missing_spans"] == []
    child = dict(traced.result, missing_spans=absent)
    values, missing = layers.layer_metrics(child, workload, traced.result["run_s"], 1, 1)
    expected = {f"evaluation.bootstrap_s.{m}" for m in layers.BOOTSTRAP_METRICS} | {
        "evaluation.point_s",
        "evaluation.resamples",
        "report.self_s",
        "trace.coverage_frac",
    }
    assert set(missing) == expected
    assert not expected & set(values)
    assert set(values) | expected == set(layers.metric_units())
