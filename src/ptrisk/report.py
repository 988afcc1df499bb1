"""Experiment orchestration over the (feature group x model) grid and
emission of the report bundle: OOF dumps, metric reports, tables shaped
like the target publication layout, plot-data files, and a manifest of
content digests.

Everything written here is deterministic for a fixed config: JSON is
dumped with sorted keys, floats use repr round-tripping, and no
timestamps are recorded, so re-running a config reproduces every digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import ExperimentConfig
from .curation import (
    assemble,
    aggregate_proxies,
    cohort_summary,
    encode_features,
    exclude_features,
    labels_from_records,
)
from .errors import DataError, PtriskError
from .evaluation import ALL_METRICS, MetricReport, evaluate_oof, run_oof, stratified_kfold
from .models import ModelSpec
from .parsers import load_raw, qc_filter
from .rng import RngKey

MODEL_ROW_ORDER = ("LR", "DT", "RF", "GBT", "KNN")
DISPLAY_LABELS = {"GBT": "XGB"}  # table row label for the boosted-tree rows
XGB_FOOTNOTE = (
    "# XGB rows come from this package's own gradient-boosted tree "
    "implementation, not the xgboost software"
)

MANIFEST_FILENAME = "manifest.json"


class StageFailure(PtriskError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ReportBundle:
    out_dir: Path
    reports: dict  # (group_tag, model_kind) -> MetricReport
    summary: dict
    curation_report: dict
    files: list = field(default_factory=list)  # relative names, emission order


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _csv_text(header, rows, footnotes=()) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for note in footnotes:
        buffer.write(note + "\n")
    return buffer.getvalue()


def _metric_report_to_dict(report: MetricReport, config_hash: str) -> dict:
    return {
        "model": report.model_kind,
        "group": report.group_tag,
        "n": report.n,
        "metrics": {
            m: {
                "point": report.points[m],
                "ci_low": report.ci_low[m],
                "ci_high": report.ci_high[m],
                "discarded_resamples": report.discarded[m],
            }
            for m in ALL_METRICS
        },
        "flags": list(report.flags),
        "protocol": {
            "k": None,  # filled by caller
            "seed": report.seed,
            "threshold": report.threshold,
            "bootstrap_samples": report.B,
            "alpha": report.alpha,
        },
        "config_hash": config_hash,
    }


def _metric_report_from_dict(payload: dict) -> MetricReport:
    metrics = payload["metrics"]
    return MetricReport(
        model_kind=payload["model"],
        group_tag=payload["group"],
        n=payload["n"],
        points={m: metrics[m]["point"] for m in ALL_METRICS},
        ci_low={m: metrics[m]["ci_low"] for m in ALL_METRICS},
        ci_high={m: metrics[m]["ci_high"] for m in ALL_METRICS},
        discarded={m: metrics[m]["discarded_resamples"] for m in ALL_METRICS},
        flags=tuple(payload["flags"]),
        B=payload["protocol"]["bootstrap_samples"],
        alpha=payload["protocol"]["alpha"],
        seed=payload["protocol"]["seed"],
        threshold=payload["protocol"]["threshold"],
    )


def oof_filename(group_tag: str, kind: str) -> str:
    return f"oof_{group_tag}_{kind}.csv"


def metrics_filename(group_tag: str, kind: str) -> str:
    return f"metrics_{group_tag}_{kind}.json"


def _write_oof(path: Path, oof) -> None:
    rows = [
        (rid, int(fold), int(y), repr(float(p)))
        for rid, fold, y, p in zip(oof.record_ids, oof.fold, oof.y, oof.p_hat)
    ]
    path.write_text(_csv_text(("record_id", "fold", "y", "p_hat"), rows), encoding="utf-8")


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute ingest -> curation -> grid evaluation -> report emission.

    The bundle is written into a staging directory inside ``out_dir`` and
    moved into place only once it is complete: the old manifest is removed
    first and the new one moved last, so no manifest ever lists a file
    that is missing or from another run.  On any failure the staging
    directory is removed, any earlier bundle in ``out_dir`` is left as it
    was, and a StageFailure naming the stage is raised.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    written = []

    def emit(name: str, writer) -> None:
        writer(staging / name)
        written.append(name)

    try:
        bundle = _run_stages(config, staging, emit, written)
        try:
            (out_dir / MANIFEST_FILENAME).unlink(missing_ok=True)
            for name in written + [MANIFEST_FILENAME]:
                os.replace(staging / name, out_dir / name)
        except OSError as exc:
            raise StageFailure("manifest", exc) from exc
        bundle.out_dir = out_dir
        return bundle
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure("internal", exc) from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _run_stages(config: ExperimentConfig, staging: Path, emit, written) -> ReportBundle:
    config_hash = config.config_hash()

    stage = "ingest"
    try:
        records = load_raw(config.input_path, config.schema)
        kept = qc_filter(records, config.valid_flags)
    except Exception as exc:
        raise StageFailure(stage, exc) from exc

    stage = "curation"
    try:
        table = encode_features(kept, config.groups, config.curation)
        table = aggregate_proxies(table, config.curation.proxy_rules)
        table, dropped = exclude_features(
            table,
            max_missing_fraction=config.curation.max_missing_fraction,
            drop_zero_variance=config.curation.drop_zero_variance,
            blocklist=config.curation.blocklist,
        )
        dataset = assemble(table, labels_from_records(kept), config.groups, dropped)
        summary = cohort_summary(dataset, config.curation)
        kept_ids = {k.record_id for k in kept}
        curation_report = {
            "input_rows": len(records),
            "rows_after_qc": len(kept),
            "rows_removed_by_qc": [r.record_id for r in records if r.record_id not in kept_ids],
            "dropped_rows": [list(item) for item in dataset.dropped_rows],
            "dropped_features": [list(item) for item in dropped],
            "effective_config": config.to_dict(),
            "config_hash": config_hash,
        }
        emit("curation_report.json", lambda p: _write_json(p, curation_report))
        emit("cohort_summary.json", lambda p: _write_json(p, summary))
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(stage, exc) from exc

    stage = "evaluation"
    reports = {}
    try:
        folds = stratified_kfold(dataset.labels, k=config.k, seed=config.seed)
        rng = RngKey(config.seed)
        for tag in config.run_groups:
            for kind in config.run_models:
                spec = ModelSpec(kind, config.gbt_row_subsample, config.gbt_col_subsample)
                oof = run_oof(
                    dataset.matrices[tag],
                    dataset.labels,
                    spec,
                    folds,
                    rng,
                    record_ids=dataset.row_ids,
                    group_tag=tag,
                )
                report = evaluate_oof(
                    oof,
                    B=config.bootstrap_samples,
                    alpha=config.alpha,
                    seed=config.seed,
                    threshold=config.threshold,
                )
                reports[(tag, kind)] = report
                emit(oof_filename(tag, kind), lambda p, o=oof: _write_oof(p, o))
                payload = _metric_report_to_dict(report, config_hash)
                payload["protocol"]["k"] = config.k
                emit(metrics_filename(tag, kind), lambda p, d=payload: _write_json(p, d))
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(stage, exc) from exc

    stage = "report"
    try:
        bundle = ReportBundle(
            out_dir=staging,
            reports=reports,
            summary=summary,
            curation_report=curation_report,
            files=written,
        )
        for name, content in table_files(reports, config.run_groups, config.run_models):
            emit(name, lambda p, c=content: p.write_text(c, encoding="utf-8"))
        for name, content in plotdata_files(reports, config.run_groups, config.run_models, summary):
            emit(name, lambda p, c=content: p.write_text(c, encoding="utf-8"))
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(stage, exc) from exc

    stage = "manifest"
    try:
        write_manifest(staging, written, config_hash)
    except Exception as exc:
        raise StageFailure(stage, exc) from exc
    return bundle


def write_manifest(out_dir: Path, names, config_hash: str) -> None:
    manifest = {
        "tool": "ptrisk",
        "version": __version__,
        "config_hash": config_hash,
        "complete": True,
        "files": {name: _sha256_file(out_dir / name) for name in sorted(names)},
    }
    _write_json(out_dir / MANIFEST_FILENAME, manifest)


# --- tables ------------------------------------------------------------------------

def _fmt(point, low, high, decimals: int) -> str:
    if point is None:
        return "NA(single-class)"
    if low is None or high is None:
        return f"{point:.{decimals}f} [NA, NA]"
    return f"{point:.{decimals}f} [{low:.{decimals}f}, {high:.{decimals}f}]"


def _cell(report: MetricReport, metric: str, decimals: int) -> str:
    return _fmt(
        report.points[metric], report.ci_low[metric], report.ci_high[metric], decimals
    )


def _ordered_kinds(run_models) -> list:
    return [kind for kind in MODEL_ROW_ORDER if kind in run_models]


def table_files(reports: dict, run_groups, run_models) -> list:
    """Main and extended per-group tables as (name, content) pairs.

    AUC cells use 4 decimals, threshold metrics 3.  Rows follow the
    fixed model order with the boosted model labelled XGB.
    """
    _require_complete(reports, run_groups, run_models)
    out = []
    for tag in run_groups:
        rows = []
        extended = []
        for kind in _ordered_kinds(run_models):
            report = reports[(tag, kind)]
            label = DISPLAY_LABELS.get(kind, kind)
            rows.append(
                (
                    label,
                    _cell(report, "auc", 4),
                    _cell(report, "precision", 3),
                    _cell(report, "f1", 3),
                )
            )
            extended.append(
                (
                    label,
                    _cell(report, "sensitivity", 3),
                    _cell(report, "specificity", 3),
                )
            )
        footnotes = (XGB_FOOTNOTE,) if "GBT" in run_models else ()
        header = ("model", "auc_95ci", "precision_95ci", "f1_95ci")
        out.append((f"table_{tag}.csv", _csv_text(header, rows, footnotes)))
        header = ("model", "sensitivity_95ci", "specificity_95ci")
        out.append((f"table_{tag}_extended.csv", _csv_text(header, extended)))
    return out


def plotdata_files(reports: dict, run_groups, run_models, summary: dict) -> list:
    """Plot-data files: AUC points + CIs with the 0.5 reference line,
    sensitivity/specificity points + CIs, and the age histogram."""
    _require_complete(reports, run_groups, run_models)

    def num(value):
        return "" if value is None else repr(float(value))

    auc_rows = [("reference", "", "", num(0.5), "", "")]
    sens_rows = []
    for tag in run_groups:
        for kind in _ordered_kinds(run_models):
            report = reports[(tag, kind)]
            label = DISPLAY_LABELS.get(kind, kind)
            auc_rows.append(
                (
                    "point",
                    label,
                    tag,
                    num(report.points["auc"]),
                    num(report.ci_low["auc"]),
                    num(report.ci_high["auc"]),
                )
            )
            sens_rows.append(
                (
                    label,
                    tag,
                    num(report.points["sensitivity"]),
                    num(report.ci_low["sensitivity"]),
                    num(report.ci_high["sensitivity"]),
                    num(report.points["specificity"]),
                    num(report.ci_low["specificity"]),
                    num(report.ci_high["specificity"]),
                )
            )

    sens_header = (
        "model",
        "group",
        "sensitivity",
        "sens_ci_low",
        "sens_ci_high",
        "specificity",
        "spec_ci_low",
        "spec_ci_high",
    )
    hist_rows = [
        (item["lo"], item["hi"], item["count"]) for item in summary.get("age_histogram") or []
    ]
    return [
        ("plot_auc_ci.csv", _csv_text(("kind", "model", "group", "auc", "ci_low", "ci_high"), auc_rows)),
        ("plot_sens_spec.csv", _csv_text(sens_header, sens_rows)),
        ("plot_age_hist.csv", _csv_text(("bin_lo", "bin_hi", "count"), hist_rows)),
    ]


def _require_complete(reports: dict, run_groups, run_models) -> None:
    missing = [
        f"{tag}/{kind}"
        for tag in run_groups
        for kind in run_models
        if (tag, kind) not in reports
    ]
    if missing:
        raise DataError(f"incomplete bundle, missing cells: {', '.join(missing)}")


def regenerate(config: ExperimentConfig, command: str) -> list:
    """Rewrite the tables (``command="tables"``) or the plot-data files
    (``"plotdata"``) of the bundle in ``config.out_dir`` and record their
    new digests in its manifest.

    Only a bundle this config wrote is trusted: its manifest must carry
    ``config.config_hash()``, and every metric report and the cohort
    summary read must match its digest there.  Otherwise DataError is
    raised and nothing is written.
    """
    out_dir = Path(config.out_dir)
    manifest_path = out_dir / MANIFEST_FILENAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        digests = dict(manifest["files"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"no readable {MANIFEST_FILENAME} in {out_dir}: {exc}") from exc
    if manifest.get("config_hash") != config.config_hash():
        raise DataError(f"the bundle in {out_dir} was written with a different config")

    def read_json(name: str) -> dict:
        path = out_dir / name
        data = path.read_bytes() if path.exists() else b""
        if hashlib.sha256(data).hexdigest() != digests.get(name):
            raise DataError(f"{name} is missing or does not match its digest in {MANIFEST_FILENAME}")
        return json.loads(data)

    reports = {
        (tag, kind): _metric_report_from_dict(read_json(metrics_filename(tag, kind)))
        for tag in config.run_groups
        for kind in config.run_models
        if (out_dir / metrics_filename(tag, kind)).exists()
    }
    if command == "tables":
        files = table_files(reports, config.run_groups, config.run_models)
    else:
        summary = read_json("cohort_summary.json")
        files = plotdata_files(reports, config.run_groups, config.run_models, summary)
    for name, content in files:
        (out_dir / name).write_text(content, encoding="utf-8")
        manifest["files"][name] = _sha256_file(out_dir / name)
    _write_json(manifest_path, manifest)
    return [name for name, _ in files]
