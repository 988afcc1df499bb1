"""Experiment orchestration over the (feature group x model) grid and
emission of the report bundle: OOF dumps, metric reports, tables shaped
like the target publication layout, plot-data files, and a manifest of
content digests.

The metrics payload of a cell, written as its ``metrics_*.json``, is the
only report record: ``run`` builds the tables and plot-data files from
the payloads it writes.

``run`` is the only producer of bundle files, and every one goes out
through one path: ``run_experiment`` builds them as a name -> text map,
``write_manifest`` digests that text, and ``_publish`` writes and moves
the files and the manifest into place.  A new bundle file is one more
entry of that map.  ``_read_manifest`` reads an earlier run's manifest
back, so ``_publish`` can delete the files only it lists.

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
from dataclasses import dataclass
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
from .errors import CurationError, DataError, PtriskError
from .evaluation import ALL_METRICS, MetricReport, evaluate_oof, run_oof, stratified_kfold
from .models import MODEL_KINDS, ModelSpec
from .parsers import load_raw, qc_filter
from .rng import RngKey
from .synth import make_out_dir

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
        self.cause = cause


@dataclass
class ReportBundle:
    out_dir: Path
    reports: dict  # (group_tag, model_kind) -> metrics payload, as in metrics_*.json
    warnings: tuple  # flagged, not fatal: the fold assignment's small-class warnings


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows, footnotes=()) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for note in footnotes:
        buffer.write(note + "\n")
    return buffer.getvalue()


def _metrics_payload(
    report: MetricReport, tag: str, kind: str, config: ExperimentConfig, config_hash: str
) -> dict:
    """The record of one cell: written as its metrics_*.json, and the
    source of the cell's rows in the tables and plot-data files."""
    return {
        "model": kind,
        "group": tag,
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
            "k": config.k,
            "seed": config.seed,
            "threshold": config.threshold,
            "bootstrap_samples": config.bootstrap_samples,
            "alpha": config.alpha,
        },
        "config_hash": config_hash,
    }


def oof_filename(group_tag: str, kind: str) -> str:
    return f"oof_{group_tag}_{kind}.csv"


def metrics_filename(group_tag: str, kind: str) -> str:
    return f"metrics_{group_tag}_{kind}.json"


def _oof_text(row_ids, fold_of, labels, p_hat) -> str:
    rows = [
        (rid, int(fold), int(y), repr(float(p)))
        for rid, fold, y, p in zip(row_ids, fold_of, labels, p_hat)
    ]
    return _csv_text(("record_id", "fold", "y", "p_hat"), rows)


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute ingest -> curation -> grid evaluation -> report emission.

    The output directory is made, or refused with a ConfigError, before
    ingest.  Ingest and curation hand the grid only the curated dataset,
    its summary, the config hash and the curation report, so the parsed
    records and the encoded table are freed before any model is fitted.
    Every file of the bundle is collected in one name -> text map, which
    ``_publish`` writes once with its manifest.  A failure raises a
    StageFailure naming the stage; before stage "manifest" nothing in
    ``out_dir`` has changed.
    """
    out_dir = make_out_dir(config.out_dir)
    dataset, summary, config_hash, curation_report = _curate(config)
    stage = "evaluation"
    try:
        files = {"curation_report.json": _json_text(curation_report)}
        files["cohort_summary.json"] = _json_text(summary)
        payloads = {}
        folds = stratified_kfold(dataset.labels, k=config.k, seed=config.seed)
        rng = RngKey(config.seed)
        for tag in config.run_groups:
            for kind in config.run_models:
                p_hat = run_oof(
                    dataset.matrices[tag], dataset.labels, ModelSpec(kind), folds, rng, group_tag=tag
                )
                report = evaluate_oof(
                    dataset.labels,
                    p_hat,
                    kind,
                    tag,
                    B=config.bootstrap_samples,
                    alpha=config.alpha,
                    seed=config.seed,
                    threshold=config.threshold,
                )
                payloads[(tag, kind)] = _metrics_payload(report, tag, kind, config, config_hash)
                oof_text = _oof_text(dataset.row_ids, folds.fold_of, dataset.labels, p_hat)
                files[oof_filename(tag, kind)] = oof_text
                files[metrics_filename(tag, kind)] = _json_text(payloads[(tag, kind)])

        stage = "report"
        files.update(table_files(payloads, config.run_groups, config.run_models))
        files.update(plotdata_files(payloads, config.run_groups, config.run_models, summary))

        stage = "manifest"
        _publish(out_dir, files, write_manifest(files, config_hash))
    except Exception as exc:
        raise StageFailure(stage, exc) from exc
    return ReportBundle(out_dir, payloads, folds.warnings)


def write_manifest(files: dict, config_hash: str) -> dict:
    """The bundle's manifest: the sha256 digest of each of ``files``
    (name -> text), taken from the UTF-8 bytes ``_publish`` writes.
    ``_publish`` writes it."""
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in files.items()}
    return {
        "tool": "ptrisk",
        "version": __version__,
        "config_hash": config_hash,
        "complete": True,
        "files": digests,
    }


def _read_manifest(out_dir: Path) -> dict:
    """The manifest in ``out_dir``: a JSON object whose ``files`` maps
    names to digests, all strings.  Anything else raises DataError."""
    path = out_dir / MANIFEST_FILENAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"no readable {MANIFEST_FILENAME} in {out_dir}: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict) or not all(isinstance(s, str) for s in (*files, *files.values())):
        raise DataError(f"{path} does not map file names to digests")
    return manifest


def _publish(out_dir: Path, files: dict, manifest: dict) -> None:
    """Write ``files`` (name -> text) and then ``manifest`` into a staging
    directory inside ``out_dir``, as UTF-8 with no newline translation,
    so each file holds the bytes its digest was taken from; then move them
    into ``out_dir``.  The old manifest is removed first and the new one
    moved last, so no manifest in ``out_dir`` ever lists a file that is
    missing or from another run.  Just before the new manifest moves in,
    each regular file the old manifest lists by a bare name (no path
    separator, not "." or "..") and the new one does not is deleted; a
    file that no readable manifest lists is never touched.  The staging
    directory is removed in every case."""
    try:
        old = _read_manifest(out_dir)["files"].keys() - manifest["files"].keys()
    except DataError:
        old = ()
    stale = [out_dir / n for n in old if n not in ("", ".", "..") and os.path.basename(n) == n]
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        for name, text in {**files, MANIFEST_FILENAME: _json_text(manifest)}.items():
            (staging / name).write_text(text, encoding="utf-8", newline="")
        (out_dir / MANIFEST_FILENAME).unlink(missing_ok=True)
        for name in (*files, MANIFEST_FILENAME):
            if name == MANIFEST_FILENAME:  # every new file is in place
                for path in stale:
                    if path.is_file() and not path.is_symlink():
                        path.unlink()
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _curate(config: ExperimentConfig) -> tuple:
    """Ingest and curate the cohort, and return (dataset, summary,
    config_hash, curation report); the parsed records and the encoded
    table go out of scope here.  A failure is raised as a StageFailure of
    stage "ingest" or "curation".

    The QC-kept records are put in ascending ``record_id`` order before
    any other use, and ``rows_removed_by_qc`` lists its ids in the same
    order, so the bundle does not depend on the order of the file's rows.
    ``load_raw`` refuses a repeated id, so the order is total.

    This is the one place that decides whether a cohort can run; the
    code below it checks none of these again.  Curation refuses a cohort,
    before any fit, when

    - no row passes QC;
    - no row survives the combined missing-value filter: ``assemble``
      drops each row with a missing value in any kept feature;
    - a run group has no feature left (the message names the features
      excluded from it);
    - fewer curated rows remain than the k folds;
    - a class has fewer than two curated rows.  Two or more are dealt to
      different folds, so every training split keeps both classes.

    Every curated value is finite: the parsers give a finite number or
    NaN, and ``assemble`` drops each row with a NaN.
    """
    stage = "ingest"
    try:
        config_hash = config.config_hash()
        records = load_raw(config.input_path, config.schema)
        kept = sorted(qc_filter(records, config.valid_flags), key=lambda r: r.record_id)

        stage = "curation"
        if not kept:
            raise CurationError(f"no row passed QC ({len(records)} rows read)")
        table = encode_features(kept, config.groups, config.curation)
        table = aggregate_proxies(table, config.curation.proxy_rules)
        group_of = dict(zip(table.columns, table.tags))
        table, dropped = exclude_features(table, config.curation)
        dataset = assemble(table, labels_from_records(kept))
        for tag in config.run_groups:
            if not dataset.feature_names[tag]:
                gone = [f"{name} ({reason})" for name, reason in dropped if tag in ("F3", group_of[name])]
                excluded = f"; excluded: {', '.join(gone)}" if gone else ""
                raise CurationError(f"run group {tag} has no features left{excluded}")
        if dataset.n < config.k:
            raise CurationError(f"{dataset.n} curated rows are fewer than the k={config.k} folds")
        positives = int(dataset.labels.sum())
        for label, count in ((0, dataset.n - positives), (1, positives)):
            if count < 2:
                raise CurationError(
                    f"class {label} has {count} curated row(s); at least 2 keep it in every training split"
                )
        summary = cohort_summary(dataset, config.curation)
        kept_ids = {k.record_id for k in kept}
        curation_report = {
            "input_rows": len(records),
            "rows_after_qc": len(kept),
            "rows_removed_by_qc": sorted(r.record_id for r in records if r.record_id not in kept_ids),
            "dropped_rows": [list(item) for item in dataset.dropped_rows],
            "dropped_features": [list(item) for item in dropped],
            "effective_config": config.to_dict(),
            "config_hash": config_hash,
        }
    except Exception as exc:
        raise StageFailure(stage, exc) from exc
    return dataset, summary, config_hash, curation_report


# --- tables ------------------------------------------------------------------------

def _fmt(point, low, high, decimals: int) -> str:
    if point is None:
        return "NA(single-class)"
    if low is None or high is None:
        return f"{point:.{decimals}f} [NA, NA]"
    return f"{point:.{decimals}f} [{low:.{decimals}f}, {high:.{decimals}f}]"


def _cell(payload: dict, metric: str, decimals: int) -> str:
    block = payload["metrics"][metric]
    return _fmt(block["point"], block["ci_low"], block["ci_high"], decimals)


def _ordered_kinds(run_models) -> list:
    return [kind for kind in MODEL_KINDS if kind in run_models]


def table_files(payloads: dict, run_groups, run_models) -> dict:
    """Main and extended per-group tables as a name -> text map, from the
    metrics payloads by (group, model).

    AUC cells use 4 decimals, threshold metrics 3.  Rows follow the
    fixed model order with the boosted model labelled XGB.
    """
    out = {}
    for tag in run_groups:
        rows = []
        extended = []
        for kind in _ordered_kinds(run_models):
            payload = payloads[(tag, kind)]
            label = DISPLAY_LABELS.get(kind, kind)
            rows.append(
                (
                    label,
                    _cell(payload, "auc", 4),
                    _cell(payload, "precision", 3),
                    _cell(payload, "f1", 3),
                )
            )
            extended.append(
                (
                    label,
                    _cell(payload, "sensitivity", 3),
                    _cell(payload, "specificity", 3),
                )
            )
        footnotes = (XGB_FOOTNOTE,) if "GBT" in run_models else ()
        header = ("model", "auc_95ci", "precision_95ci", "f1_95ci")
        out[f"table_{tag}.csv"] = _csv_text(header, rows, footnotes)
        header = ("model", "sensitivity_95ci", "specificity_95ci")
        out[f"table_{tag}_extended.csv"] = _csv_text(header, extended)
    return out


def plotdata_files(payloads: dict, run_groups, run_models, summary: dict) -> dict:
    """Plot-data files as a name -> text map: AUC points + CIs with the 0.5
    reference line, sensitivity/specificity points + CIs, and the age
    histogram."""

    def num(value):
        return "" if value is None else repr(float(value))

    def point_and_ci(payload, metric):
        block = payload["metrics"][metric]
        return num(block["point"]), num(block["ci_low"]), num(block["ci_high"])

    auc_rows = [("reference", "", "", num(0.5), "", "")]
    sens_rows = []
    for tag in run_groups:
        for kind in _ordered_kinds(run_models):
            payload = payloads[(tag, kind)]
            label = DISPLAY_LABELS.get(kind, kind)
            auc_rows.append(("point", label, tag, *point_and_ci(payload, "auc")))
            sens_rows.append(
                (
                    label,
                    tag,
                    *point_and_ci(payload, "sensitivity"),
                    *point_and_ci(payload, "specificity"),
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
    return {
        "plot_auc_ci.csv": _csv_text(("kind", "model", "group", "auc", "ci_low", "ci_high"), auc_rows),
        "plot_sens_spec.csv": _csv_text(sens_header, sens_rows),
        "plot_age_hist.csv": _csv_text(("bin_lo", "bin_hi", "count"), hist_rows),
    }
