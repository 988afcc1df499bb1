"""Per-layer metrics computed from the spans of one traced run.

``*_s`` metrics are wall seconds summed over calls.  A span's self time is
its duration minus that of its direct child spans.  A metric whose span
could not be installed, or whose span was never entered although the
workload's grid should reach it, is reported as missing, never as zero.
Metrics of a model kind or feature group that the workload does not run
read 0: no call was made.
"""

from __future__ import annotations

from workloads import ALL_GROUPS, ALL_MODELS

BOOTSTRAP_METRICS = ("auc", "sensitivity", "specificity", "precision", "f1")
TREE_KINDS = ("DT", "RF", "GBT")
CURATION_SPANS = tuple(
    f"curation.{fn}"
    for fn in (
        "encode_features",
        "aggregate_proxies",
        "exclude_features",
        "labels_from_records",
        "assemble",
        "cohort_summary",
    )
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "setup.import_s": "s",
        "config.load_s": "s",
        "parsers.ingest_s": "s",
        "parsers.rows_read": "count",
        "curation.curate_s": "s",
        "curation.rows_kept": "count",
        "curation.features_kept": "count",
    }
    for kind in ALL_MODELS:
        units[f"models.fit_s.{kind}"] = "s"
        for group in ALL_GROUPS:
            units[f"models.fit_s.{kind}.{group}"] = "s"
    for kind in ALL_MODELS:
        units[f"models.predict_s.{kind}"] = "s"
    for kind in TREE_KINDS:
        units[f"models.tree_nodes.{kind}"] = "count"
    units["models.lr_newton_iters"] = "count"
    units["models.lr_converged_frac"] = "ratio"
    for metric in BOOTSTRAP_METRICS:
        units[f"evaluation.bootstrap_s.{metric}"] = "s"
    units.update(
        {
            "evaluation.point_s": "s",
            "evaluation.oof_self_s": "s",
            "evaluation.resamples": "count",
            "evaluation.resample_yield": "ratio",
            "report.tables_s": "s",
            "report.manifest_s": "s",
            "report.self_s": "s",
            "report.files": "count",
            "report.bytes_written": "bytes",
            "trace.overhead_frac": "ratio",
            "trace.coverage_frac": "ratio",
        }
    )
    return units


class _NoCalls(Exception):
    pass


def _mean(values) -> float:
    return sum(values) / len(values)


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.children_s = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                self.children_s[span["parent"]] += span["dur"]
        # notes of a span together with those of its enclosing span, e.g. a
        # fit inherits the feature group of the run_oof call around it
        self.context = []
        for span in spans:
            context = dict(self.context[span["parent"]]) if span["parent"] is not None else {}
            context.update(span.get("notes", {}))
            self.context.append(context)

    def select(self, name, **match) -> list:
        picked = [
            i
            for i, span in enumerate(self.spans)
            if span["name"] == name
            and all(self.context[i].get(key) == value for key, value in match.items())
        ]
        if not picked:
            raise _NoCalls(name)
        return picked

    def total_s(self, name, **match) -> float:
        return sum(self.spans[i]["dur"] for i in self.select(name, **match))

    def self_s(self, name) -> float:
        return sum(self.spans[i]["dur"] - self.children_s[i] for i in self.select(name))

    def notes(self, name, key, **match) -> list:
        return [self.spans[i]["notes"][key] for i in self.select(name, **match)]


def layer_metrics(child: dict, workload, untraced_run_s: float, files: int, bytes_written: int):
    """(values by metric name, names of missing metrics) for one traced child result."""
    spans = _Spans(child["spans"])
    absent = set(child["missing_spans"])
    values = {}
    missing = []

    def put(name, sources, compute, applies=True):
        if absent.intersection(sources):
            missing.append(name)
        elif not applies:
            values[name] = 0.0
        else:
            try:
                values[name] = float(compute())
            except (_NoCalls, KeyError):
                missing.append(name)

    put("setup.import_s", (), lambda: child["import_s"])
    put("config.load_s", ("config.load",), lambda: spans.total_s("config.load"))
    ingest = ("parsers.load_raw", "parsers.qc_filter")
    put("parsers.ingest_s", ingest, lambda: sum(spans.total_s(s) for s in ingest))
    put("parsers.rows_read", ingest[:1], lambda: sum(spans.notes("parsers.load_raw", "rows")))
    put("curation.curate_s", CURATION_SPANS, lambda: sum(spans.total_s(s) for s in CURATION_SPANS))
    assemble = ("curation.assemble",)
    put("curation.rows_kept", assemble, lambda: sum(spans.notes(assemble[0], "rows")))
    put("curation.features_kept", assemble, lambda: sum(spans.notes(assemble[0], "features")))

    fit = ("models.fit", "evaluation.run_oof")
    for kind in ALL_MODELS:
        runs = kind in workload.models
        put(f"models.fit_s.{kind}", fit, lambda k=kind: spans.total_s("models.fit", kind=k), runs)
        for group in ALL_GROUPS:
            put(
                f"models.fit_s.{kind}.{group}",
                fit,
                lambda k=kind, g=group: spans.total_s("models.fit", kind=k, group=g),
                runs and group in workload.groups,
            )
    for kind in ALL_MODELS:
        put(
            f"models.predict_s.{kind}",
            ("models.predict",),
            lambda k=kind: spans.total_s("models.predict", kind=k),
            kind in workload.models,
        )
    for kind in TREE_KINDS:
        put(
            f"models.tree_nodes.{kind}",
            fit,
            lambda k=kind: sum(spans.notes("models.fit", "tree_nodes", kind=k)),
            kind in workload.models,
        )
    has_lr = "LR" in workload.models
    put("models.lr_newton_iters", fit, lambda: sum(spans.notes("models.fit", "lr_iters", kind="LR")), has_lr)
    put(
        "models.lr_converged_frac",
        fit,
        lambda: _mean(spans.notes("models.fit", "lr_converged", kind="LR")),
        has_lr,
    )

    boot = ("evaluation.bootstrap_ci",)
    for metric in BOOTSTRAP_METRICS:
        put(
            f"evaluation.bootstrap_s.{metric}",
            boot,
            lambda m=metric: spans.total_s(boot[0], metric=m),
        )
    put("evaluation.point_s", ("evaluation.evaluate_oof",) + boot, lambda: spans.self_s("evaluation.evaluate_oof"))
    put("evaluation.oof_self_s", fit + ("models.predict",), lambda: spans.self_s("evaluation.run_oof"))
    put("evaluation.resamples", boot, lambda: sum(spans.notes(boot[0], "B")))
    evaluate = ("evaluation.evaluate_oof",)
    put(
        "evaluation.resample_yield",
        evaluate,
        lambda: 1.0
        - sum(spans.notes(evaluate[0], "discarded")) / sum(spans.notes(evaluate[0], "drawn")),
    )

    tables = ("report.table_files", "report.plotdata_files")
    put("report.tables_s", tables, lambda: sum(spans.total_s(s) for s in tables))
    put("report.manifest_s", ("report.write_manifest",), lambda: spans.total_s("report.write_manifest"))
    # everything the run does outside named spans: orchestration and the
    # OOF/metrics/curation file writes
    every_span = (
        ("run", "models.predict", "report.write_manifest")
        + ingest + CURATION_SPANS + fit + evaluate + boot + tables
    )
    put("report.self_s", every_span, lambda: spans.self_s("run"))
    put("report.files", (), lambda: files)
    put("report.bytes_written", (), lambda: bytes_written)
    put("trace.overhead_frac", ("run",), lambda: child["run_s"] / untraced_run_s - 1.0)
    put("trace.coverage_frac", every_span, lambda: 1.0 - spans.self_s("run") / spans.total_s("run"))
    return values, missing
