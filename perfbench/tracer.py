"""Spans around calls into the ptrisk layers, recorded from outside the package.

Each target is a public function looked up by name in the module whose
code calls it, so replacing that attribute times every call the pipeline
makes.  A target whose name no longer exists is reported back as missing
rather than silently timing nothing.  Spans are kept in memory (name,
CPU-seconds duration, parent span, notes) and handed to the caller at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _tree_nodes(model) -> int:
    """Total nodes of the fitted trees of a DT, RF or GBT model."""
    if hasattr(model, "tree"):
        return int(model.tree.feature.size)
    return sum(int(tree.feature.size) for tree in model.trees)


def _fit_notes(args, model_pipeline) -> dict:
    kind = args["spec"].kind
    notes = {"kind": kind}
    model = model_pipeline.model
    if kind in ("DT", "RF", "GBT"):
        notes["tree_nodes"] = _tree_nodes(model)
    if kind == "LR":
        notes["lr_iters"] = int(model.n_iter)
        notes["lr_converged"] = bool(model.converged)
    return notes


def _report_notes(args, report) -> dict:
    return {
        "discarded": int(sum(report.discarded.values())),
        "drawn": int(report.B) * len(report.discarded),
    }


# (module, attribute path, span name, notes(bound arguments, result) -> dict)
TARGETS = (
    ("ptrisk.cli", "load_config", "config.load", None),
    ("ptrisk.cli", "run_experiment", "run", None),
    ("ptrisk.report", "load_raw", "parsers.load_raw", lambda a, r: {"rows": len(r)}),
    ("ptrisk.report", "qc_filter", "parsers.qc_filter", None),
    ("ptrisk.report", "encode_features", "curation.encode_features", None),
    ("ptrisk.report", "aggregate_proxies", "curation.aggregate_proxies", None),
    ("ptrisk.report", "exclude_features", "curation.exclude_features", None),
    ("ptrisk.report", "labels_from_records", "curation.labels_from_records", None),
    (
        "ptrisk.report",
        "assemble",
        "curation.assemble",
        lambda a, r: {"rows": int(r.n), "features": len(r.feature_names["F3"])},
    ),
    ("ptrisk.report", "cohort_summary", "curation.cohort_summary", None),
    (
        "ptrisk.report",
        "run_oof",
        "evaluation.run_oof",
        lambda a, r: {"kind": a["spec"].kind, "group": a["group_tag"]},
    ),
    ("ptrisk.evaluation", "fit_pipeline", "models.fit", _fit_notes),
    (
        "ptrisk.models.pipeline",
        "FittedPipeline.predict_proba",
        "models.predict",
        lambda a, r: {"kind": a["self"].kind},
    ),
    ("ptrisk.report", "evaluate_oof", "evaluation.evaluate_oof", _report_notes),
    (
        "ptrisk.evaluation",
        "bootstrap_ci",
        "evaluation.bootstrap_ci",
        lambda a, r: {"metric": a["metric"], "B": int(a["B"])},
    ),
    ("ptrisk.report", "table_files", "report.table_files", None),
    ("ptrisk.report", "plotdata_files", "report.plotdata_files", None),
    ("ptrisk.report", "write_manifest", "report.write_manifest", None),
)


class Tracer:
    """Records nested spans; ``spans[i]["parent"]`` indexes the enclosing span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str, notes=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur"] = time.process_time() - start
                self._stack.pop()
            if notes is not None:
                try:
                    span["notes"] = notes(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    span["notes_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self, targets=TARGETS) -> list:
        """Wrap every target that exists; return the span names of those that do not."""
        missing = []
        for module_name, path, name, notes in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            setattr(owner, attr, self.wrap(fn, name, notes))
        return missing
