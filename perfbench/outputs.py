"""Correctness checks on a ``ptrisk run`` bundle.

The pinned reference is path-independent: the sha256 of every
``oof_*.csv`` and the ``metrics`` block of every ``metrics_*.json``.  The
whole manifest is not pinned, because ``curation_report.json`` and the
config hash embed the cohort's input path.  Runs inside one benchmark
invocation share that path, so their manifests must match exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(out_dir: Path) -> dict:
    return {
        "oof": {p.name: _sha256(p) for p in sorted(out_dir.glob("oof_*.csv"))},
        "metrics": {
            p.name: json.loads(p.read_text(encoding="utf-8"))["metrics"]
            for p in sorted(out_dir.glob("metrics_*.json"))
        },
    }


def bundle_problems(out_dir: Path) -> list:
    """Why the bundle is not a complete, self-consistent run; empty when it is."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    if manifest.get("complete") is not True:
        problems.append('manifest lacks "complete": true')
    for name, digest in sorted(manifest.get("files", {}).items()):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} listed in manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{name} does not match its manifest digest")
    return problems


def manifest_files(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["files"]


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def load_reference(workload_name: str):
    path = reference_path(workload_name)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_reference(workload_name: str, out_dir: Path) -> Path:
    path = reference_path(workload_name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(fingerprint(out_dir), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def reference_problems(out_dir: Path, reference: dict) -> list:
    actual = fingerprint(out_dir)
    problems = []
    for kind in ("oof", "metrics"):
        for name in sorted(set(reference[kind]) | set(actual[kind])):
            if name not in actual[kind]:
                problems.append(f"{name} missing from the bundle")
            elif name not in reference[kind]:
                problems.append(f"{name} not in the pinned reference")
            elif actual[kind][name] != reference[kind][name]:
                problems.append(f"{name} differs from the pinned reference")
    return problems
