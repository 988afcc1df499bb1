"""Command-line entry point.

Subcommands: ``synth`` (write a synthetic cohort) and ``run`` (full
ingest/curate/evaluate/report pipeline; the only command that writes
the report bundle).  Both take ``--config`` (INI file; defaults apply
when omitted) and ``--out`` (overrides the output directory); ``synth``
also takes ``--seed`` (overrides the cohort seed).

Exit codes: 0 success, 1 config or usage error (argparse's message on
stderr), 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import load_config
from .errors import ConfigError, DataError
from .report import StageFailure, run_experiment
from .synth import write_cohort

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrisk",
        description="pre-test risk stratification benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic cohort file plus ground-truth sidecar"),
        ("run", "run the full evaluation grid and write the report bundle"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="INI config file; defaults if omitted")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        if name == "synth":
            cmd.add_argument("--seed", type=int, default=None, help="cohort seed override")
    return parser


def _classify(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, DataError):
        return EXIT_DATA
    return EXIT_INTERNAL


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written its usage error (code 2) or -h's help (0)
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        config = load_config(args.config)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        if args.command == "synth":
            if args.seed is not None:
                config = replace(config, synth=replace(config.synth, seed=args.seed))
            cohort_path, sidecar_path = write_cohort(config.synth, config.out_dir)
            print(f"wrote {cohort_path} and {sidecar_path}")
            return EXIT_OK
        bundle = run_experiment(config)
        for warning in bundle.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"wrote bundle with {len(bundle.reports)} metric reports to {bundle.out_dir}")
        return EXIT_OK
    except StageFailure as exc:
        print(f"error in {exc}", file=sys.stderr)
        return _classify(exc.cause)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify(exc)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
