"""One ``ptrisk run --config CONFIG --out OUT`` in a fresh process, timed from outside.

Usage: child.py MODE RESULT_JSON CONFIG OUT
  MODE is ``run`` (timed run), ``trace`` (timed run with layer spans) or
  ``setup`` (stop where ``run_experiment`` would be called).

The package's own command-line entry point does the work; the only change
is a wrapper around ``ptrisk.cli.run_experiment`` that marks the end of
set-up and times the run.  Times are CPU seconds of this process
(``time.process_time``): the run is single-threaded, so they equal its
wall seconds whenever the process is not descheduled, and unlike wall
time they do not count time the host lends to other machines.
RESULT_JSON receives set-up and run seconds, the run's wall seconds,
peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _SetupDone(BaseException):
    """Unwinds past ``cli.main``'s error handling once set-up is timed."""


def _versions() -> dict:
    import numpy

    versions = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions["blas"] = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        versions["blas"] = "unknown"
    return versions


def main(argv) -> int:
    mode, result_path, config_path, out_dir = argv
    result = {}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    start = time.process_time()
    import ptrisk.cli as cli

    result["import_s"] = time.process_time() - start
    if tracer is not None:
        result["missing_spans"] = tracer.install()

    run_experiment = cli.run_experiment

    def timed_run_experiment(config):
        result["setup_s"] = time.process_time()  # CPU since the process started
        if mode == "setup":
            raise _SetupDone
        start, wall = time.process_time(), time.perf_counter()
        try:
            return run_experiment(config)
        finally:
            result["run_s"] = time.process_time() - start
            result["run_wall_s"] = time.perf_counter() - wall

    cli.run_experiment = timed_run_experiment
    try:
        code = cli.main(["run", "--config", config_path, "--out", out_dir])
    except _SetupDone:
        code = 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
    if mode == "setup":
        result["versions"] = _versions()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
