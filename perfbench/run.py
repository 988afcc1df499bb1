"""Benchmark of ``ptrisk run`` on generated cohorts.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper93 --seed 20190101 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload ci1k --pin   # re-pin the reference outputs

The cohort is written from the workload seed (``ptrisk synth``) before any
timing.  Each timed run is then a fresh process doing what
``ptrisk run --config ...`` does, so it pays interpreter start and
``import ptrisk``.  Processes run one at a time with BLAS/OpenMP pinned to
one thread, and times are CPU seconds of the run process.  ``--trace 0``
repeats the run while the next one still fits in ``--seconds`` and reports
end-to-end medians; ``--trace 1`` makes one untraced and one traced run and
reports the per-layer metrics.  METRICS.md defines every metric.

Every run's bundle is checked: manifest complete and matching the files,
the same manifest as every other run of the invocation, and, at the
default seed, the pinned reference under ``reference/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import outputs
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # every process of one invocation ends within this
SETUP_PROBES = 6  # set-up-only processes per untraced invocation, besides the runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


@dataclass
class Run:
    out_dir: Path
    wall_s: float
    result: dict = None  # what child.py wrote, None if it wrote nothing
    problems: list = field(default_factory=list)


class Invocation:
    """The processes of one workload at one seed, inside a work directory of the checkout."""

    def __init__(self, root: Path, workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
        self.count = 0

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "bench.ini"
        self.config.write_text(
            self.workload.config_ini(self.seed, str(self.work / "cohort.csv")), encoding="utf-8"
        )
        synth = subprocess.run(
            [sys.executable, "-m", "ptrisk.cli", "synth", "--config", str(self.config), "--out", str(self.work)],
            env=self.env,
            cwd=self.work,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=self.time_left(),
        )
        if synth.returncode != 0:
            raise RuntimeError(f"ptrisk synth failed: {synth.stderr.strip()}")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another invocation's directory is still there

    def time_left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def launch(self, mode: str) -> Run:
        """One child process in ``mode`` (setup, run or trace); never raises on its failure."""
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        result_path = self.work / f"result{self.count}.json"
        command = [sys.executable, str(HERE / "child.py"), mode, str(result_path), str(self.config), str(out_dir)]
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                command,
                env=self.env,
                cwd=self.work,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=self.time_left(),
            )
        except subprocess.TimeoutExpired:
            return Run(out_dir, time.monotonic() - launched, problems=["timed out"])
        run = Run(out_dir, time.monotonic() - launched)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            run.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        if result_path.is_file():
            run.result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            run.problems.append("no result written")
        return run


def check_runs(runs: list, reference) -> None:
    """Add to each run's problems: bundle, cross-run and reference mismatches."""
    first = None
    for run in runs:
        if run.problems:
            continue
        run.problems += outputs.bundle_problems(run.out_dir)
        if run.problems:
            continue
        files = outputs.manifest_files(run.out_dir)
        if first is None:
            first = files
        elif files != first:
            run.problems.append("outputs differ from an earlier run of the same seed")
        if reference is not None:
            run.problems += outputs.reference_problems(run.out_dir, reference)


def bundle_size(out_dir: Path):
    files = [p for p in out_dir.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def environment(probe: Run) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    if probe.result is not None:
        info.update(probe.result.get("versions", {}))
    return info


def timed_window(inv: Invocation, seconds: float):
    """Set-up probes and timed runs; runs repeat while the next one still fits in ``seconds``."""
    # probes on both sides of the window, so a slow spell of the host weighs
    # on set-up no more than on the runs
    setups = [inv.launch("setup") for _ in range(SETUP_PROBES // 2)]
    start = time.monotonic()
    runs = [inv.launch("run")]
    while runs[-1].result is not None:
        longest = max(run.wall_s for run in runs)
        if time.monotonic() - start + longest > seconds:
            break
        runs.append(inv.launch("run"))
    setups += [inv.launch("setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return setups, runs


def end_to_end(setups: list, runs: list):
    """End-to-end metric values, and the samples behind them."""
    done = [run.result for run in runs if run.result is not None and "run_s" in run.result]
    samples = {
        "run_s": [r["run_s"] for r in done],
        "run_wall_s": [r["run_wall_s"] for r in done],
        "setup_s": [run.result["setup_s"] for run in setups + runs if run.result and "setup_s" in run.result],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items() if v and name in END_TO_END_UNITS}
    metrics["pass_frac"] = sum(1 for run in runs if not run.problems) / len(runs)
    return metrics, samples


def per_layer(workload, untraced: Run, traced: Run):
    """Per-layer metric values and the names of missing ones."""
    if traced.result is None or untraced.result is None or "run_s" not in untraced.result:
        return {}, []
    files, size = bundle_size(traced.out_dir)
    return layers.layer_metrics(traced.result, workload, untraced.result["run_s"], files, size)


def bench(root: Path, workload, seed: int, seconds: float, trace: bool, pin: bool = False) -> dict:
    """Measure one workload at one seed.

    Returns the result ``line`` (correct, attempted, failed, metrics) and
    what the printed report adds: environment, samples, missing metrics and
    the problems of failed runs.
    """
    inv = Invocation(root, workload, seed, time.monotonic() + DEADLINE_S)
    try:
        inv.prepare()
        warmup = inv.launch("setup")  # untimed: fills the bytecode cache, as any installed copy has
        if trace:
            runs = [inv.launch("run"), inv.launch("trace")]
        else:
            setups, runs = timed_window(inv, seconds)

        reference = None
        if not pin and seed == DEFAULT_SEED and WORKLOADS.get(workload.name) == workload:
            reference = outputs.load_reference(workload.name)
            if reference is None:
                runs[0].problems.append(f"no pinned reference {outputs.reference_path(workload.name)}")
        check_runs(runs, reference)

        if trace:
            units = layers.metric_units()
            samples = {"run_s (untraced, traced)": [r.result["run_s"] for r in runs if r.result and "run_s" in r.result]}
            metrics, missing = per_layer(workload, *runs)
        else:
            units, missing = END_TO_END_UNITS, []
            metrics, samples = end_to_end(setups, runs)
        missing += [name for name in units if name not in metrics and name not in missing]
        failed = sum(1 for run in runs if run.problems)
        report = {
            "line": {
                "correct": failed == 0 and not missing,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
            },
            "env": environment(warmup),
            "samples": samples,
            "missing": missing,
            "problems": [f"run {i + 1}: {p}" for i, run in enumerate(runs) for p in run.problems],
        }
        if pin and failed == 0:
            report["pinned"] = str(outputs.write_reference(workload.name, runs[0].out_dir))
        return report
    finally:
        inv.cleanup()


def print_report(name: str, seed: int, trace: bool, report: dict) -> None:
    env = " ".join(f"{k}={v}" for k, v in report["env"].items())
    print(f"== {name} seed={seed} trace={int(trace)} {env}")
    line = report["line"]
    for metric, entry in line["metrics"].items():
        print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
    for key, values in report["samples"].items():
        print(f"  {key} samples ({len(values)}): {', '.join(f'{v:.4g}' for v in values)}")
    print(f"  fail_frac {line['failed']}/{line['attempted']} = {line['failed'] / line['attempted']:.6g}")
    for metric in report["missing"]:
        print(f"  MISSING {metric}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    if "pinned" in report:
        print(f"  pinned {report['pinned']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both")
    parser.add_argument("--pin", action="store_true", help="write the reference outputs of the default seed")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ptrisk" / "cli.py").is_file():
        print(f"error: run from the root of a ptrisk checkout; {root / 'src/ptrisk'} not found", file=sys.stderr)
        return 2
    if args.pin and args.seed != DEFAULT_SEED:
        print(f"error: references are pinned at the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.pin:
        modes = (False,)
    else:
        modes = (False, True) if args.trace is None else (bool(args.trace),)
    lines = {}
    for name in names:
        for trace in modes:
            report = bench(root, WORKLOADS[name], args.seed, args.seconds, trace, args.pin)
            print_report(name, args.seed, trace, report)
            lines[(name, trace)] = report["line"]
    if len(lines) == 1:
        summary = next(iter(lines.values()))
    else:
        summary = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for (name, _), line in lines.items()
                for metric, entry in line["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
