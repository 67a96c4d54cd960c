"""Benchmark of the birthdeath package: three seeded workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload lab-readme --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics (wall and CPU
time per job, set-up time, peak RSS); with ``--trace 1`` it times one
job untraced and one traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and every metric in readable form.  ``--smoke`` shrinks every
budget so the benchmark's own test runs in seconds.

The program is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# Every end-to-end metric the untraced run prints, with its unit.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Timed jobs per untraced run: at least MIN_JOBS, then more until --seconds
# have passed.  wall_s and cpu_s are medians over the jobs.
MIN_JOBS = 3
# Fresh processes that each repeat the set-up; setup_s is their median.
SETUP_RUNS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the benchmark's test")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def import_program():
    """Import birthdeath from this checkout's src/, or return None."""
    if not (SRC / "birthdeath" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import birthdeath
    if Path(birthdeath.__file__).resolve().parent != SRC / "birthdeath":
        return None
    return birthdeath


def environment(args: argparse.Namespace, workload, budgets: dict) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "birthdeath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "budgets": budgets,
    }


def git_commit() -> str | None:
    """HEAD of the repository rooted exactly here, or None outside one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def time_setups(args: argparse.Namespace, count: int) -> list[float]:
    """Seconds from process start to ready inputs, in ``count`` fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
        times.append(elapsed)
    return times


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_job(workload, inputs):
    """One job with its wall and CPU seconds, its outputs, and any traceback."""
    workload.reset(inputs)
    # Every job starts from a collected heap, not from the last job's garbage.
    gc.collect()
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        outputs, error = workload.job(inputs), None
    except Exception:
        outputs, error = None, traceback.format_exc()
    return time.perf_counter() - start, cpu_seconds() - cpu, outputs, error


def judge(workload, inputs, outputs, error, checks: list) -> None:
    from workloads import Check

    if error is not None:
        print(error, file=sys.stderr)
        checks.append(Check("job completed", False, error.strip().splitlines()[-1]))
    else:
        checks.extend(workload.checks(inputs, outputs))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat_jobs(workload, inputs, checks, minimum: int, seconds: float):
    """Wall and CPU seconds of at least ``minimum`` jobs, more until ``seconds`` pass."""
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < minimum or time.perf_counter() - start < seconds:
        wall, cpu, outputs, error = timed_job(workload, inputs)
        walls.append(wall)
        cpus.append(cpu)
        judge(workload, inputs, outputs, error, checks)
        if error is not None:
            break
    return walls, cpus


def measure_end_to_end(args, workload, inputs, checks) -> dict[str, float]:
    setups = time_setups(args, 2 if args.smoke else SETUP_RUNS)
    walls, cpus = repeat_jobs(workload, inputs, checks, 1 if args.smoke else MIN_JOBS,
                              args.seconds)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for name, values, unit in (("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
                               ("setup_s", setups, "s")):
        q1, median, q3 = quartiles(values)
        print(f"{name}: median {median:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, "
              f"{len(values)} samples: {' '.join(f'{v:.4f}' for v in values)}")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(own, children) / 1024.0,
    }


def measure_layers(workload, inputs, checks, seconds: float) -> dict[str, float]:
    import tracing
    from workloads import Check

    untraced, _ = repeat_jobs(workload, inputs, checks, 1, seconds / 2.0)
    tracer = tracing.Tracer()
    workload.reset(inputs)
    patches = tracing.install(tracer)
    try:
        outputs = tracer.run(lambda: workload.job(inputs))
        error = None
    except Exception:
        outputs, error = None, traceback.format_exc()
    finally:
        patches.restore()
    judge(workload, inputs, outputs, error, checks)
    metrics = tracing.layer_metrics(tracer, statistics.median(untraced))

    attributed = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    total = attributed + metrics["trace.unattributed_s"]
    checks.append(Check("self times add up to traced wall time",
                        abs(total - metrics["trace.wall_s"]) <= 1e-6 * metrics["trace.wall_s"],
                        f"{total!r} vs {metrics['trace.wall_s']!r}"))
    checks.extend(workload.trace_checks(inputs, metrics))
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        print(f"error: the birthdeath sources are not at {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    try:
        inputs = workload.setup(args.seed, args.smoke, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        print("env: " + json.dumps(environment(args, workload, workload.budgets(args.smoke)),
                                   sort_keys=True))
        checks = []
        if args.trace:
            values, units = measure_layers(workload, inputs, checks, args.seconds), tracing.PER_LAYER
        else:
            values, units = measure_end_to_end(args, workload, inputs, checks), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    failed = [c for c in checks if not c.ok]
    for check in failed:
        print(f"FAILED {check.name}: {check.detail}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"fail_frac = {len(failed) / max(1, len(checks))!r} ({len(failed)} of {len(checks)} checks)")
    result = {
        "correct": bool(checks) and not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
