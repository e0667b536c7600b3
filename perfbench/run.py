"""The repository benchmark: one command, named workloads, checked answers.

    python3 perfbench/run.py --workload screen-20k --seed 1 --seconds 16 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` measures once untraced, then installs the probes of
``probes.py``, sets the workload up and measures again, and reports the
per-layer metrics (plus the tracing overhead and the share of wall time
no span covers).  Either way every answer is checked; a mismatch counts
as a failed operation and makes the exit code non-zero.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"setup_s": {"value": 4.21, "unit": "s"}, ...}}

A fuller report (phase accounting, the issue-named metrics, environment,
and for traced runs the span table) is written under ``.perfbench/`` at
the repository root, together with the raw spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the load comes from one process and one thread, and on
# a 2-CPU host a second BLAS thread made run-to-run figures swing by up to
# 2x (whenever the two CPUs were not free together).  Set before numpy is
# imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# End-to-end metrics every workload reports (see README.md for what each
# one measures on each workload).
END_TO_END = {
    "setup_s": "s",
    "main_per_s": "1/s",
    "main_p50_ms": "ms",
    "main_p90_ms": "ms",
    "side_per_s": "1/s",
    "side_p50_ms": "ms",
    "side_p90_ms": "ms",
    "quality": "ratio",
    "peak_rss_mb": "MB",
}


def workloads() -> dict:
    from live import LiveWorkload
    from screen import ScreenWorkload
    from train import TrainWorkload

    return {w.name: w for w in (ScreenWorkload, LiveWorkload,
                                TrainWorkload)}


def environment() -> dict:
    """CPU, interpreter, numpy/BLAS build and source revision."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy without the dict mode
        blas = {}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")
                 if k in blas},
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "git_sha": sha,
    }


def run_untraced(workload, seconds: float) -> dict:
    from common import peak_rss_mb, timed_setups

    obj, setup_times = timed_setups(workload.setup, workload.setup_reps,
                                    workload.release)
    run = workload.measure(obj, seconds)
    rss = peak_rss_mb()
    checked = workload.verify(obj, run)
    workload.release(obj)
    generic, named = workload.end_to_end(run, checked)
    metrics = {"setup_s": statistics.median(setup_times), **generic,
               "peak_rss_mb": rss}
    return {"metrics": metrics, "named": {**named, "setup_s": metrics[
        "setup_s"], "peak_rss_mb": rss}, "setup_samples_s": setup_times,
            "runs": [run], "checks": [run["checks"]]}


def run_traced(workload, seconds: float, trace_path: Path) -> dict:
    from common import peak_rss_mb, trace_values
    from probes import LAYER_METRICS, PROBES, SETUP_PHASE, layer_metrics, \
        span_table
    from tracing import Tracer, is_probe_wrapper, resolve_owner, \
        uncovered_share

    # Untraced baseline on its own set-up: the overhead reference.
    obj = workload.setup()
    base = workload.measure(obj, seconds)
    base_checked = workload.verify(obj, base)
    workload.release(obj)
    del obj
    gc.collect()

    tracer = Tracer()
    tracer.phase = SETUP_PHASE
    tracer.install(PROBES)
    try:
        obj = workload.setup()
        run = workload.measure(obj, seconds, tracer)
    finally:
        tracer.remove()
    leftovers = [p.target for p in PROBES
                 if is_probe_wrapper(inspect.getattr_static(
                     *resolve_owner(p.target)))]
    checked = workload.verify(obj, run)
    workload.release(obj)
    if leftovers:
        run["checks"].fail(f"probes still installed: {leftovers}")

    measured = set(run["windows"])
    uncovered = uncovered_share(
        [s for s in tracer.spans if s.phase in measured],
        list(run["windows"].values()))
    untraced_per_s = workload.end_to_end(base, base_checked)[0]["main_per_s"]
    traced_per_s = workload.end_to_end(run, checked)[0]["main_per_s"]
    values = trace_values(untraced_per_s, traced_per_s, uncovered)
    metrics = layer_metrics(tracer, measured, values)
    tracer.dump(trace_path)
    units = {m.name: m.unit for m in LAYER_METRICS}
    table = {f"{phase}/{name}": row
             for (phase, name), row in sorted(span_table(tracer).items(),
                                              key=str)}
    return {"metrics": metrics, "units": units,
            "named": {"untraced_main_per_s": untraced_per_s,
                      "traced_main_per_s": traced_per_s,
                      "peak_rss_mb": peak_rss_mb(),
                      **{f"untraced.{k}": v for k, v in
                         base_checked.items()},
                      **{f"traced.{k}": v for k, v in checked.items()}},
            "runs": [base, run], "checks": [base["checks"], run["checks"]],
            "span_table": table, "trace_file": str(trace_path)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    registry = workloads()
    if args.workload not in registry:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(registry)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    try:
        workload = registry[args.workload](args.seed, args.seconds,
                                             workdir)
        if args.trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            result = run_traced(workload, args.seconds,
                                OUT / "traces" / f"{tag}.json")
            units = result["units"]
        else:
            result = run_untraced(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [(name, phase) for run in result["runs"]
              for name, phase in run["phases"].items()]
    attempted = sum(p.sent for _, p in phases)
    failures = sum(p.failed for _, p in phases) + sum(
        c.failures for c in result["checks"])
    messages = [m for c in result["checks"] for m in c.messages]
    correct = not messages
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in result["metrics"].items()}

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "wall_s": time.perf_counter() - started,
        "phases": [{"phase": name, **p.report()} for name, p in phases],
        "named_metrics": result["named"],
        "setup_samples_s": result.get("setup_samples_s"),
        "check_failures": messages,
        "metrics": metrics,
        "span_table": result.get("span_table"),
        "trace_file": result.get("trace_file"),
    }
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, default=str)

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cpus={env['cpu_count']} numpy={env['numpy']} "
          f"python={env['python']} git={env['git_sha'][:12]}")
    for name, p in phases:
        lat = p.report()["latency"]
        print(f"# phase {name}: sent={p.sent} ok={p.succeeded} "
              f"failed={p.failed} per_s={p.per_s:.2f} "
              f"p50={lat.get('p50_ms', 0):.2f}ms n={lat['n']} "
              f"tail=p{lat['supported_tail']}")
    for name, value in result["named"].items():
        if isinstance(value, float):
            print(f"# {name} = {value:.6g}")
    for message in messages:
        print(f"# CHECK FAILED: {message}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failures, "metrics": metrics}))
    return 0 if correct and failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
